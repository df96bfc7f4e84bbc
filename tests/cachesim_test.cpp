// Tests for the cache simulator and the locality-trace validation of
// the cost models' DRAM classification.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capow/cachesim/cache.hpp"
#include "capow/cachesim/locality_trace.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/strassen/cost_model.hpp"

namespace capow::cachesim {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64 B lines = 512 B.
  return CacheConfig{.capacity_bytes = 512, .associativity = 2,
                     .line_bytes = 64};
}

TEST(CacheConfig, Validation) {
  EXPECT_NO_THROW(tiny_cache().validate());
  CacheConfig bad = tiny_cache();
  bad.line_bytes = 48;  // not a power of two
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_cache();
  bad.capacity_bytes = 500;  // not whole sets
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_cache();
  bad.associativity = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_EQ(tiny_cache().sets(), 4u);
}

TEST(LruCache, ColdMissThenHit) {
  LruCache c(tiny_cache());
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(LruCache, LruEvictionWithinSet) {
  LruCache c(tiny_cache());
  // Set index = line % 4; lines 0, 4, 8 all map to set 0 (2 ways).
  const std::uint64_t l0 = 0 * 64, l4 = 4 * 64, l8 = 8 * 64;
  c.access(l0);
  c.access(l4);
  c.access(l0);        // l0 most recent; l4 is LRU
  c.access(l8);        // evicts l4
  EXPECT_TRUE(c.contains(l0));
  EXPECT_FALSE(c.contains(l4));
  EXPECT_TRUE(c.contains(l8));
}

TEST(LruCache, StreamingLargerThanCapacityAlwaysMisses) {
  LruCache c(tiny_cache());
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < 4096; a += 64) c.access(a);
  }
  // 4 KiB stream through a 512 B cache: every access a capacity miss.
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(LruCache, ResidentWorkingSetAllHitsAfterWarmup) {
  LruCache c(tiny_cache());
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t a = 0; a < 512; a += 64) c.access(a);
  }
  EXPECT_EQ(c.stats().misses(), 8u);  // cold only
  EXPECT_EQ(c.stats().hits, 24u);
}

TEST(LruCache, ResetClears) {
  LruCache c(tiny_cache());
  c.access(0);
  c.reset();
  EXPECT_FALSE(c.contains(0));
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Hierarchy, MissWalksDownHitStopsEarly) {
  CacheHierarchy h({tiny_cache(),
                    CacheConfig{.capacity_bytes = 2048,
                                .associativity = 2,
                                .line_bytes = 64}});
  h.access(0, 64);  // cold: miss both levels
  EXPECT_EQ(h.level_stats(0).misses(), 1u);
  EXPECT_EQ(h.level_stats(1).misses(), 1u);
  h.access(0, 64);  // L1 hit: L2 untouched
  EXPECT_EQ(h.level_stats(0).hits, 1u);
  EXPECT_EQ(h.level_stats(1).accesses, 1u);
  EXPECT_EQ(h.dram_bytes(), 64u);
}

TEST(Hierarchy, L2CatchesL1CapacityMisses) {
  // Working set of 1 KiB: thrashes the 512 B L1, fits the 2 KiB L2.
  CacheHierarchy h({tiny_cache(),
                    CacheConfig{.capacity_bytes = 2048,
                                .associativity = 2,
                                .line_bytes = 64}});
  for (int pass = 0; pass < 8; ++pass) {
    for (std::uint64_t a = 0; a < 1024; a += 64) h.access(a, 8);
  }
  EXPECT_GT(h.level_stats(0).misses(), 16u);   // L1 keeps missing
  EXPECT_EQ(h.level_stats(1).misses(), 16u);   // L2: cold only
  EXPECT_EQ(h.dram_bytes(), 16u * 64u);
}

TEST(Hierarchy, MultiLineAccessTouchesEveryLine) {
  CacheHierarchy h({tiny_cache()});
  h.access(32, 128);  // spans lines 0, 1, 2
  EXPECT_EQ(h.level_stats(0).accesses, 3u);
  h.access(0, 0);  // no-op
  EXPECT_EQ(h.level_stats(0).accesses, 3u);
}

TEST(Hierarchy, FromMachineMirrorsSpec) {
  const auto m = machine::haswell_e3_1225();
  CacheHierarchy h = CacheHierarchy::from_machine(m);
  EXPECT_EQ(h.level_count(), 3u);
  machine::MachineSpec bare = m;
  bare.caches.clear();
  EXPECT_THROW(CacheHierarchy::from_machine(bare), std::invalid_argument);
}

// ---- Locality-trace validation of the cost models.

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

TEST(LocalityTrace, LogicalBytesMatchCostModelExactly) {
  // The replay counts with the instrumentation's conventions, so its
  // logical bytes equal the closed-form raw traffic to the byte.
  for (std::size_t n : {128u, 256u, 512u}) {
    const auto s = strassen_locality(n, 64, kHaswell);
    EXPECT_EQ(static_cast<double>(s.logical_bytes),
              strassen::strassen_total_traffic_bytes(
                  n, strassen::StrassenOptions{.base_cutoff = 64}))
        << n;

    const capsalg::CapsOptions copts{.base_cutoff = 64,
                                     .bfs_cutoff_depth = 1};
    const auto c = caps_locality(n, 64, 1, kHaswell);
    EXPECT_EQ(static_cast<double>(c.logical_bytes),
              capsalg::caps_total_traffic_bytes(n, copts))
        << n;
  }
}

TEST(LocalityTrace, RejectsPaddedDimensions) {
  // 130 halves to the odd 65 above the cutoff, so it needs padding.
  EXPECT_THROW(strassen_locality(130, 64, kHaswell),
               std::invalid_argument);
  EXPECT_THROW(caps_locality(130, 64, 2, kHaswell), std::invalid_argument);
  EXPECT_THROW(strassen_locality(128, 0, kHaswell), std::invalid_argument);
}

TEST(LocalityTrace, CacheResidentProblemBarelyTouchesDram) {
  // n = 256: everything (operands + deepest live temps) fits the 8 MB
  // LLC. Measured DRAM traffic must stay near the compulsory footprint
  // (inputs + output + first-touch temps), far below the logical
  // traffic — confirming the cost model's "cache-resident" call.
  const auto r = strassen_locality(256, 64, kHaswell);
  EXPECT_LT(r.dram_fraction(), 0.25);
}

TEST(LocalityTrace, OutOfCacheProblemStreamsFromDram) {
  // n = 1024: 3n^2 * 8 = 25 MB against an 8 MB LLC; the top-level adds
  // must stream. Measured DRAM traffic climbs far above the compulsory
  // footprint, while the cache-resident n = 256 case stays near it.
  const auto compulsory = [](std::size_t n) {
    return 3.0 * static_cast<double>(n) * n * sizeof(double);
  };
  const auto big = strassen_locality(1024, 64, kHaswell);
  const auto small = strassen_locality(256, 64, kHaswell);
  EXPECT_GT(static_cast<double>(big.dram_bytes), 3.0 * compulsory(1024));
  EXPECT_LT(static_cast<double>(small.dram_bytes), 3.0 * compulsory(256));

  // ...and the serial cost model's DRAM estimate lands within a factor
  // of three of the simulated ground truth.
  const auto wp = strassen::strassen_profile(1024, kHaswell, 1);
  const double model_dram = wp.total_dram_bytes();
  EXPECT_GT(model_dram, static_cast<double>(big.dram_bytes) / 3.0);
  EXPECT_LT(model_dram, static_cast<double>(big.dram_bytes) * 3.0);
}

TEST(LocalityTrace, CapsSerialMovesMoreLogicalBytesThanStrassen) {
  // 62 vs 54 words per element per level, plus identical base products.
  const auto caps = caps_locality(512, 64, 2, kHaswell);
  const auto strassen_r = strassen_locality(512, 64, kHaswell);
  EXPECT_GT(caps.logical_bytes, strassen_r.logical_bytes);
}

// The replays' exact access order, pinned: the simulation is integer
// arithmetic only, so these per-level {hits, misses} are the same on
// every platform, and any reordering of a replay's operand, product or
// combine steps moves them.
void expect_levels(const LocalityReport& r,
                   const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                       hits_misses) {
  ASSERT_EQ(r.levels.size(), hits_misses.size());
  for (std::size_t i = 0; i < hits_misses.size(); ++i) {
    EXPECT_EQ(r.levels[i].hits, hits_misses[i].first) << "level " << i;
    EXPECT_EQ(r.levels[i].misses(), hits_misses[i].second) << "level " << i;
  }
}

TEST(LocalityTrace, ReplayAccessOrderIsPinned) {
  expect_levels(strassen_locality(256, 64, kHaswell),
                {{877392u, 1043120u}, {833576u, 209544u}, {177288u, 32256u}});
  expect_levels(caps_locality(256, 64, 1, kHaswell),
                {{875672u, 1067368u}, {831336u, 236032u}, {166912u, 69120u}});
  expect_levels(caps_locality(256, 64, 2, kHaswell),
                {{1185408u, 797056u}, {484736u, 312320u}, {233984u, 78336u}});
}

TEST(LocalityTrace, L1MissRatioReflectsBlocking) {
  // The base multiply keeps B L1-resident per row sweep at cutoff 64
  // (32 KB); at cutoff 256 the B panel (512 KB) thrashes L1.
  const auto small_base = strassen_locality(512, 64, kHaswell);
  const auto big_base = strassen_locality(512, 256, kHaswell);
  EXPECT_LT(small_base.levels[0].miss_ratio(),
            big_base.levels[0].miss_ratio());
}

}  // namespace
}  // namespace capow::cachesim
