// Tests for the Strassen and CAPS simulator profiles: conservation of
// totals, DRAM classification behaviour, and the live-window mechanism.
#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "capow/capsalg/cost_model.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/scheme.hpp"

namespace capow::strassen {
namespace {

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

double profile_traffic(const sim::WorkProfile& wp) {
  double t = 0.0;
  for (const auto& ph : wp.phases) t += ph.dram_bytes + ph.cache_bytes;
  return t;
}

TEST(StrassenProfile, ConservesFlopsAndTraffic) {
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    for (unsigned t : {1u, 4u}) {
      const auto wp = strassen_profile(n, kHaswell, t);
      EXPECT_DOUBLE_EQ(wp.total_flops(), strassen_total_flops(n, {}))
          << n << "/" << t;
      EXPECT_DOUBLE_EQ(profile_traffic(wp),
                       strassen_total_traffic_bytes(n, {}))
          << n << "/" << t;
    }
  }
}

// The totals and the profile read the same runtime options, so they
// agree away from the defaults too: Winograd's programme, other cutoffs
// and odd n, whose border the recursion peels.
TEST(StrassenProfile, ConservesTotalsUnderRuntimeOptions) {
  for (const bool winograd : {false, true}) {
    for (const std::size_t cutoff : {32u, 64u, 128u}) {
      const StrassenOptions opts{.base_cutoff = cutoff, .winograd = winograd};
      for (const std::size_t n : {520u, 1024u, 1031u}) {
        for (const unsigned t : {1u, 4u}) {
          const auto wp = strassen_profile(n, kHaswell, t, opts);
          EXPECT_DOUBLE_EQ(wp.total_flops(), strassen_total_flops(n, opts))
              << winograd << "/" << cutoff << "/" << n << "/" << t;
          EXPECT_DOUBLE_EQ(profile_traffic(wp),
                           strassen_total_traffic_bytes(n, opts))
              << winograd << "/" << cutoff << "/" << n << "/" << t;
        }
      }
    }
  }
}

// Winograd's programme and the classic one run the same base products
// and differ only in block additions per level (15 against 18), so the
// addition flops of the two totals stand in that ratio.
TEST(StrassenProfile, WinogradTotalsScaleWithItsAdditionCount) {
  const auto additions = [](const scheme::Program& p) {
    return static_cast<double>(p.operand_additions() + p.combine_additions());
  };
  ASSERT_EQ(additions(scheme::kClassic), 18.0);
  ASSERT_EQ(additions(scheme::kWinograd), 15.0);
  for (const std::size_t n : {512u, 1024u, 2048u}) {
    const model::Geometry g = model::geometry(n, 64);
    ASSERT_EQ(g.p, 0u) << n;
    const double b = static_cast<double>(g.base_dim);
    const double base = model::pow7(g.levels) * 2.0 * b * b * b;
    const double classic = strassen_total_flops(n, {}) - base;
    const double wino = strassen_total_flops(n, {.winograd = true}) - base;
    EXPECT_DOUBLE_EQ(wino / classic,
                     additions(scheme::kWinograd) /
                         additions(scheme::kClassic))
        << n;
  }
}

TEST(StrassenProfile, PhaseStructure) {
  // n=512, cutoff 64: 3 levels => 3 operand phases + base + 3 combines.
  const auto wp = strassen_profile(512, kHaswell, 4);
  ASSERT_EQ(wp.phases.size(), 7u);
  EXPECT_EQ(wp.phases[0].label, "operands@L0");
  EXPECT_EQ(wp.phases[3].label, "base-products");
  EXPECT_EQ(wp.phases[6].label, "combine@L0");
}

// 500 peels to 496 = 62 * 2^3: the four border rows and columns cost
// 2(500^3 - 496^3) flops in one serial "border" phase.
TEST(StrassenProfile, BorderAddsBorderPhase) {
  const auto wp = strassen_profile(500, kHaswell, 1);
  ASSERT_FALSE(wp.phases.empty());
  EXPECT_EQ(wp.phases[0].label, "border");
  EXPECT_EQ(wp.phases[0].flops, 2.0 * (500.0 * 500 * 500 - 496.0 * 496 * 496));
  EXPECT_EQ(wp.phases[0].parallelism, 1u);
}

// On four threads the profile charges the task spawns and joins the
// runtime records (recursion_pin_test's pooled totals): seven spawns and
// one join per node above kTaskSpawnDepth, plus the border fan-out's
// three and one at n = 520 = 512 + 8.
TEST(StrassenProfile, TaskEventsMatchTheRuntime) {
  struct Case {
    std::size_t n;
    std::uint64_t spawns, syncs;
  };
  for (const Case& cse : {Case{520, 402, 58}, Case{1024, 399, 57}}) {
    std::uint64_t spawns = 0, syncs = 0;
    for (const sim::PhaseCost& ph : strassen_profile(cse.n, kHaswell, 4).phases) {
      spawns += ph.spawn_events;
      syncs += ph.sync_events;
    }
    EXPECT_EQ(spawns, cse.spawns) << "n=" << cse.n;
    EXPECT_EQ(syncs, cse.syncs) << "n=" << cse.n;
  }
}

// The model reads the cutoff the multiply reads: halving it adds a
// recursion level, so an operand and a combine phase, and the totals
// follow the same option.
TEST(StrassenProfile, ReadsTheCutoff) {
  for (const unsigned t : {1u, 4u}) {
    const auto def = strassen_profile(1024, kHaswell, t);
    const auto deep = strassen_profile(1024, kHaswell, t, {.base_cutoff = 32});
    EXPECT_EQ(deep.phases.size(), def.phases.size() + 2) << t;
    EXPECT_DOUBLE_EQ(deep.total_flops(),
                     strassen_total_flops(1024, {.base_cutoff = 32}))
        << t;
    EXPECT_NE(deep.total_flops(), def.total_flops()) << t;
  }
}

TEST(StrassenProfile, BaseCaseOnlyBelowCutoff) {
  const auto wp = strassen_profile(64, kHaswell, 4);
  ASSERT_EQ(wp.phases.size(), 1u);
  EXPECT_EQ(wp.phases[0].label, "base-gemm");
}

TEST(StrassenProfile, UntiedWindowMovesTrafficToDramUnderThreads) {
  // The live-window mechanism: multi-threaded untied-task execution
  // pushes mid-level addition traffic to DRAM that a serial traversal
  // keeps in cache.
  const auto serial = strassen_profile(4096, kHaswell, 1);
  const auto parallel = strassen_profile(4096, kHaswell, 4);
  EXPECT_GT(parallel.total_dram_bytes(), 1.5 * serial.total_dram_bytes());
}

TEST(StrassenProfile, SimulatedTimeShrinksWithThreadsSublinearly) {
  const auto t1 =
      sim::simulate(kHaswell, strassen_profile(2048, kHaswell, 1), 1);
  const auto t4 =
      sim::simulate(kHaswell, strassen_profile(2048, kHaswell, 4), 4);
  const double speedup = t1.seconds / t4.seconds;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LT(speedup, 3.6);  // memory-bound adds cap the scaling
}

TEST(StrassenProfile, WinogradProfileCheaper) {
  const auto c = strassen_profile(1024, kHaswell, 4);
  const auto w = strassen_profile(1024, kHaswell, 4, {.winograd = true});
  EXPECT_LT(profile_traffic(w), profile_traffic(c));
}

// A Winograd node forms S1, S2, T1 and T2, which several products read,
// before its products fan out, and S3, S4, T3 and T4 inside the product
// task that reads each: per level, the shared sums run at node
// concurrency and the private ones at seven times that. The classic
// program shares no operand sum, so it has no shared phase.
TEST(StrassenProfile, WinogradChargesSharedAndPrivateOperandsApart) {
  const scheme::Program& p = scheme::kWinograd;
  const std::size_t shared =
      p.count([&](std::size_t k) { return p.shared(k); });
  const std::size_t private_sums = p.operand_additions() - shared;
  ASSERT_EQ(shared, 4u);
  ASSERT_EQ(private_sums, 4u);

  const auto find = [](const sim::WorkProfile& wp, const std::string& label) {
    const auto it = std::find_if(
        wp.phases.begin(), wp.phases.end(),
        [&](const sim::PhaseCost& ph) { return ph.label == label; });
    return it == wp.phases.end() ? nullptr : &*it;
  };
  // n = 1024 at cutoff 64: four levels.
  const auto wp = strassen_profile(1024, kHaswell, 4, {.winograd = true});
  double nodes = 1.0;
  for (std::size_t l = 0; l < 4; ++l, nodes *= 7.0) {
    const double h = static_cast<double>(1024 >> (l + 1));
    const sim::PhaseCost* s =
        find(wp, "shared-operands@L" + std::to_string(l));
    const sim::PhaseCost* q = find(wp, "operands@L" + std::to_string(l));
    ASSERT_NE(s, nullptr) << "L" << l;
    ASSERT_NE(q, nullptr) << "L" << l;
    EXPECT_EQ(s->flops, nodes * static_cast<double>(shared) * h * h);
    EXPECT_EQ(q->flops, nodes * static_cast<double>(private_sums) * h * h);
    EXPECT_EQ(s->parallelism, std::min(nodes, 4.0)) << "L" << l;
    EXPECT_EQ(q->parallelism, std::min(nodes * 7.0, 4.0)) << "L" << l;
  }
  for (const sim::PhaseCost& ph : strassen_profile(1024, kHaswell, 4).phases) {
    EXPECT_EQ(ph.label.rfind("shared-", 0), std::string::npos) << ph.label;
  }
}

}  // namespace
}  // namespace capow::strassen

namespace capow::capsalg {
namespace {

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

double profile_traffic(const sim::WorkProfile& wp) {
  double t = 0.0;
  for (const auto& ph : wp.phases) t += ph.dram_bytes + ph.cache_bytes;
  return t;
}

TEST(CapsProfile, ConservesFlopsAndTraffic) {
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    for (unsigned t : {1u, 4u}) {
      const auto wp = caps_profile(n, kHaswell, t);
      EXPECT_DOUBLE_EQ(wp.total_flops(), caps_total_flops(n, {}))
          << n << "/" << t;
      EXPECT_DOUBLE_EQ(profile_traffic(wp),
                       caps_total_traffic_bytes(n, {}))
          << n << "/" << t;
    }
  }
}

// Away from the defaults the CAPS profile still sums to its totals:
// every base cutoff and BFS depth, including depths past the recursion.
TEST(CapsProfile, ConservesTotalsUnderRuntimeOptions) {
  for (const std::size_t cutoff : {32u, 64u, 128u}) {
    for (const std::size_t depth : {0u, 1u, 2u, 4u, 9u}) {
      const CapsOptions opts{.base_cutoff = cutoff, .bfs_cutoff_depth = depth};
      for (const std::size_t n : {520u, 1024u}) {
        for (const unsigned t : {1u, 4u}) {
          const auto wp = caps_profile(n, kHaswell, t, opts);
          EXPECT_DOUBLE_EQ(wp.total_flops(), caps_total_flops(n, opts))
              << cutoff << "/" << depth << "/" << n << "/" << t;
          EXPECT_DOUBLE_EQ(profile_traffic(wp),
                           caps_total_traffic_bytes(n, opts))
              << cutoff << "/" << depth << "/" << n << "/" << t;
        }
      }
    }
  }
}

// CAPS reads its base cutoff as well as its BFS depth: a smaller cutoff
// deepens the recursion, which shows in the profile and its totals.
TEST(CapsProfile, ReadsTheBaseCutoff) {
  for (const unsigned t : {1u, 4u}) {
    const auto def = caps_profile(1024, kHaswell, t);
    const auto deep = caps_profile(1024, kHaswell, t, {.base_cutoff = 32});
    EXPECT_GT(deep.phases.size(), def.phases.size()) << t;
    EXPECT_DOUBLE_EQ(deep.total_flops(),
                     caps_total_flops(1024, {.base_cutoff = 32}))
        << t;
    EXPECT_NE(deep.total_flops(), def.total_flops()) << t;
  }
}

TEST(CapsProfile, MovesLessDramTrafficThanUntiedStrassenWhenParallel) {
  // The communication-avoidance claim, in model terms.
  const auto caps = caps_profile(4096, kHaswell, 4);
  const auto strassen = strassen::strassen_profile(4096, kHaswell, 4);
  EXPECT_LT(caps.total_dram_bytes(), strassen.total_dram_bytes());
}

TEST(CapsProfile, SimulatedFasterThanStrassenAtFullThreads) {
  for (std::size_t n : {2048u, 4096u}) {
    const auto caps =
        sim::simulate(kHaswell, caps_profile(n, kHaswell, 4), 4);
    const auto strassen = sim::simulate(
        kHaswell, strassen::strassen_profile(n, kHaswell, 4), 4);
    EXPECT_LT(caps.seconds, strassen.seconds) << n;
  }
}

TEST(CapsProfile, MixedBfsDfsPhaseLabels) {
  // n=4096, cutoff 64 => 6 levels; bfs depth 4 => levels 0-3 BFS, 4-5 DFS.
  const auto wp = caps_profile(4096, kHaswell, 4);
  bool saw_bfs = false;
  bool saw_dfs = false;
  for (const auto& ph : wp.phases) {
    if (ph.label.rfind("bfs-", 0) == 0) saw_bfs = true;
    if (ph.label.rfind("dfs-", 0) == 0) saw_dfs = true;
  }
  EXPECT_TRUE(saw_bfs);
  EXPECT_TRUE(saw_dfs);
}

TEST(CapsProfile, PureDfsWhenCutoffZero) {
  CapsOptions opts;
  opts.bfs_cutoff_depth = 0;
  const auto wp = caps_profile(1024, kHaswell, 4, opts);
  for (const auto& ph : wp.phases) {
    EXPECT_EQ(ph.label.rfind("bfs-", 0), std::string::npos) << ph.label;
  }
}

TEST(CapsProfile, PeakBufferGrowsWithBfsDepth) {
  CapsOptions opts;
  double prev = 0.0;
  for (std::size_t d : {0u, 1u, 2u, 4u}) {
    opts.bfs_cutoff_depth = d;
    const double peak = caps_peak_buffer_bytes(2048, opts);
    EXPECT_GE(peak, prev);
    prev = peak;
  }
}

}  // namespace
}  // namespace capow::capsalg
