// Tests for CAPS: correctness across BFS/DFS splits, traversal and
// buffer statistics, instrumentation vs closed forms, parallel
// determinism.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/trace/counters.hpp"
#include "footprint.hpp"

namespace capow::capsalg {
namespace {

using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

struct CapsCase {
  std::size_t n;
  std::size_t cutoff;
  std::size_t bfs_depth;
};

class CapsCorrectnessTest : public ::testing::TestWithParam<CapsCase> {};

TEST_P(CapsCorrectnessTest, MatchesReference) {
  const auto p = GetParam();
  Matrix a = random_matrix(p.n, p.n, p.n + 1);
  Matrix b = random_matrix(p.n, p.n, p.n + 2);
  Matrix expect(p.n, p.n), got(p.n, p.n, -7.0);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  CapsOptions opts;
  opts.base_cutoff = p.cutoff;
  opts.bfs_cutoff_depth = p.bfs_depth;
  multiply(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-10, 1e-10))
      << "n=" << p.n << " cutoff=" << p.cutoff << " bfs=" << p.bfs_depth;
}

// Namespace-scope constants, so each case prints the same bytes, and so
// names its test the same, in every build.
constexpr CapsCase kCorrectnessCases[] = {
    {1, 8, 4},     // base case directly
    {8, 8, 4},
    {16, 8, 4},    // one BFS level
    {16, 8, 0},    // pure DFS
    {64, 8, 0},    // deep pure DFS
    {64, 8, 1},    // BFS then DFS
    {64, 8, 2},
    {64, 8, 9},    // pure BFS
    {100, 16, 1},  // peeled to 96 plus a 4-wide border, mixed
    {128, 16, 2},
    {129, 32, 4},  // peeled to 128 plus a 1-wide border
    {256, 64, 4},
    {256, 32, 1}};

INSTANTIATE_TEST_SUITE_P(Sweep, CapsCorrectnessTest,
                         ::testing::ValuesIn(kCorrectnessCases));

TEST(Caps, ParallelMatchesSerialBitwise) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix serial(n, n), parallel(n, n);
  CapsOptions opts;
  opts.base_cutoff = 16;
  opts.bfs_cutoff_depth = 2;
  multiply(a.view(), b.view(), serial.view(), opts);
  tasking::ThreadPool pool(3);
  multiply(a.view(), b.view(), parallel.view(), opts, &pool);
  EXPECT_TRUE(allclose(parallel.view(), serial.view(), 0.0, 0.0));
}

TEST(Caps, NonSquareThrows) {
  Matrix a(4, 6), b(6, 4), c(4, 4);
  EXPECT_THROW(multiply(a.view(), b.view(), c.view()),
               std::invalid_argument);
}

TEST(Caps, ZeroCutoffThrows) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  CapsOptions opts;
  opts.base_cutoff = 0;
  EXPECT_THROW(multiply(a.view(), b.view(), c.view(), opts),
               std::invalid_argument);
}

TEST(Caps, EmptyIsNoop) {
  Matrix a, b, c;
  CapsStats stats;
  EXPECT_NO_THROW(multiply(a.view(), b.view(), c.view(), {}, nullptr,
                                &stats));
  EXPECT_EQ(stats.base_products, 0u);
}

// CAPS resolves base_kernel through Strassen's rule (the option, else
// CAPOW_KERNEL, else the BOTS loop): with any supported microkernel
// pinned, pure-DFS CAPS, whose steps are Strassen's classic step, runs
// Strassen's arithmetic bit for bit.
TEST(Caps, BaseKernelFollowsTheStrassenRule) {
  const std::size_t n = 256;
  const Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  for (const auto& kern : blas::kernel_registry()) {
    if (!kern.supported()) continue;
    EXPECT_EQ(strassen::resolve_base_kernel(kern.id), &kern) << kern.name;
    Matrix caps(n, n), str(n, n);
    multiply(a.view(), b.view(), caps.view(),
             {.base_cutoff = 32, .bfs_cutoff_depth = 0, .base_kernel = kern.id});
    strassen::multiply(a.view(), b.view(), str.view(),
                       {.base_cutoff = 32, .base_kernel = kern.id});
    EXPECT_EQ(std::memcmp(caps.data(), str.data(), n * n * sizeof(double)), 0)
        << kern.name;
  }
}

TEST(CapsStats, FlowThrough) {
  const std::size_t n = 64;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  CapsStats stats;
  multiply(a.view(), b.view(), c.view(),
           {.base_cutoff = 8, .bfs_cutoff_depth = 2}, nullptr, &stats);
  EXPECT_GT(stats.base_products, 0u);
  EXPECT_GT(stats.peak_buffer_bytes, 0u);
}

TEST(CapsStats, NodeCountsFollowAlgorithm2) {
  // n=256, cutoff 16 -> 4 levels; bfs_cutoff_depth=2: levels 0,1 BFS
  // (1 + 7 nodes), levels 2,3 DFS (49 + 343 nodes), 7^4 base products.
  Matrix a = random_matrix(256, 256, 1), b = random_matrix(256, 256, 2);
  Matrix c(256, 256);
  CapsOptions opts;
  opts.base_cutoff = 16;
  opts.bfs_cutoff_depth = 2;
  CapsStats stats;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &stats);
  EXPECT_EQ(stats.bfs_nodes, 1u + 7u);
  EXPECT_EQ(stats.dfs_nodes, 49u + 343u);
  EXPECT_EQ(stats.base_products, 2401u);
}

TEST(CapsStats, PureBfsAndPureDfs) {
  Matrix a = random_matrix(64, 64, 1), b = random_matrix(64, 64, 2);
  Matrix c(64, 64);
  CapsOptions opts;
  opts.base_cutoff = 8;  // 3 levels

  opts.bfs_cutoff_depth = 99;
  CapsStats bfs;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &bfs);
  EXPECT_EQ(bfs.bfs_nodes, 1u + 7u + 49u);
  EXPECT_EQ(bfs.dfs_nodes, 0u);

  opts.bfs_cutoff_depth = 0;
  CapsStats dfs;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &dfs);
  EXPECT_EQ(dfs.bfs_nodes, 0u);
  EXPECT_EQ(dfs.dfs_nodes, 1u + 7u + 49u);
}

TEST(CapsStats, SerialPeakBufferMatchesModelExactly) {
  for (const auto& cse :
       {CapsCase{128, 16, 1}, CapsCase{128, 16, 3}, CapsCase{256, 32, 2},
        CapsCase{64, 8, 0}}) {
    Matrix a = random_matrix(cse.n, cse.n, 1);
    Matrix b = random_matrix(cse.n, cse.n, 2);
    Matrix c(cse.n, cse.n);
    CapsOptions opts;
    opts.base_cutoff = cse.cutoff;
    opts.bfs_cutoff_depth = cse.bfs_depth;
    CapsStats stats;
    multiply(a.view(), b.view(), c.view(), opts, nullptr, &stats);
    EXPECT_EQ(static_cast<double>(stats.peak_buffer_bytes),
              caps_peak_buffer_bytes(cse.n, opts))
        << "n=" << cse.n << " bfs=" << cse.bfs_depth;
  }
}

TEST(CapsStats, BfsTradesMemoryForCommunication) {
  // The paper: "The BFS approach requires additional buffer memory".
  Matrix a = random_matrix(128, 128, 1), b = random_matrix(128, 128, 2);
  Matrix c(128, 128);
  CapsOptions opts;
  opts.base_cutoff = 16;

  opts.bfs_cutoff_depth = 99;
  CapsStats bfs;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &bfs);

  opts.bfs_cutoff_depth = 0;
  CapsStats dfs;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &dfs);

  EXPECT_GT(bfs.peak_buffer_bytes, 3 * dfs.peak_buffer_bytes);
}

// A BFS step reads its single-quadrant operands in place and keeps one
// product temporary, so the arena's high-water mark stays below the
// logical buffer peak CapsStats reports for the fully buffered BFS of
// the paper.
TEST(CapsStats, PhysicalPeakStaysBelowLogicalPeak) {
  if (strassen::resolve_base_kernel(std::nullopt) != nullptr) {
    GTEST_SKIP() << "a packed base kernel leases its own packing buffers";
  }
  const std::size_t n = 896;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  blas::WorkspaceArena arena;
  arena.reset_stats();
  CapsOptions opts;
  opts.arena = &arena;
  opts.abft.mode = abft::AbftMode::kOff;
  CapsStats stats;
  multiply(a.view(), b.view(), c.view(), opts, nullptr, &stats);
  EXPECT_LT(arena.stats().peak_outstanding_bytes, stats.peak_buffer_bytes);
}

// A serial unguarded BFS step runs the shared classic node, so the
// arena holds three h x h buffers per level, like a serial Strassen
// node, while CapsStats still charges the paper's fully buffered BFS.
// n = 641 recurses on its leading 640 block and leases nothing for the
// border.
TEST(CapsStats, SerialBfsFootprintIsThreeQuadrantsPerLevel) {
  if (strassen::resolve_base_kernel(std::nullopt) != nullptr) {
    GTEST_SKIP() << "a packed base kernel leases its own packing buffers";
  }
  for (const std::size_t n : {896u, 641u}) {
    Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
    Matrix c(n, n);
    blas::WorkspaceArena arena;
    arena.reset_stats();
    CapsOptions opts;
    opts.arena = &arena;
    opts.abft.mode = abft::AbftMode::kOff;
    CapsStats stats;
    multiply(a.view(), b.view(), c.view(), opts, nullptr, &stats);
    ASSERT_EQ(stats.dfs_nodes, 0u) << "every level should run BFS, n=" << n;

    EXPECT_LE(arena.stats().peak_outstanding_bytes,
              footprint::quadrants_per_level(
                  n, opts.base_cutoff,
                  strassen::scheme::kClassic.temporaries()))
        << "n=" << n;
    EXPECT_EQ(static_cast<double>(stats.peak_buffer_bytes),
              caps_peak_buffer_bytes(n, opts))
        << "n=" << n;
  }
}

// A guarded serial BFS step runs the same classic step as a guarded
// Strassen node, re-forming a product's operands on a retry instead of
// keeping fourteen private copies, so both lease the same arena peak.
TEST(CapsStats, GuardedSerialFootprintMatchesStrassen) {
  if (strassen::resolve_base_kernel(std::nullopt) != nullptr) {
    GTEST_SKIP() << "a packed base kernel leases its own packing buffers";
  }
  const std::size_t n = 896;
  const Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  abft::AbftConfig abft;
  abft.mode = abft::AbftMode::kCorrect;
  const auto peak = [&](bool caps) {
    Matrix c(n, n);
    blas::WorkspaceArena arena;
    arena.reset_stats();
    if (caps) {
      CapsOptions opts;
      opts.arena = &arena;
      opts.abft = abft;
      multiply(a.view(), b.view(), c.view(), opts);
    } else {
      strassen::StrassenOptions opts;
      opts.arena = &arena;
      opts.abft = abft;
      strassen::multiply(a.view(), b.view(), c.view(), opts);
    }
    return arena.stats().peak_outstanding_bytes;
  };
  EXPECT_EQ(peak(true), peak(false));
}

class CapsCountTest : public ::testing::TestWithParam<CapsCase> {};

TEST_P(CapsCountTest, InstrumentedCountsMatchClosedForm) {
  const auto p = GetParam();
  Matrix a = random_matrix(p.n, p.n, 1), b = random_matrix(p.n, p.n, 2);
  Matrix c(p.n, p.n);
  CapsOptions opts;
  opts.base_cutoff = p.cutoff;
  opts.bfs_cutoff_depth = p.bfs_depth;

  trace::Recorder rec;
  {
    trace::RecordingScope scope(rec);
    multiply(a.view(), b.view(), c.view(), opts);
  }
  EXPECT_EQ(static_cast<double>(rec.total().flops),
            caps_total_flops(p.n, opts));
  EXPECT_EQ(static_cast<double>(rec.total().dram_bytes()),
            caps_total_traffic_bytes(p.n, opts));
}

constexpr CapsCase kCountCases[] = {
    {32, 8, 4},   {32, 8, 0},   {64, 8, 1}, {100, 16, 2},
    {128, 32, 4}, {64, 64, 4},  {48, 8, 2}};

INSTANTIATE_TEST_SUITE_P(Sweep, CapsCountTest,
                         ::testing::ValuesIn(kCountCases));

// A DFS step runs the same classic step as a Strassen node, so serial
// pure-DFS CAPS counts exactly Strassen's flops and bytes, measured and
// modelled. n = 200 at cutoff 16 peels to 192 plus an 8-wide border.
TEST(Caps, PureDfsCountsWhatStrassenCounts) {
  for (const auto& cse : {CapsCase{256, 32, 0}, CapsCase{200, 16, 0}}) {
    Matrix a = random_matrix(cse.n, cse.n, 1);
    Matrix b = random_matrix(cse.n, cse.n, 2);
    Matrix c(cse.n, cse.n);
    const auto record = [&](bool caps) {
      trace::Recorder rec;
      trace::RecordingScope scope(rec);
      if (caps) {
        CapsOptions opts;
        opts.base_cutoff = cse.cutoff;
        opts.bfs_cutoff_depth = cse.bfs_depth;
        multiply(a.view(), b.view(), c.view(), opts);
      } else {
        strassen::StrassenOptions opts;
        opts.base_cutoff = cse.cutoff;
        strassen::multiply(a.view(), b.view(), c.view(), opts);
      }
      return rec.total();
    };
    const trace::CostCounters caps = record(true);
    const trace::CostCounters strassen = record(false);
    EXPECT_EQ(caps.flops, strassen.flops) << "n=" << cse.n;
    EXPECT_EQ(caps.dram_bytes(), strassen.dram_bytes()) << "n=" << cse.n;

    const CapsOptions cost{.base_cutoff = cse.cutoff,
                           .bfs_cutoff_depth = cse.bfs_depth};
    const strassen::StrassenOptions scost{.base_cutoff = cse.cutoff};
    EXPECT_EQ(caps_total_flops(cse.n, cost),
              strassen::strassen_total_flops(cse.n, scost))
        << "n=" << cse.n;
    EXPECT_EQ(caps_total_traffic_bytes(cse.n, cost),
              strassen::strassen_total_traffic_bytes(cse.n, scost))
        << "n=" << cse.n;
  }
}

TEST(Caps, MoreFlopsThanStrassenButSameProducts) {
  // CAPS pays extra O(n^2) work (operand copies / DFS accumulation) for
  // its communication structure; the 7^L multiplication count is
  // identical.
  const double caps = caps_total_flops(
      256, CapsOptions{.base_cutoff = 32, .bfs_cutoff_depth = 4});
  const double classical_products = 2.0 * 32 * 32 * 32 * 343;  // 7^3 bases
  EXPECT_GT(caps, classical_products);
}

// A pure-DFS run guards its top-level products like a BFS run: a flipped
// product is recomputed alone, and C comes out bit-identical to the
// fault-free run. n = 128 is one guarded level at the default cutoff.
TEST(GuardedFanOut, PureDfsRecomputesAFlippedProduct) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 41), b = random_matrix(n, n, 42);
  CapsOptions opts;
  opts.bfs_cutoff_depth = 0;
  opts.abft.mode = abft::AbftMode::kCorrect;
  Matrix expect(n, n), got(n, n);
  multiply(a.view(), b.view(), expect.view(), opts);

  fault::FaultPlan plan;
  plan.mem_flip = plan.compute_flip = 1e-5;
  plan.seed = 4;
  fault::FaultInjector inj(plan);
  const abft::AbftCounters before = abft::counters();
  {
    fault::FaultScope scope(inj);
    CapsStats stats;
    multiply(a.view(), b.view(), got.view(), opts, nullptr, &stats);
    ASSERT_EQ(stats.bfs_nodes, 0u);
  }
  const abft::AbftCounters after = abft::counters();
  ASSERT_GT(inj.count(fault::Event::kComputeFlip), 0u);
  EXPECT_GT(after.recomputed, before.recomputed);
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), n * n * sizeof(double)),
            0);
}

// A guarded Winograd node lets compute.flip strike the operands a retry
// can re-form from the parent quadrants (P7's S3 and T3), serially and on
// a pool: the flipped product is recomputed alone, and C comes out
// bit-identical to the fault-free run. n = 128 is one guarded level at
// the default cutoff.
TEST(GuardedFanOut, WinogradRecomputesAFlippedOperand) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 41), b = random_matrix(n, n, 42);
  strassen::StrassenOptions opts;
  opts.winograd = true;
  opts.abft.mode = abft::AbftMode::kCorrect;
  Matrix expect(n, n);
  strassen::multiply(a.view(), b.view(), expect.view(), opts);

  tasking::ThreadPool pool(3);
  for (tasking::ThreadPool* p : {static_cast<tasking::ThreadPool*>(nullptr),
                                 &pool}) {
    fault::FaultPlan plan;
    plan.mem_flip = plan.compute_flip = 1e-5;
    plan.seed = 1;
    fault::FaultInjector inj(plan);
    const abft::AbftCounters before = abft::counters();
    Matrix got(n, n);
    {
      fault::FaultScope scope(inj);
      strassen::multiply(a.view(), b.view(), got.view(), opts, p);
    }
    const abft::AbftCounters after = abft::counters();
    const char* where = p == nullptr ? "serial" : "pool=3";
    ASSERT_GT(inj.count(fault::Event::kComputeFlip), 0u) << where;
    EXPECT_GT(after.recomputed, before.recomputed) << where;
    EXPECT_EQ(
        std::memcmp(got.data(), expect.data(), n * n * sizeof(double)), 0)
        << where;
  }
}

// On a pool, a guarded fan-out whose products exhaust their retries
// throws for the product its serial run meets first, not for whichever
// failed first in wall time. Every flip is keyed by (site, salt, product,
// attempt), so which products fail is a function of the plan, and a
// node on a pool spawns its products in its program's store order, the
// order its serial node runs them in. So each algorithm's serial run is
// the reference for its pool runs. n = 128 is one guarded level at the
// default cutoff.
TEST(GuardedFanOut, PoolFailureNamesTheSameProductOnEveryRun) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 31), b = random_matrix(n, n, 32);
  tasking::ThreadPool pool(3);
  enum Algorithm { kCaps, kStrassen, kWinograd };
  // The AbftError text of one run, or "" if it succeeded.
  const auto failure = [&](Algorithm algorithm, tasking::ThreadPool* p,
                           std::uint64_t seed) -> std::string {
    fault::FaultPlan plan;
    plan.mem_flip = plan.compute_flip = 1e-3;
    plan.seed = seed;
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    abft::AbftConfig abft;
    abft.mode = abft::AbftMode::kCorrect;
    Matrix c(n, n);
    try {
      if (algorithm == kCaps) {
        CapsOptions opts;
        opts.abft = abft;
        multiply(a.view(), b.view(), c.view(), opts, p);
      } else {
        strassen::StrassenOptions opts;
        opts.abft = abft;
        opts.winograd = algorithm == kWinograd;
        strassen::multiply(a.view(), b.view(), c.view(), opts, p);
      }
    } catch (const abft::AbftError& e) {
      return e.what();
    }
    return "";
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const Algorithm algorithm : {kCaps, kStrassen, kWinograd}) {
      const std::string serial = failure(algorithm, nullptr, seed);
      ASSERT_FALSE(serial.empty()) << "seed " << seed << " " << algorithm;
      for (int rep = 0; rep < 10; ++rep) {
        EXPECT_EQ(failure(algorithm, &pool, seed), serial)
            << "seed " << seed << " " << algorithm;
      }
    }
  }
}

}  // namespace
}  // namespace capow::capsalg
