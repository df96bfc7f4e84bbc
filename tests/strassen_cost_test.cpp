// Tests for the Strassen and CAPS simulator profiles: conservation of
// totals, DRAM classification behaviour, and the live-window mechanism.
#include <cstdint>

#include <gtest/gtest.h>

#include "capow/capsalg/cost_model.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/cost_model.hpp"

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
      StrassenCostOptions cost;
      EXPECT_DOUBLE_EQ(wp.total_flops(), strassen_total_flops(n, cost))
          << n << "/" << t;
      EXPECT_DOUBLE_EQ(profile_traffic(wp),
                       strassen_total_traffic_bytes(n, cost))
          << n << "/" << t;
    }
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

TEST(StrassenProfile, PinnedSchedulingMovesLessTraffic) {
  StrassenCostOptions untied;
  StrassenCostOptions pinned;
  pinned.untied_task_interleaving = false;
  const auto u = strassen_profile(4096, kHaswell, 4, untied);
  const auto p = strassen_profile(4096, kHaswell, 4, pinned);
  EXPECT_GT(u.total_dram_bytes(), p.total_dram_bytes());
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
  StrassenCostOptions classic;
  StrassenCostOptions wino;
  wino.winograd = true;
  const auto c = strassen_profile(1024, kHaswell, 4, classic);
  const auto w = strassen_profile(1024, kHaswell, 4, wino);
  EXPECT_LT(profile_traffic(w), profile_traffic(c));
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
      CapsCostOptions cost;
      EXPECT_DOUBLE_EQ(wp.total_flops(), caps_total_flops(n, cost))
          << n << "/" << t;
      EXPECT_DOUBLE_EQ(profile_traffic(wp),
                       caps_total_traffic_bytes(n, cost))
          << n << "/" << t;
    }
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
  CapsCostOptions opts;
  opts.bfs_cutoff_depth = 0;
  const auto wp = caps_profile(1024, kHaswell, 4, opts);
  for (const auto& ph : wp.phases) {
    EXPECT_EQ(ph.label.rfind("bfs-", 0), std::string::npos) << ph.label;
  }
}

TEST(CapsProfile, PeakBufferGrowsWithBfsDepth) {
  CapsCostOptions opts;
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
