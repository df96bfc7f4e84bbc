// Tests for the roofline-with-contention execution model.
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"
#include "capow/sim/executor.hpp"
#include "capow/tasking/parallel_for.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::sim {
namespace {

using machine::MachineSpec;
using machine::PowerPlane;

MachineSpec haswell() { return machine::haswell_e3_1225(); }

WorkProfile compute_profile(double flops, unsigned parallelism = 4,
                            double efficiency = 1.0) {
  WorkProfile wp;
  wp.name = "compute";
  wp.add(PhaseCost{.label = "c",
                   .flops = flops,
                   .parallelism = parallelism,
                   .efficiency = efficiency});
  return wp;
}

WorkProfile memory_profile(double bytes) {
  WorkProfile wp;
  wp.name = "memory";
  wp.add(PhaseCost{.label = "m",
                   .flops = 1.0,  // negligible compute
                   .dram_bytes = bytes,
                   .parallelism = 4,
                   .efficiency = 1.0});
  return wp;
}

TEST(WorkProfile, Totals) {
  WorkProfile wp;
  wp.add(PhaseCost{.label = "a", .flops = 10, .dram_bytes = 5,
                   .sync_events = 1})
      .add(PhaseCost{.label = "b", .flops = 3, .dram_bytes = 2,
                     .sync_events = 2});
  EXPECT_DOUBLE_EQ(wp.total_flops(), 13.0);
  EXPECT_DOUBLE_EQ(wp.total_dram_bytes(), 7.0);
  EXPECT_EQ(wp.total_syncs(), 3u);
}

TEST(Simulate, ComputeBoundTimeMatchesHandCalc) {
  const MachineSpec m = haswell();
  // 51.2e9 flops on one core at efficiency 1 = exactly 1 second.
  const RunResult r = simulate(m, compute_profile(51.2e9, 1), 1);
  EXPECT_NEAR(r.seconds, 1.0, 1e-12);
  EXPECT_NEAR(r.phases[0].utilization, 1.0, 1e-12);
  EXPECT_EQ(r.phases[0].active_cores, 1u);
}

TEST(Simulate, ParallelismShrinksComputeTime) {
  const MachineSpec m = haswell();
  const RunResult r1 = simulate(m, compute_profile(204.8e9, 4), 1);
  const RunResult r4 = simulate(m, compute_profile(204.8e9, 4), 4);
  EXPECT_NEAR(r1.seconds / r4.seconds, 4.0, 1e-9);
}

TEST(Simulate, ThreadsCappedByPhaseParallelism) {
  const MachineSpec m = haswell();
  const RunResult r = simulate(m, compute_profile(51.2e9, 2), 4);
  EXPECT_EQ(r.phases[0].active_cores, 2u);
}

TEST(Simulate, MemoryBoundTimeMatchesBandwidth) {
  const MachineSpec m = haswell();
  const RunResult r = simulate(m, memory_profile(10.3e9), 4);
  EXPECT_NEAR(r.seconds, 1.0, 1e-6);
  EXPECT_LT(r.phases[0].utilization, 0.01);
}

TEST(Simulate, MemoryTimeDoesNotScaleWithThreads) {
  // Bandwidth is shared: adding workers cannot shrink a DRAM-bound phase.
  const MachineSpec m = haswell();
  const RunResult r1 = simulate(m, memory_profile(20.6e9), 1);
  const RunResult r4 = simulate(m, memory_profile(20.6e9), 4);
  EXPECT_NEAR(r1.seconds, r4.seconds, 1e-9);
}

TEST(Simulate, EnergyEqualsPowerTimesTime) {
  const MachineSpec m = haswell();
  const RunResult r = simulate(m, compute_profile(1e11, 4), 3);
  for (std::size_t p = 0; p < machine::kPowerPlaneCount; ++p) {
    double phase_sum = 0.0;
    for (const auto& ph : r.phases) phase_sum += ph.energy_j[p];
    EXPECT_NEAR(r.energy_j[p], phase_sum, 1e-9);
  }
  EXPECT_NEAR(r.energy(PowerPlane::kPackage),
              r.avg_power_w(PowerPlane::kPackage) * r.seconds, 1e-9);
}

TEST(Simulate, PackageDominatesPp0DominatesNothingNegative) {
  const MachineSpec m = haswell();
  const RunResult r = simulate(m, memory_profile(5e9), 2);
  EXPECT_GT(r.energy(PowerPlane::kPackage), r.energy(PowerPlane::kPP0));
  EXPECT_GE(r.energy(PowerPlane::kDram), 0.0);
}

TEST(Simulate, ComputeBoundPowerMatchesCalibration) {
  // Full-efficiency, fully-parallel compute: package power is
  // statics + idle + p * (busy + fma) + zero memory power.
  const MachineSpec m = haswell();
  const RunResult r = simulate(m, compute_profile(2.048e11, 4, 1.0), 4);
  const double expected_pp0 =
      m.power.pp0_static_w + 4.0 * (m.core.busy_power_w + m.core.fma_power_w);
  EXPECT_NEAR(r.avg_power_w(PowerPlane::kPP0), expected_pp0, 1e-6);
  EXPECT_NEAR(r.avg_power_w(PowerPlane::kPackage),
              expected_pp0 + m.power.uncore_static_w, 1e-6);
}

TEST(Simulate, IdleCoresDrawIdleFloor) {
  const MachineSpec m = haswell();
  const RunResult r1 = simulate(m, compute_profile(51.2e9, 1, 1.0), 1);
  const double expected_pp0 = m.power.pp0_static_w +
                              (m.core.busy_power_w + m.core.fma_power_w) +
                              3.0 * m.core.idle_power_w;
  EXPECT_NEAR(r1.avg_power_w(PowerPlane::kPP0), expected_pp0, 1e-6);
}

TEST(Simulate, LowerEfficiencyKernelDrawsLessPower) {
  const MachineSpec m = haswell();
  const RunResult hi = simulate(m, compute_profile(1e11, 4, 0.9), 4);
  const RunResult lo = simulate(m, compute_profile(1e11, 4, 0.1), 4);
  EXPECT_GT(hi.avg_power_w(PowerPlane::kPP0),
            lo.avg_power_w(PowerPlane::kPP0));
  // ... while the low-efficiency kernel takes longer and burns more total
  // core-plane energy.
  EXPECT_GT(lo.seconds, hi.seconds);
}

TEST(Simulate, OverheadsAddTime) {
  const MachineSpec m = haswell();
  WorkProfile wp;
  wp.add(PhaseCost{.label = "o",
                   .flops = 1.0,
                   .parallelism = 1,
                   .efficiency = 1.0,
                   .sync_events = 1000,
                   .spawn_events = 1000});
  const RunResult r = simulate(m, wp, 1);
  EXPECT_NEAR(r.seconds,
              1000.0 * m.sync_overhead_s + 1000.0 * m.task_spawn_overhead_s,
              1e-6);
}

TEST(Simulate, DepositsIntoMsr) {
  const MachineSpec m = haswell();
  rapl::SimulatedMsrDevice msr;
  const RunResult r = simulate(m, compute_profile(1e11), 4, &msr);
  EXPECT_NEAR(msr.total_joules(PowerPlane::kPackage),
              r.energy(PowerPlane::kPackage), 1e-6);
  EXPECT_NEAR(msr.total_joules(PowerPlane::kPP0),
              r.energy(PowerPlane::kPP0), 1e-6);
}

TEST(Simulate, ImbalanceStretchesComputeTime) {
  const MachineSpec m = haswell();
  WorkProfile wp;
  wp.add(PhaseCost{.label = "i",
                   .flops = 204.8e9,
                   .parallelism = 4,
                   .efficiency = 1.0,
                   .imbalance = 2.0});
  const RunResult r = simulate(m, wp, 4);
  EXPECT_NEAR(r.seconds, 2.0, 1e-9);
}

// Validation failures, parameterized. Each case prints as its name, so
// the test names do not depend on where the mutators are loaded.
struct BadPhase {
  const char* name;
  void (*mutate)(PhaseCost&);
};

void PrintTo(const BadPhase& c, std::ostream* os) { *os << c.name; }

class SimulateValidationTest : public ::testing::TestWithParam<BadPhase> {};

TEST_P(SimulateValidationTest, RejectsBadPhase) {
  PhaseCost ph{.label = "bad", .flops = 1.0, .parallelism = 1,
               .efficiency = 1.0};
  GetParam().mutate(ph);
  WorkProfile wp;
  wp.add(ph);
  EXPECT_THROW(simulate(haswell(), wp, 1), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulateValidationTest,
    ::testing::Values(
        BadPhase{"negative_flops", [](PhaseCost& p) { p.flops = -1.0; }},
        BadPhase{"negative_dram_bytes",
                 [](PhaseCost& p) { p.dram_bytes = -1.0; }},
        BadPhase{"negative_cache_bytes",
                 [](PhaseCost& p) { p.cache_bytes = -1.0; }},
        BadPhase{"zero_efficiency",
                 [](PhaseCost& p) { p.efficiency = 0.0; }},
        BadPhase{"efficiency_above_one",
                 [](PhaseCost& p) { p.efficiency = 1.5; }},
        BadPhase{"imbalance_below_one",
                 [](PhaseCost& p) { p.imbalance = 0.9; }},
        BadPhase{"zero_parallelism",
                 [](PhaseCost& p) { p.parallelism = 0; }}));

TEST(Simulate, ZeroThreadsThrows) {
  EXPECT_THROW(simulate(haswell(), compute_profile(1.0), 0),
               std::invalid_argument);
}

TEST(SimulateIdle, DepositsStaticPowerOnly) {
  const MachineSpec m = haswell();
  rapl::SimulatedMsrDevice msr;
  simulate_idle(m, 60.0, msr);
  EXPECT_NEAR(msr.total_joules(PowerPlane::kPP0),
              m.power.pp0_static_w * 60.0, 1e-6);
  EXPECT_NEAR(msr.total_joules(PowerPlane::kPackage),
              (m.power.pp0_static_w + m.power.uncore_static_w) * 60.0,
              1e-6);
  EXPECT_THROW(simulate_idle(m, -1.0, msr), std::invalid_argument);
}

TEST(Sampling, SamplesIntegrateToRunEnergy) {
  const MachineSpec m = haswell();
  RunResult agg;
  const auto samples =
      simulate_with_sampling(m, compute_profile(2.048e10, 4), 2, 1e-3, &agg);
  ASSERT_FALSE(samples.empty());
  // Power samples during a single homogeneous phase are constant and
  // equal to the aggregate average (within MSR count resolution).
  EXPECT_NEAR(samples.front().package_w,
              agg.avg_power_w(PowerPlane::kPackage), 0.5);
  EXPECT_NEAR(samples.back().t_seconds, agg.seconds, 1e-9);
  EXPECT_THROW(simulate_with_sampling(m, compute_profile(1.0), 1, 0.0),
               std::invalid_argument);
}

TEST(Sampling, MultiPhasePowerSteps) {
  const MachineSpec m = haswell();
  WorkProfile wp;
  wp.add(PhaseCost{.label = "hot", .flops = 2.048e10, .parallelism = 4,
                   .efficiency = 1.0});
  wp.add(PhaseCost{.label = "cold", .flops = 1.0, .dram_bytes = 1.03e9,
                   .parallelism = 4, .efficiency = 1.0});
  RunResult agg;
  const auto samples = simulate_with_sampling(m, wp, 4, 1e-3, &agg);
  ASSERT_GE(samples.size(), 4u);
  // First phase draws far more power than the second.
  EXPECT_GT(samples.front().package_w, samples.back().package_w + 10.0);
}

TEST(ProfileFromRecorder, SequentialAndParallelSplit) {
  trace::Recorder rec;
  {
    tasking::ThreadPool pool(2);
    trace::RecordingScope scope(rec);
    trace::count_flops(100);  // slot 0 (this thread)
    trace::count_dram_read(800);
    tasking::parallel_for_each(pool, 0, 10, [&](std::size_t) {
      trace::count_flops(50);
      trace::count_dram_write(80);
    });
  }
  const WorkProfile wp = profile_from_recorder(rec, "measured", 0.5);
  // The helping scheduler may run some chunks on the main thread, so the
  // sequential/parallel split can vary — the totals cannot.
  ASSERT_GE(wp.phases.size(), 1u);
  ASSERT_LE(wp.phases.size(), 2u);
  EXPECT_EQ(wp.phases[0].label, "sequential");
  EXPECT_DOUBLE_EQ(wp.total_flops(), 600.0);
  EXPECT_DOUBLE_EQ(wp.total_dram_bytes(), 1600.0);
  for (const auto& ph : wp.phases) {
    EXPECT_GE(ph.imbalance, 1.0);
    EXPECT_DOUBLE_EQ(ph.efficiency, 0.5);
  }
}

TEST(ProfileFromRecorder, EmptyRecorderYieldsEmptyProfile) {
  trace::Recorder rec;
  const WorkProfile wp = profile_from_recorder(rec, "empty", 0.5);
  EXPECT_TRUE(wp.phases.empty());
}

}  // namespace
}  // namespace capow::sim
