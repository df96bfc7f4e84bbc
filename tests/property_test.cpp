// Cross-module property tests: invariants that must hold over swept
// parameter grids rather than single hand-picked points.
#include <cmath>

#include <gtest/gtest.h>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/machine/dvfs.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow {
namespace {

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

// ---- Simulator invariants over (algorithm profile, n, threads) grids.

struct SimCase {
  std::size_t n;
  unsigned threads;
};

class SimulatorInvariants : public ::testing::TestWithParam<SimCase> {
 protected:
  static std::vector<sim::WorkProfile> profiles(std::size_t n,
                                                unsigned threads) {
    return {blas::blocked_gemm_profile(n, kHaswell, threads),
            strassen::strassen_profile(n, kHaswell, threads),
            capsalg::caps_profile(n, kHaswell, threads)};
  }
};

TEST_P(SimulatorInvariants, EnergyEqualsIntegralOfPower) {
  const auto [n, threads] = GetParam();
  for (const auto& wp : profiles(n, threads)) {
    const auto run = sim::simulate(kHaswell, wp, threads);
    for (std::size_t pl = 0; pl < machine::kPowerPlaneCount; ++pl) {
      double sum = 0.0;
      for (const auto& ph : run.phases) {
        sum += ph.power_w[pl] * ph.seconds;
      }
      EXPECT_NEAR(run.energy_j[pl], sum, 1e-9 * (1.0 + sum)) << wp.name;
    }
  }
}

TEST_P(SimulatorInvariants, PlaneHierarchyHolds) {
  const auto [n, threads] = GetParam();
  for (const auto& wp : profiles(n, threads)) {
    const auto run = sim::simulate(kHaswell, wp, threads);
    for (const auto& ph : run.phases) {
      const auto pkg = static_cast<int>(machine::PowerPlane::kPackage);
      const auto pp0 = static_cast<int>(machine::PowerPlane::kPP0);
      EXPECT_GE(ph.power_w[pkg],
                ph.power_w[pp0] + kHaswell.power.uncore_static_w - 1e-9)
          << wp.name << "/" << ph.label;
      EXPECT_GE(ph.power_w[pp0], kHaswell.power.pp0_static_w - 1e-9);
      EXPECT_LE(ph.utilization, 1.0 + 1e-12);
      EXPECT_GE(ph.utilization, 0.0);
    }
  }
}

TEST_P(SimulatorInvariants, MoreThreadsNeverSlower) {
  const auto [n, threads] = GetParam();
  if (threads >= 4) return;
  // Weak monotonicity: adding workers must not increase modeled time.
  const auto at = [&](unsigned t) {
    double total = 0.0;
    for (const auto& wp : profiles(n, t)) {
      total += sim::simulate(kHaswell, wp, t).seconds;
    }
    return total;
  };
  EXPECT_LE(at(threads + 1), at(threads) * 1.0001);
}

// A namespace-scope constant has its padding zero-filled, so each case
// prints the same bytes, and so names its test the same, in every build.
constexpr SimCase kSimCases[] = {
    {512, 1},  {512, 2},  {512, 4},  {1024, 1}, {1024, 3},
    {2048, 2}, {2048, 4}, {4096, 1}, {4096, 4}, {8192, 4}};

INSTANTIATE_TEST_SUITE_P(Grid, SimulatorInvariants,
                         ::testing::ValuesIn(kSimCases));

// ---- EP model algebra over random inputs.

TEST(EpAlgebra, ScalingOfBaseIsAlwaysOne) {
  linalg::Xoshiro256 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<unsigned, double>> samples;
    for (unsigned p = 1; p <= 8; ++p) {
      samples.emplace_back(p, rng.uniform(0.1, 100.0));
    }
    const auto series = core::scaling_series(samples);
    EXPECT_DOUBLE_EQ(series.front().s, 1.0);
    // S is EP normalized: S_p * EP_1 == EP_p.
    for (const auto& pt : series) {
      EXPECT_NEAR(pt.s * series.front().ep, pt.ep,
                  1e-12 * (1.0 + pt.ep));
    }
  }
}

TEST(EpAlgebra, Eq2DominatedByCriticalUnit) {
  // Adding a parallel unit that is neither the power nor the time
  // maximum never changes EP_t.
  linalg::Xoshiro256 rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    core::MixedMeasurement m;
    m.sequential = core::UnitMeasurement{{rng.uniform(1.0, 10.0)},
                                         rng.uniform(0.1, 2.0)};
    m.parallel_units.push_back(
        core::UnitMeasurement{{50.0}, 10.0});  // dominates both axes
    const double base = core::energy_performance_total(m);
    m.parallel_units.push_back(
        core::UnitMeasurement{{rng.uniform(0.0, 49.0)},
                              rng.uniform(0.01, 9.9)});
    EXPECT_DOUBLE_EQ(core::energy_performance_total(m), base);
  }
}

TEST(EpAlgebra, EpScalesLinearlyInPower) {
  linalg::Xoshiro256 rng(29);
  for (int trial = 0; trial < 100; ++trial) {
    const double w = rng.uniform(1.0, 100.0);
    const double t = rng.uniform(0.01, 10.0);
    const double k = rng.uniform(0.1, 5.0);
    EXPECT_NEAR(core::energy_performance(k * w, t),
                k * core::energy_performance(w, t), 1e-9);
  }
}

// ---- Algorithm algebra: distributivity through the fast multipliers.

TEST(AlgorithmAlgebra, StrassenDistributesOverAddition) {
  // (A + B) * C == A*C + B*C, computed entirely via Strassen.
  const std::size_t n = 96;
  const auto a = linalg::random_square(n, 1);
  const auto b = linalg::random_square(n, 2);
  const auto c = linalg::random_square(n, 3);
  strassen::StrassenOptions opts;
  opts.base_cutoff = 16;

  linalg::Matrix sum(n, n);
  linalg::add(a.view(), b.view(), sum.view());
  linalg::Matrix lhs(n, n);
  strassen::multiply(sum.view(), c.view(), lhs.view(), opts);

  linalg::Matrix ac(n, n), bc(n, n), rhs(n, n);
  strassen::multiply(a.view(), c.view(), ac.view(), opts);
  strassen::multiply(b.view(), c.view(), bc.view(), opts);
  linalg::add(ac.view(), bc.view(), rhs.view());

  EXPECT_TRUE(linalg::allclose(lhs.view(), rhs.view(), 1e-9, 1e-9));
}

TEST(AlgorithmAlgebra, IdentityIsNeutralForAllCutoffs) {
  const std::size_t n = 64;
  const auto a = linalg::random_square(n, 5);
  const auto id = linalg::Matrix::identity(n);
  for (std::size_t cutoff : {8u, 16u, 32u}) {
    strassen::StrassenOptions opts;
    opts.base_cutoff = cutoff;
    linalg::Matrix out(n, n);
    strassen::multiply(a.view(), id.view(), out.view(), opts);
    EXPECT_TRUE(linalg::allclose(out.view(), a.view(), 1e-10, 1e-10))
        << cutoff;
  }
}

// ---- Cost-model conservation across option grids.

TEST(CostConservation, StrassenFlopsDecreaseWithDepth) {
  // More recursion levels always trade multiplications for additions:
  // total flops strictly decrease with smaller cutoffs at large n.
  strassen::StrassenOptions opts;
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t cutoff : {1024u, 512u, 256u, 128u, 64u}) {
    opts.base_cutoff = cutoff;
    const double flops = strassen::strassen_total_flops(8192, opts);
    EXPECT_LT(flops, prev) << cutoff;
    prev = flops;
  }
}

TEST(CostConservation, CapsTrafficMonotoneInProblemSize) {
  const capsalg::CapsOptions opts;
  double prev = 0.0;
  for (std::size_t n : {256u, 512u, 1024u, 2048u, 4096u}) {
    const double t = capsalg::caps_total_traffic_bytes(n, opts);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// ---- DVFS continuity: EP under a frequency sweep is smooth and the
// time/power trade is monotone.

TEST(DvfsSweep, MonotoneTradeAcrossPStates) {
  const auto wp = blas::blocked_gemm_profile(2048, kHaswell, 4);
  double prev_time = 0.0;
  double prev_power = 1e9;
  for (int i = 40; i <= 120; i += 10) {
    const double s = i / 100.0;
    const auto m = machine::scale_frequency(kHaswell, s);
    const auto run = sim::simulate(m, blas::blocked_gemm_profile(2048, m, 4), 4);
    EXPECT_LT(run.seconds, prev_time == 0.0 ? 1e18 : prev_time * 1.0001)
        << s;  // faster clock, shorter time (weakly)
    (void)prev_power;
    prev_time = run.seconds;
  }
}

}  // namespace
}  // namespace capow
