// Tests for the measured-mode harness: real executions projected on the
// machine model vs the analytic cost models.
#include <gtest/gtest.h>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/harness/measured.hpp"

namespace capow::harness {
namespace {

using core::AlgorithmId;

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

TEST(Measured, RejectsZeroDimension) {
  EXPECT_THROW(run_measured(AlgorithmId::kOpenBlas, 0, 1, kHaswell),
               std::invalid_argument);
}

class MeasuredAgreementTest
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, unsigned>> {};

TEST_P(MeasuredAgreementTest, MeasuredCountsAndProjectionAgree) {
  const auto [a, threads] = GetParam();
  const std::size_t n = 192;
  const MeasuredRecord r = run_measured(a, n, threads, kHaswell);

  EXPECT_TRUE(r.numerically_verified) << core::algorithm_name(a);
  EXPECT_GT(r.measured_flops, 0.0);
  EXPECT_GT(r.measured_bytes, 0.0);
  EXPECT_GT(r.projected.seconds, 0.0);
  EXPECT_GT(r.analytic.seconds, 0.0);

  // The measured profile's flop content equals the analytic model's
  // (same code path the count tests verify); the projected time agrees
  // within a modeling band. The measured profile treats all traffic as
  // DRAM-level and collapses phase structure, so allow a wide but
  // bounded envelope.
  EXPECT_GT(r.time_ratio(), 0.3) << core::algorithm_name(a);
  EXPECT_LT(r.time_ratio(), 4.0) << core::algorithm_name(a);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeasuredAgreementTest,
    ::testing::Combine(::testing::Values(AlgorithmId::kOpenBlas,
                                         AlgorithmId::kStrassen,
                                         AlgorithmId::kCaps),
                       ::testing::Values(1u, 2u)));

TEST(Measured, FlopCountsMatchAnalyticForGemm) {
  const MeasuredRecord r =
      run_measured(AlgorithmId::kOpenBlas, 128, 1, kHaswell);
  EXPECT_DOUBLE_EQ(r.measured_flops, blas::gemm_flops(128, 128, 128));
}

TEST(Measured, OrderingMatchesThePaperAtRealScale) {
  // Even at container scale, the measured-profile projections preserve
  // the paper's ordering: blocked DGEMM fastest, Strassen/CAPS slower.
  const std::size_t n = 256;
  const auto blas_r = run_measured(AlgorithmId::kOpenBlas, n, 2, kHaswell);
  const auto str_r = run_measured(AlgorithmId::kStrassen, n, 2, kHaswell);
  const auto caps_r = run_measured(AlgorithmId::kCaps, n, 2, kHaswell);
  EXPECT_LT(blas_r.projected.seconds, str_r.projected.seconds);
  EXPECT_LT(blas_r.projected.seconds, caps_r.projected.seconds);
}

// The analytic side of a measured record is the model matmul() publishes
// for the run: the matmul_profile of the same algorithm on the same
// machine, at the worker count the run used (serial counts as one).
TEST(Measured, AnalyticIsTheSimulatedMatmulProfile) {
  const std::size_t n = 128;
  for (const AlgorithmId a : core::kAllAlgorithms) {
    for (const unsigned threads : {0u, 2u}) {
      const MeasuredRecord r = run_measured(a, n, threads, kHaswell);
      const unsigned workers = threads == 0 ? 1 : threads;
      const sim::RunResult want = sim::simulate(
          kHaswell, matmul_profile(n, kHaswell, workers, {.algorithm = a}),
          workers);
      EXPECT_EQ(r.analytic.seconds, want.seconds) << core::algorithm_name(a);
      EXPECT_EQ(r.analytic.energy(machine::PowerPlane::kPackage),
                want.energy(machine::PowerPlane::kPackage))
          << core::algorithm_name(a);
    }
  }
}

}  // namespace
}  // namespace capow::harness
