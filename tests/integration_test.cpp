// Integration tests: real instrumented executions of all three
// algorithms flow through the measured-profile path into the simulator
// and the EP model — the full pipeline the paper's methodology implies,
// at sizes small enough to execute for real.
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/rapl/papi.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/trace/counters.hpp"

namespace capow {
namespace {

using linalg::Matrix;
using linalg::random_matrix;

// Runs one real multiply under instrumentation and returns the recorder
// (heap-allocated: Recorder is large and intentionally non-movable).
template <typename Fn>
std::unique_ptr<trace::Recorder> instrumented(Fn&& fn) {
  auto rec = std::make_unique<trace::Recorder>();
  trace::RecordingScope scope(*rec);
  fn();
  return rec;
}

TEST(Integration, AllThreeAlgorithmsAgreeNumerically) {
  const std::size_t n = 192;
  Matrix a = random_matrix(n, n, 100), b = random_matrix(n, n, 101);
  Matrix c_blas(n, n), c_str(n, n), c_caps(n, n);
  matmul(a.view(), b.view(), c_blas.view());
  strassen::multiply(a.view(), b.view(), c_str.view(), {.base_cutoff = 32});
  capsalg::multiply(a.view(), b.view(), c_caps.view(),
                    {.base_cutoff = 32, .bfs_cutoff_depth = 1});
  EXPECT_TRUE(linalg::allclose(c_str.view(), c_blas.view(), 1e-9, 1e-9));
  EXPECT_TRUE(linalg::allclose(c_caps.view(), c_blas.view(), 1e-9, 1e-9));
}

TEST(Integration, MeasuredProfileThroughSimulatorGivesFiniteRun) {
  const std::size_t n = 128;
  const auto m = machine::haswell_e3_1225();
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  tasking::ThreadPool pool(2);
  const auto rec = instrumented([&] {
    strassen::multiply(a.view(), b.view(), c.view(), {.base_cutoff = 32},
                       &pool);
  });
  const auto profile = sim::profile_from_recorder(
      *rec, "measured-strassen", strassen::kBotsBaseKernelEfficiency);
  const auto run = sim::simulate(m, profile, 2);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GT(run.avg_power_w(machine::PowerPlane::kPackage), 0.0);
  EXPECT_LT(run.avg_power_w(machine::PowerPlane::kPackage), 120.0);
}

// --- measured mode: real matmul() runs projected on the machine model ---

const machine::MachineSpec kHaswell = machine::haswell_e3_1225();

// One real matmul() at dimension n on a `threads`-worker pool (0 or 1
// runs serially), recorded, checked against the reference multiplier,
// and projected on the machine model beside the analytic profile
// matmul_profile() publishes for the same run.
struct MeasuredRun {
  double flops = 0.0;  ///< instrumented flop count
  double bytes = 0.0;  ///< instrumented logical traffic
  sim::RunResult projected;
  sim::RunResult analytic;
  bool verified = false;

  double time_ratio() const { return projected.seconds / analytic.seconds; }
};

MeasuredRun measure(core::AlgorithmId id, std::size_t n, unsigned threads) {
  const Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n), expect(n, n);
  tasking::ThreadPool pool(threads > 1 ? threads : 0);
  MatmulOptions opts;
  opts.algorithm = id;
  opts.pool = threads > 1 ? &pool : nullptr;
  const auto rec =
      instrumented([&] { matmul(a.view(), b.view(), c.view(), opts); });
  blas::gemm_reference(a.view(), b.view(), expect.view());

  const double efficiency = id == core::AlgorithmId::kOpenBlas
                                ? blas::kTunedGemmEfficiency
                                : strassen::kBotsBaseKernelEfficiency;
  const unsigned workers = threads == 0 ? 1 : threads;
  MeasuredRun r;
  r.flops = static_cast<double>(rec->total().flops);
  r.bytes = static_cast<double>(rec->total().dram_bytes());
  r.verified = linalg::allclose(c.view(), expect.view(), 1e-9, 1e-9);
  r.projected = sim::simulate(
      kHaswell,
      sim::profile_from_recorder(
          *rec, std::string(core::algorithm_name(id)) + "-measured",
          efficiency),
      workers);
  r.analytic = sim::simulate(
      kHaswell, matmul_profile(n, kHaswell, workers, opts), workers);
  return r;
}

class MeasuredAgreementTest
    : public ::testing::TestWithParam<std::tuple<core::AlgorithmId, unsigned>> {
};

// The measured profile treats all traffic as DRAM-level and collapses
// the phase structure, so its projected time only brackets the analytic
// model's (docs/MODEL.md, "Known limits").
TEST_P(MeasuredAgreementTest, MeasuredCountsAndProjectionAgree) {
  const auto [id, threads] = GetParam();
  const MeasuredRun r = measure(id, 192, threads);
  EXPECT_TRUE(r.verified) << core::algorithm_name(id);
  EXPECT_GT(r.flops, 0.0);
  EXPECT_GT(r.bytes, 0.0);
  EXPECT_GT(r.projected.seconds, 0.0);
  ASSERT_GT(r.analytic.seconds, 0.0);
  EXPECT_GT(r.time_ratio(), 0.3) << core::algorithm_name(id);
  EXPECT_LT(r.time_ratio(), 4.0) << core::algorithm_name(id);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeasuredAgreementTest,
    ::testing::Combine(::testing::Values(core::AlgorithmId::kOpenBlas,
                                         core::AlgorithmId::kStrassen,
                                         core::AlgorithmId::kCaps),
                       ::testing::Values(1u, 2u)));

TEST(Measured, FlopCountsMatchAnalyticForGemm) {
  EXPECT_DOUBLE_EQ(measure(core::AlgorithmId::kOpenBlas, 128, 1).flops,
                   blas::gemm_flops(128, 128, 128));
}

// Even at container scale, the measured-profile projections preserve
// the paper's ordering: blocked DGEMM fastest, Strassen/CAPS slower.
TEST(Measured, OrderingMatchesThePaperAtRealScale) {
  const std::size_t n = 256;
  const MeasuredRun gemm = measure(core::AlgorithmId::kOpenBlas, n, 2);
  const MeasuredRun str = measure(core::AlgorithmId::kStrassen, n, 2);
  const MeasuredRun caps = measure(core::AlgorithmId::kCaps, n, 2);
  EXPECT_LT(gemm.projected.seconds, str.projected.seconds);
  EXPECT_LT(gemm.projected.seconds, caps.projected.seconds);
}

// The model matmul_profile() publishes for a run charges exactly the
// flops the run does, serially and on a pool.
TEST(Measured, FlopsAreTheMatmulProfilesFlops) {
  const std::size_t n = 128;
  for (const core::AlgorithmId id : core::kAllAlgorithms) {
    for (const unsigned threads : {0u, 2u}) {
      const unsigned workers = threads == 0 ? 1 : threads;
      EXPECT_DOUBLE_EQ(
          measure(id, n, threads).flops,
          matmul_profile(n, kHaswell, workers, {.algorithm = id})
              .total_flops())
          << core::algorithm_name(id) << " threads=" << threads;
    }
  }
}

TEST(Integration, MeasuredFlopsTrackAnalyticModelAcrossAlgorithms) {
  const std::size_t n = 160;  // 20 * 2^3: halves evenly at cutoff 32
  Matrix a = random_matrix(n, n, 5), b = random_matrix(n, n, 6);
  Matrix c(n, n);

  const auto blas_rec = instrumented(
      [&] { matmul(a.view(), b.view(), c.view()); });
  EXPECT_EQ(static_cast<double>(blas_rec->total().flops),
            blas::gemm_flops(n, n, n));

  const strassen::StrassenOptions sopts{.base_cutoff = 32};
  const auto str_rec = instrumented(
      [&] { strassen::multiply(a.view(), b.view(), c.view(), sopts); });
  EXPECT_EQ(static_cast<double>(str_rec->total().flops),
            strassen::strassen_total_flops(n, sopts));

  const capsalg::CapsOptions copts{.base_cutoff = 32, .bfs_cutoff_depth = 2};
  const auto caps_rec = instrumented(
      [&] { capsalg::multiply(a.view(), b.view(), c.view(), copts); });
  EXPECT_EQ(static_cast<double>(caps_rec->total().flops),
            capsalg::caps_total_flops(n, copts));
}

TEST(Integration, StrassenMovesMoreAdditionTrafficThanBlas) {
  // The causal core of the paper: the Strassen family trades O(n^3)
  // multiplication work for O(n^2)-per-level streaming traffic. At equal
  // n the measured Strassen traffic per flop must exceed blocked
  // DGEMM's.
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 9), b = random_matrix(n, n, 10);
  Matrix c(n, n);
  const auto blas_rec = instrumented(
      [&] { matmul(a.view(), b.view(), c.view()); });
  const auto str_rec = instrumented([&] {
    strassen::multiply(a.view(), b.view(), c.view(), {.base_cutoff = 32});
  });
  const double blas_intensity =
      static_cast<double>(blas_rec->total().flops) /
      static_cast<double>(blas_rec->total().dram_bytes());
  const double str_intensity =
      static_cast<double>(str_rec->total().flops) /
      static_cast<double>(str_rec->total().dram_bytes());
  EXPECT_LT(str_intensity, blas_intensity);
}

TEST(Integration, FullMeasurementPathEndToEnd) {
  // Instrumented run -> measured profile -> simulate into MSR -> read
  // through the PAPI-style event set -> Eq (1).
  const std::size_t n = 128;
  const auto m = machine::haswell_e3_1225();
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  const auto rec = instrumented(
      [&] { matmul(a.view(), b.view(), c.view()); });
  const auto profile = sim::profile_from_recorder(
      *rec, "measured-gemm", blas::kTunedGemmEfficiency);

  rapl::SimulatedMsrDevice msr;
  rapl::EventSet events(msr);
  events.add_event(rapl::kEventPackageEnergy);
  events.start();
  const auto run = sim::simulate(m, profile, 1, &msr);
  const auto nj = events.stop();

  const double watts = static_cast<double>(nj[0]) * 1e-9 / run.seconds;
  const double ep = core::energy_performance(watts, run.seconds);
  EXPECT_GT(ep, 0.0);
  EXPECT_NEAR(watts, run.avg_power_w(machine::PowerPlane::kPackage), 0.1);
}

TEST(Integration, MiniExperimentMatrixShapesHold) {
  // A reduced experiment matrix driven by *analytic* profiles must show
  // the same ordering the real executions show above: Strassen family
  // slower but lower-power at full thread count.
  const auto m = machine::haswell_e3_1225();
  for (std::size_t n : {1024u, 2048u}) {
    const auto blas_run = sim::simulate(m, blas::blocked_gemm_profile(n, m, 4), 4);
    const auto str_run =
        sim::simulate(m, strassen::strassen_profile(n, m, 4), 4);
    const auto caps_run =
        sim::simulate(m, capsalg::caps_profile(n, m, 4), 4);
    EXPECT_LT(blas_run.seconds, str_run.seconds);
    EXPECT_LT(blas_run.seconds, caps_run.seconds);
    EXPECT_GT(blas_run.avg_power_w(machine::PowerPlane::kPackage),
              str_run.avg_power_w(machine::PowerPlane::kPackage));
    EXPECT_GT(blas_run.avg_power_w(machine::PowerPlane::kPackage),
              caps_run.avg_power_w(machine::PowerPlane::kPackage));
  }
}

TEST(Integration, CapsBuffersExceedStrassenWorkspaceStory) {
  // CAPS's BFS levels trade memory for communication; verify the
  // measured peak buffer grows when more levels run BFS.
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  std::uint64_t prev = 0;
  for (std::size_t depth : {0u, 1u, 2u, 3u}) {
    capsalg::CapsStats stats;
    capsalg::multiply(a.view(), b.view(), c.view(),
                      {.base_cutoff = 32, .bfs_cutoff_depth = depth}, nullptr,
                      &stats);
    EXPECT_GE(stats.peak_buffer_bytes, prev) << "depth=" << depth;
    prev = stats.peak_buffer_bytes;
  }
}

}  // namespace
}  // namespace capow
