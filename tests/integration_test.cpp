// Integration tests: real instrumented executions of all three
// algorithms flow through the measured-profile path into the simulator
// and the EP model — the full pipeline the paper's methodology implies,
// at sizes small enough to execute for real.
#include <gtest/gtest.h>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
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
  MatmulOptions sopts;
  sopts.algorithm = core::AlgorithmId::kStrassen;
  sopts.strassen.base_cutoff = 32;
  matmul(a.view(), b.view(), c_str.view(), sopts);
  MatmulOptions copts;
  copts.algorithm = core::AlgorithmId::kCaps;
  copts.caps.base_cutoff = 32;
  copts.caps.bfs_cutoff_depth = 1;
  matmul(a.view(), b.view(), c_caps.view(), copts);
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
    MatmulOptions opts;
    opts.algorithm = core::AlgorithmId::kStrassen;
    opts.strassen.base_cutoff = 32;
    opts.pool = &pool;
    matmul(a.view(), b.view(), c.view(), opts);
  });
  const auto profile = sim::profile_from_recorder(
      *rec, "measured-strassen", strassen::kBotsBaseKernelEfficiency);
  const auto run = sim::simulate(m, profile, 2);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GT(run.avg_power_w(machine::PowerPlane::kPackage), 0.0);
  EXPECT_LT(run.avg_power_w(machine::PowerPlane::kPackage), 120.0);
}

TEST(Integration, MeasuredFlopsTrackAnalyticModelAcrossAlgorithms) {
  const std::size_t n = 160;  // 20 * 2^3: halves evenly at cutoff 32
  Matrix a = random_matrix(n, n, 5), b = random_matrix(n, n, 6);
  Matrix c(n, n);

  const auto blas_rec = instrumented(
      [&] { matmul(a.view(), b.view(), c.view()); });
  EXPECT_EQ(static_cast<double>(blas_rec->total().flops),
            blas::gemm_flops(n, n, n));

  MatmulOptions sopts;
  sopts.algorithm = core::AlgorithmId::kStrassen;
  sopts.strassen.base_cutoff = 32;
  const auto str_rec = instrumented([&] {
    matmul(a.view(), b.view(), c.view(), sopts);
  });
  EXPECT_EQ(static_cast<double>(str_rec->total().flops),
            strassen::strassen_total_flops(n, sopts.strassen));

  MatmulOptions copts;
  copts.algorithm = core::AlgorithmId::kCaps;
  copts.caps.base_cutoff = 32;
  copts.caps.bfs_cutoff_depth = 2;
  const auto caps_rec = instrumented([&] {
    matmul(a.view(), b.view(), c.view(), copts);
  });
  EXPECT_EQ(static_cast<double>(caps_rec->total().flops),
            capsalg::caps_total_flops(n, copts.caps));
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
  MatmulOptions sopts;
  sopts.algorithm = core::AlgorithmId::kStrassen;
  sopts.strassen.base_cutoff = 32;
  const auto str_rec = instrumented([&] {
    matmul(a.view(), b.view(), c.view(), sopts);
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
  MatmulOptions opts;
  opts.algorithm = core::AlgorithmId::kCaps;
  opts.caps.base_cutoff = 32;
  std::uint64_t prev = 0;
  for (std::size_t depth : {0u, 1u, 2u, 3u}) {
    opts.caps.bfs_cutoff_depth = depth;
    capsalg::CapsStats stats;
    opts.caps_stats = &stats;
    matmul(a.view(), b.view(), c.view(), opts);
    EXPECT_GE(stats.peak_buffer_bytes, prev) << "depth=" << depth;
    prev = stats.peak_buffer_bytes;
  }
}

}  // namespace
}  // namespace capow
