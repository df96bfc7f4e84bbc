// Quickstart: the capow pipeline in one file.
//
//   1. multiply two matrices with all three of the paper's algorithms
//      (blocked DGEMM, Strassen, CAPS) and check they agree,
//   2. capture each run's cost profile with the trace instrumentation,
//   3. project time and power on the paper's Haswell machine model
//      through the simulated RAPL measurement path, and
//   4. rank the algorithms with the paper's energy-performance model.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/trace/counters.hpp"

int main() {
  using namespace capow;
  constexpr std::size_t kN = 256;
  constexpr unsigned kThreads = 4;

  std::printf("capow quickstart: %zux%zu double matrix multiply\n\n", kN,
              kN);

  // 1. Generate a reproducible workload and run all three algorithms.
  const linalg::Matrix a = linalg::random_square(kN, /*seed=*/1);
  const linalg::Matrix b = linalg::random_square(kN, /*seed=*/2);
  linalg::Matrix c_blas(kN, kN), c_strassen(kN, kN), c_caps(kN, kN);

  struct Run {
    const char* name;
    double efficiency;      // kernel efficiency for the machine model
    trace::Recorder rec;    // measured costs
  } runs[3] = {
      {"blocked DGEMM (OpenBLAS-style)", blas::kTunedGemmEfficiency, {}},
      {"Strassen (BOTS-style tasks)",
       strassen::kBotsBaseKernelEfficiency,
       {}},
      {"CAPS (BFS/DFS, cutoff depth 4)",
       strassen::kBotsBaseKernelEfficiency,
       {}},
  };

  // One entry point for all three algorithms: capow::matmul() selects
  // the implementation (and the fastest SIMD microkernel the CPU
  // supports — override with CAPOW_KERNEL=generic|avx2|fma|avx512).
  const struct {
    core::AlgorithmId id;
    linalg::Matrix* out;
    trace::Recorder* rec;
  } calls[3] = {{core::AlgorithmId::kOpenBlas, &c_blas, &runs[0].rec},
                {core::AlgorithmId::kStrassen, &c_strassen, &runs[1].rec},
                {core::AlgorithmId::kCaps, &c_caps, &runs[2].rec}};
  for (const auto& call : calls) {
    trace::RecordingScope scope(*call.rec);
    MatmulOptions opts;
    opts.algorithm = call.id;
    matmul(a.view(), b.view(), call.out->view(), opts);
  }

  if (!linalg::allclose(c_strassen.view(), c_blas.view(), 1e-9, 1e-9) ||
      !linalg::allclose(c_caps.view(), c_blas.view(), 1e-9, 1e-9)) {
    std::printf("numerical disagreement — this is a bug\n");
    return 1;
  }
  std::printf("all three algorithms agree numerically (rel tol 1e-9)\n\n");

  // 2-4. Project each measured profile on the paper's platform and rank
  // by the EP model.
  const machine::MachineSpec m = machine::haswell_e3_1225();
  std::printf("projected on: %s, %u threads\n", m.name.c_str(), kThreads);
  std::printf("%-32s %12s %12s %10s %10s\n", "algorithm", "Mflops",
              "MB moved", "pkg W", "EP (W/s)");
  for (auto& run : runs) {
    const auto profile = sim::profile_from_recorder(
        run.rec, run.name, run.efficiency);
    const auto result = sim::simulate(m, profile, kThreads);
    const double watts = result.avg_power_w(machine::PowerPlane::kPackage);
    const double ep = core::energy_performance(watts, result.seconds);
    std::printf("%-32s %12.1f %12.1f %10.2f %10.1f\n", run.name,
                static_cast<double>(run.rec.total().flops) / 1e6,
                static_cast<double>(run.rec.total().dram_bytes()) / 1e6,
                watts, ep);
  }

  std::printf(
      "\nreading the table: the tuned DGEMM does the most useful flops per\n"
      "byte moved and posts the best EP — but the paper's point is about\n"
      "*scaling*: run build/bench/fig7_ep_scaling to see whose power bill\n"
      "grows faster than their speedup.\n");
  return 0;
}
