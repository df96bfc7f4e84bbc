#include "capow/harness/measured.hpp"

#include <stdexcept>

#include "capow/api/matmul.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/telemetry/telemetry.hpp"
#include "capow/trace/counters.hpp"

namespace capow::harness {

MeasuredRecord run_measured(core::AlgorithmId a, std::size_t n,
                            unsigned threads,
                            const machine::MachineSpec& machine_spec) {
  if (n == 0) throw std::invalid_argument("run_measured: n == 0");

  const linalg::Matrix ma = linalg::random_square(n, 1);
  const linalg::Matrix mb = linalg::random_square(n, 2);
  linalg::Matrix mc(n, n);

  trace::Recorder rec;
  tasking::ThreadPool pool(threads > 1 ? threads : 0);
  MatmulOptions opts;
  opts.algorithm = a;
  opts.pool = threads > 1 ? &pool : nullptr;
  // Blocked GEMM blocks for the measured machine's caches.
  blas::GemmOptions blocking_for;
  blocking_for.machine = machine_spec;
  opts.blocking = blas::resolve_blocking(blocking_for);
  double efficiency = 0.0;
  {
    trace::RecordingScope scope(rec);
    CAPOW_TSPAN_ARGS2(core::algorithm_name(a), "harness", "n", n, "threads",
                      threads);
    matmul(ma.view(), mb.view(), mc.view(), opts);
    efficiency = a == core::AlgorithmId::kOpenBlas
                     ? blas::kTunedGemmEfficiency
                     : strassen::kBotsBaseKernelEfficiency;
  }

  MeasuredRecord out;
  out.algorithm = a;
  out.n = n;
  out.threads = threads;
  const auto totals = rec.total();
  out.measured_flops = static_cast<double>(totals.flops);
  out.measured_bytes = static_cast<double>(totals.dram_bytes());

  // Verify numerics against the reference multiplier (keeps the
  // measured path honest about *what* it measured).
  linalg::Matrix expect(n, n);
  blas::gemm_reference(ma.view(), mb.view(), expect.view());
  out.numerically_verified =
      linalg::allclose(mc.view(), expect.view(), 1e-9, 1e-9);

  const unsigned workers = threads == 0 ? 1 : threads;
  const auto measured_profile = sim::profile_from_recorder(
      rec, std::string(core::algorithm_name(a)) + "-measured", efficiency);
  out.projected = sim::simulate(machine_spec, measured_profile, workers);
  out.analytic = sim::simulate(
      machine_spec, matmul_profile(n, machine_spec, workers, opts), workers);
  return out;
}

}  // namespace capow::harness
