#include "capow/api/matmul.hpp"

#include <optional>
#include <stdexcept>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow {

const blas::MicroKernel* matmul_kernel(const MatmulOptions& opts) {
  return opts.algorithm == core::AlgorithmId::kOpenBlas
             ? &blas::resolve_kernel({})
             : strassen::resolve_base_kernel(std::nullopt);
}

sim::WorkProfile matmul_profile(std::size_t n,
                                const machine::MachineSpec& spec,
                                unsigned threads, const MatmulOptions& opts) {
  switch (opts.algorithm) {
    case core::AlgorithmId::kOpenBlas:
      return blas::blocked_gemm_profile(n, spec, threads);
    case core::AlgorithmId::kStrassen:
      return strassen::strassen_profile(n, spec, threads);
    case core::AlgorithmId::kCaps:
      return capsalg::caps_profile(n, spec, threads);
  }
  return {};
}

void matmul(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            linalg::MatrixView c, const MatmulOptions& opts) {
  if (linalg::views_overlap(c, a) || linalg::views_overlap(c, b)) {
    throw std::invalid_argument("matmul: C shares storage with A or B");
  }

  blas::WorkspaceArena& arena = blas::WorkspaceArena::process_arena();

  const blas::MicroKernel* kern = matmul_kernel(opts);
  // Span args: the algorithm id and the resolved kernel id (-1 = BOTS
  // base kernel).
  telemetry::SpanScope span("matmul", "api", "algorithm",
                            static_cast<int>(opts.algorithm), "kernel",
                            kern != nullptr ? static_cast<int>(kern->id) : -1);
  // The arena hit/miss deltas go out as counters, so the two locked
  // stats() copies are taken only under an installed tracer.
  const bool traced = span.active();
  const blas::ArenaStats before = traced ? arena.stats() : blas::ArenaStats{};

  switch (opts.algorithm) {
    case core::AlgorithmId::kOpenBlas: {
      blas::GemmOptions g;
      g.arena = &arena;
      g.pool = opts.pool;
      // abft::guarded_gemm is the checksum wrapper for the blocked path
      // (it falls straight through to blas::gemm when the mode resolves
      // to off, so the default path is untouched).
      if (abft::resolve_mode(opts.abft) != abft::AbftMode::kOff) {
        abft::guarded_gemm(a, b, c, g, opts.abft);
      } else {
        blas::gemm(a, b, c, g);
      }
      break;
    }
    case core::AlgorithmId::kStrassen:
      strassen::multiply(a, b, c, {.arena = &arena, .abft = opts.abft},
                         opts.pool);
      break;
    case core::AlgorithmId::kCaps:
      capsalg::multiply(a, b, c, {.arena = &arena, .abft = opts.abft},
                        opts.pool);
      break;
  }

  if (traced) {
    const blas::ArenaStats after = arena.stats();
    telemetry::counter("matmul.arena.hits",
                       static_cast<double>(after.hits - before.hits));
    telemetry::counter("matmul.arena.misses",
                       static_cast<double>(after.misses - before.misses));
  }
}

}  // namespace capow
