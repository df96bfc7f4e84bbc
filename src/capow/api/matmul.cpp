#include "capow/api/matmul.hpp"

#include <stdexcept>
#include <string>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/telemetry/telemetry.hpp"

namespace capow {

namespace {

/// Strassen/CAPS base-kernel resolution: facade override, then the
/// algorithm option, then the CAPOW_KERNEL environment (a whole-stack
/// A/B switch), then the BOTS kernel (null).
std::optional<blas::MicroKernelId> resolve_base_kernel(
    std::optional<blas::MicroKernelId> facade,
    std::optional<blas::MicroKernelId> algorithm_option) {
  if (facade) return facade;
  if (algorithm_option) return algorithm_option;
  return blas::env_kernel_override();
}

blas::GemmOptions gemm_options(const MatmulOptions& opts) {
  blas::GemmOptions g;
  g.blocking = opts.blocking;
  g.kernel = opts.kernel;
  g.pool = opts.pool;
  return g;
}

std::string tile_str(std::size_t mr, std::size_t nr) {
  return std::to_string(mr) + "x" + std::to_string(nr);
}

}  // namespace

void validate_options(const MatmulOptions& opts) {
  if (!opts.blocking) return;
  const blas::BlockingParams& bl = *opts.blocking;
  const blas::MicroKernel* pinned = blas::find_kernel_for_tile(bl.mr, bl.nr);
  if (pinned == nullptr) {
    throw std::invalid_argument(
        "matmul: blocking requests a " + tile_str(bl.mr, bl.nr) +
        " register tile, which matches no registered microkernel (valid "
        "kernel=tile combinations: " +
        blas::kernel_tile_listing() + ")");
  }
  if (opts.kernel && *opts.kernel != pinned->id) {
    const blas::MicroKernel* requested = blas::find_kernel(*opts.kernel);
    throw std::invalid_argument(
        std::string("matmul: explicit kernel '") +
        (requested != nullptr ? requested->name : "?") +
        "' conflicts with the blocking parameters, whose " +
        tile_str(bl.mr, bl.nr) + " tile pins kernel '" + pinned->name +
        "' (valid kernel=tile combinations: " + blas::kernel_tile_listing() +
        ")");
  }
}

const blas::MicroKernel* matmul_kernel(const MatmulOptions& opts) {
  validate_options(opts);
  switch (opts.algorithm) {
    case core::AlgorithmId::kOpenBlas:
      return &blas::resolve_kernel(gemm_options(opts));
    case core::AlgorithmId::kStrassen: {
      const auto id =
          resolve_base_kernel(opts.kernel, opts.strassen.base_kernel);
      return id ? blas::find_kernel(*id) : nullptr;
    }
    case core::AlgorithmId::kCaps: {
      const auto id = resolve_base_kernel(opts.kernel, opts.caps.base_kernel);
      return id ? blas::find_kernel(*id) : nullptr;
    }
  }
  return nullptr;
}

void matmul(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            linalg::MatrixView c, const MatmulOptions& opts) {
  validate_options(opts);

  // Fallback-aware device dispatch: explicit backend > CAPOW_BACKEND >
  // host. An op the requested device lacks runs on the host instead
  // (counted, never an error).
  const backend::DispatchDecision dispatch =
      backend::BackendRegistry::instance().dispatch(
          backend::resolve_backend(opts.backend), opts.algorithm);
  backend::Backend& device = *dispatch.chosen;

  blas::WorkspaceArena& arena = device.arena();

  // Device guard: nested null-arena callers (recursion levels, ABFT
  // internals) lease from the dispatched device's memory, and telemetry
  // below the seam can ask which device it is on.
  backend::BackendScope device_guard(device);
  blas::ArenaScope arena_guard(arena);

  [[maybe_unused]] const blas::MicroKernel* kern = matmul_kernel(opts);
  // Span args: the resolved kernel id (-1 = BOTS base kernel), the
  // algorithm id and the dispatched backend id, so trace consumers can
  // attribute each multiply to the device that ran it.
  CAPOW_TSPAN_ARGS3("matmul", "api", "algorithm",
                    static_cast<int>(opts.algorithm), "kernel",
                    kern != nullptr ? static_cast<int>(kern->id) : -1,
                    "backend", static_cast<int>(device.id()));
#if CAPOW_TELEMETRY_ENABLED
  const blas::ArenaStats before = arena.stats();
#endif

  switch (opts.algorithm) {
    case core::AlgorithmId::kOpenBlas: {
      blas::GemmOptions g = gemm_options(opts);
      g.arena = &arena;
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
    case core::AlgorithmId::kStrassen: {
      strassen::StrassenOptions s = opts.strassen;
      if (s.arena == nullptr) s.arena = &arena;
      s.base_kernel = resolve_base_kernel(opts.kernel, s.base_kernel);
      if (!s.abft.mode) s.abft = opts.abft;
      strassen::multiply(a, b, c, s, opts.pool);
      break;
    }
    case core::AlgorithmId::kCaps: {
      capsalg::CapsOptions o = opts.caps;
      if (o.arena == nullptr) o.arena = &arena;
      o.base_kernel = resolve_base_kernel(opts.kernel, o.base_kernel);
      if (!o.abft.mode) o.abft = opts.abft;
      capsalg::multiply(a, b, c, o, opts.pool, opts.caps_stats);
      break;
    }
  }

#if CAPOW_TELEMETRY_ENABLED
  const blas::ArenaStats after = arena.stats();
  CAPOW_TCOUNTER("matmul.arena.hits",
                 static_cast<double>(after.hits - before.hits));
  CAPOW_TCOUNTER("matmul.arena.misses",
                 static_cast<double>(after.misses - before.misses));
#endif
}

}  // namespace capow
