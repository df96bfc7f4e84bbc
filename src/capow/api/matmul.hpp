// capow::matmul() — the single entrypoint for the paper's three
// multiplication algorithms.
//
// Every call site (harness, benches, examples, tools) goes through this
// facade; the per-algorithm entrypoints are blas::gemm,
// strassen::multiply and capsalg::multiply (the PR-3 deprecated shims
// are gone). One options struct carries everything the paper's
// experiments vary: the algorithm (core::AlgorithmId registry), the
// *backend* the call dispatches onto (capow::backend seam — device
// identity, kernel registry, device arena, power plane), blocking and
// cutoff tuning (which also pin the register microkernel: a blocking
// tile, or a Strassen/CAPS base_kernel, else CAPOW_KERNEL), and the
// thread pool.
//
// Beside the call sits its model: matmul_profile() is the cost model of
// the multiply matmul() runs for the same options, so the algorithm
// switch exists once for running and once for predicting, both here.
//
// The facade also owns the per-call observability: a "matmul" telemetry
// span tagged with the resolved algorithm/kernel/backend, plus arena
// hit/miss counter samples, so JSONL exports can attribute every
// measurement to the exact kernel variant, device and buffer-reuse
// behaviour that produced it.
#pragma once

#include <optional>

#include "capow/abft/abft.hpp"
#include "capow/backend/backend.hpp"
#include "capow/blas/blocking.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/core/algorithms.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow {

/// Options for capow::matmul().
struct MatmulOptions {
  /// Which of the paper's algorithms runs (registry: core/algorithms.hpp).
  core::AlgorithmId algorithm = core::AlgorithmId::kOpenBlas;

  /// The device class to dispatch onto. Unset resolves through the
  /// CAPOW_BACKEND environment variable, then the host CPU. An op the
  /// chosen backend does not support falls back to the host (graceful,
  /// counted by capow_backend_fallbacks_total — never an error). The
  /// backend supplies the kernel registry, the device memory pool and
  /// the machine model in one handle.
  std::optional<backend::BackendId> backend{};

  /// Worker pool; null runs serially.
  tasking::ThreadPool* pool = nullptr;

  /// Blocked-GEMM path: explicit blocking parameters. The (mr, nr) tile
  /// must match a registered kernel, which it then pins. Unset, the
  /// kernel is CAPOW_KERNEL's, else the fastest this CPU supports.
  std::optional<blas::BlockingParams> blocking{};

  /// Strassen path tuning (cutoff, winograd, arena, base kernel). An unset
  /// base_kernel, here or in `caps`, falls back to CAPOW_KERNEL, then
  /// to the BOTS base case the paper models.
  strassen::StrassenOptions strassen{};
  /// CAPS path tuning (cutoffs, thresholds).
  capsalg::CapsOptions caps{};
  /// CAPS path: receives traversal statistics when non-null.
  capsalg::CapsStats* caps_stats = nullptr;

  /// ABFT protection, applied to whichever algorithm runs: off (default),
  /// detect (checksum-verify, throw abft::AbftError on silent
  /// corruption), or correct (localized recomputation, then bounded full
  /// retries). An unset mode defers to the CAPOW_ABFT environment
  /// variable (abft::resolve_mode).
  abft::AbftConfig abft{};
};

/// Rejects a `blocking` tile whose (mr, nr) matches no registered
/// kernel up front, before any dispatch work. Throws
/// std::invalid_argument whose message lists the registered
/// kernel/tile combinations. matmul() calls this on entry; experiment
/// drivers can call it early to fail before allocating operands.
void validate_options(const MatmulOptions& opts);

/// C = A * B via the selected algorithm on the resolved backend.
/// Validation, border peeling and instrumentation follow the selected
/// algorithm's contract, and a C that shares storage with A or B throws
/// std::invalid_argument; all three count logical traffic through
/// capow::trace identically to their closed-form cost models.
/// Arithmetic always executes with host kernels (results are
/// bit-identical across backends); the backend decides memory placement
/// and telemetry attribution.
void matmul(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            linalg::MatrixView c, const MatmulOptions& opts = {});

/// The microkernel matmul() would run for `opts` — the facade-level
/// resolution including per-algorithm defaults. Returns null when the
/// Strassen/CAPS base case would use the BOTS kernel. Throws exactly
/// when matmul() would reject the blocking tile.
const blas::MicroKernel* matmul_kernel(const MatmulOptions& opts);

/// The simulator work profile of the n x n multiply matmul() runs for
/// `opts` with `threads` workers on `spec`: the selected algorithm's
/// closed-form cost model, fed `opts.strassen` or `opts.caps`. The models
/// charge the paper's kernels (OpenBLAS-class GEMM blocked for `spec`, the
/// BOTS base case) whatever `blocking`, `base_kernel` or the backend
/// select, and do not model the pool, arenas or ABFT: `threads` and
/// `spec` stand for the pool and the device.
sim::WorkProfile matmul_profile(std::size_t n,
                                const machine::MachineSpec& spec,
                                unsigned threads,
                                const MatmulOptions& opts = {});

}  // namespace capow
