// capow::matmul() — the single entrypoint for the paper's three
// multiplication algorithms.
//
// Every call site (harness, benches, examples, tools, capowd) goes
// through this facade; the per-algorithm entrypoints are blas::gemm,
// strassen::multiply and capsalg::multiply. The facade runs the paper's
// configuration of each: OpenBLAS-class blocked GEMM with this CPU's
// kernel (or CAPOW_KERNEL's), and Strassen and CAPS at the BOTS base
// cutoff 64 with CAPS's BFS cutoff depth 4. It runs on the host and
// leases every buffer from blas::WorkspaceArena::process_arena(). Its
// options choose only the algorithm, the thread pool and the ABFT
// level. Tuning a recursion, pinning a GEMM tile or passing a private
// arena is done at the entry points, through blas::GemmOptions,
// strassen::StrassenOptions and capsalg::CapsOptions.
//
// Beside the call sits its model: matmul_profile() is the cost model of
// the multiply matmul() runs, so the algorithm switch exists once for
// running and once for predicting, both here.
//
// The facade also owns the per-call observability: a "matmul" telemetry
// span tagged with the algorithm and resolved kernel, plus arena
// hit/miss counter samples, so JSONL exports can attribute every
// measurement to the exact kernel variant and buffer-reuse behaviour
// that produced it.
#pragma once

#include "capow/abft/abft.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/core/algorithms.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow {

/// Options for capow::matmul().
struct MatmulOptions {
  /// Which of the paper's algorithms runs (registry: core/algorithms.hpp).
  core::AlgorithmId algorithm = core::AlgorithmId::kOpenBlas;

  /// Worker pool; null runs serially.
  tasking::ThreadPool* pool = nullptr;

  /// ABFT protection, applied to whichever algorithm runs: off (default),
  /// detect (checksum-verify, throw abft::AbftError on silent
  /// corruption), or correct (localized recomputation, then bounded full
  /// retries). An unset mode defers to the CAPOW_ABFT environment
  /// variable (abft::resolve_mode).
  abft::AbftConfig abft{};
};

/// C = A * B via the selected algorithm. Validation, border peeling and
/// instrumentation follow the selected algorithm's contract, and a C
/// that shares storage with A or B throws std::invalid_argument; all
/// three count logical traffic through capow::trace identically to
/// their closed-form cost models.
void matmul(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            linalg::MatrixView c, const MatmulOptions& opts = {});

/// The microkernel matmul() runs for `opts.algorithm`: the blocked GEMM's
/// (CAPOW_KERNEL's, else the fastest this CPU supports), or for Strassen
/// and CAPS their base case's — null for the BOTS kernel unless
/// CAPOW_KERNEL names one. Throws only when CAPOW_KERNEL names an unknown
/// kernel or one this CPU cannot run, as matmul() would.
const blas::MicroKernel* matmul_kernel(const MatmulOptions& opts);

/// The simulator work profile of the n x n multiply matmul() runs for
/// `opts.algorithm` with `threads` workers on `spec`: that algorithm's
/// closed-form cost model at the paper's configuration (OpenBLAS-class
/// GEMM blocked for `spec`, the BOTS base case at cutoff 64, CAPS BFS
/// depth 4). The models do not model the pool, arenas or ABFT: `threads`
/// and `spec` stand for the pool and the machine.
sim::WorkProfile matmul_profile(std::size_t n,
                                const machine::MachineSpec& spec,
                                unsigned threads,
                                const MatmulOptions& opts = {});

}  // namespace capow
