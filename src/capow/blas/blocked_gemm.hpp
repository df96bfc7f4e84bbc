// Goto-style packed, blocked DGEMM — the paper's "OpenBLAS tuned"
// baseline (Algorithm 1).
//
// Structure: C is swept in nc-wide column panels; for each kc-deep slice
// the B panel is packed once (LLC-resident), then mc x kc blocks of A are
// packed (L2-resident) and a runtime-dispatched mr x nr register
// microkernel (microkernel.hpp) accumulates into C tiles. Packed panels
// come from a WorkspaceArena, so steady-state calls never malloc.
// Parallelism is work-sharing over the mc row blocks, the same loop
// OpenBLAS threads via OpenMP on the paper's platform.
//
// Every pack and C-tile update records its logical streaming traffic via
// capow::trace so that instrumented runs can be checked against the
// closed-form cost model (cost_model.hpp) byte-for-byte. The traffic
// model depends only on mc/kc/nc — never on the register tile — so every
// kernel variant satisfies the same cross-check.
#pragma once

#include <cstdint>
#include <optional>

#include "capow/blas/blocking.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::blas {

/// Options for blas::gemm. Kernel/blocking resolution:
///  - explicit `blocking` pins the register tile: the kernel is the
///    registry entry whose tile matches (mr, nr) exactly, and both
///    `kernel` (if also set) and the tile must agree — this keeps runs
///    with pinned BlockingParams deterministic under CAPOW_KERNEL.
///  - otherwise the kernel is select_kernel(kernel) — explicit request,
///    else CAPOW_KERNEL, else fastest supported — except that a
///    `machine` without an explicit `kernel` takes model_kernel(machine),
///    the choice capped at that machine's flops per cycle. Blocking is
///    select_blocking(machine, kernel) or default_blocking_for(kernel).
struct GemmOptions {
  std::optional<BlockingParams> blocking;
  std::optional<MicroKernelId> kernel;
  std::optional<machine::MachineSpec> machine;
  /// Packing-buffer pool; null leases from blas::active_arena() (the
  /// thread's ambient arena — the dispatched backend's device pool, or
  /// the process arena outside any backend scope).
  WorkspaceArena* arena = nullptr;
  /// Null runs serially.
  tasking::ThreadPool* pool = nullptr;
  /// Namespaces the deterministic mem.flip/compute.flip fault draws of
  /// this call. Recovery layers (abft) re-run damaged panels with a
  /// fresh salt so the retry re-draws its faults instead of re-firing
  /// the identical flip; plain callers leave it at 0.
  std::uint64_t fault_salt = 0;
};

/// C = A * B through the packed, blocked path. Shapes are validated, and
/// a C that shares storage with A or B throws std::invalid_argument.
void gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
          linalg::MatrixView c, const GemmOptions& opts = {});

/// The kernel gemm() would run for `opts` (after full resolution);
/// throws exactly when gemm() would. Exposed so harness/telemetry can
/// record the variant without re-implementing the resolution rules.
const MicroKernel& resolve_kernel(const GemmOptions& opts);

/// The blocking parameters gemm() would use for `opts` after kernel
/// resolution. Exposed so recovery layers (abft) can pin them when
/// recomputing a damaged panel through a sub-view: the same blocking on
/// the same operand values replays the identical floating-point
/// schedule, making localized recomputation bit-identical to the
/// original sweep.
BlockingParams resolve_blocking(const GemmOptions& opts);

/// C = A * B (or C += A * B) for small unpacked blocks through the
/// registry microkernel: the packed-stripe path of gemm() without the
/// cache-blocking loop nest, packing both operands into one arena
/// buffer. Traffic accounting is identical to strassen::base_gemm
/// (2*m*n*k flops, (m*k + k*n) bytes read, m*n written) so it can stand
/// in for the recursion base case without moving the cost-model
/// cross-checks.
void small_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                linalg::MatrixView c, const MicroKernel& kernel,
                WorkspaceArena& arena, bool accumulate = false);

}  // namespace capow::blas
