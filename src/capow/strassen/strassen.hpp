// Task-parallel Strassen matrix multiplication (paper Section IV-B).
//
// Implements the seven-product recursion of the paper's Eq (7) — the
// classic Strassen scheme with 18 quadrant additions per level — plus
// the Winograd variant (15 additions), selectable via options. (Note:
// the paper labels its BOTS-derived code "Strassen-Winograd" but prints
// the classic Strassen product set; Eq (7) as printed also contains two
// well-known typos, Q5 = (A11+B12)*B22 for (A11+A12)*B22 and
// Q6 = (A21-A12)*(B11+B12) for (A21-A11)*(B11+B12). We implement the
// corrected algebra; tests verify both variants against the reference
// multiplier.)
//
// Both variants run their scheme's node program (scheme.hpp) through one
// node (frame.hpp). Parallelization follows the BOTS structure: each
// recursion level above kTaskSpawnDepth spawns seven tasks, one per
// product; an operand sum only one product reads is formed in that
// product's task (all of the classic scheme's), one several products
// read (Winograd's S1, S2, T1, T2) before the fan-out. Recursion reverts
// to the dense base kernel when the sub-matrix dimension drops to
// `base_cutoff` (the paper's empirically chosen 64).
#pragma once

#include <cstddef>
#include <optional>

#include "capow/abft/abft.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::strassen {

/// Recursion depth down to which a Strassen node or CAPS BFS step on a
/// pool spawns its seven products as tasks; deeper levels recurse
/// serially inside their owning task. 7^3 = 343 tasks comfortably feeds
/// any SMP-scale pool.
inline constexpr std::size_t kTaskSpawnDepth = 3;

/// Tuning knobs for strassen::multiply.
struct StrassenOptions {
  /// Sub-matrix dimension at (or below) which the dense base kernel
  /// runs. The paper's empirical optimum on its platform is 64.
  std::size_t base_cutoff = 64;
  /// Use the Winograd 15-addition variant instead of classic Strassen.
  bool winograd = false;
  /// Pool backing every quadrant temporary (operand sums and product
  /// buffers); null leases from blas::WorkspaceArena::process_arena().
  /// After one warm-up multiply the recursion performs no heap
  /// allocation.
  blas::WorkspaceArena* arena = nullptr;
  /// When set, the dense base case runs through the packed registry
  /// microkernel (blas::small_gemm) instead of the BOTS-style unrolled
  /// kernel. Default keeps the paper's BOTS base case — the Strassen /
  /// OpenBLAS efficiency gap is part of what the paper measures.
  std::optional<blas::MicroKernelId> base_kernel{};
  /// ABFT protection (abft::resolve_mode semantics: explicit mode, else
  /// CAPOW_ABFT, else off). Detect/correct add per-product checksum
  /// verification at the top recursion level — a flip is caught in the
  /// quadrant where it happened and, in correct mode, repaired by
  /// re-running just that product — plus an end-to-end guard around the
  /// whole multiply that escalates to bounded full retries.
  abft::AbftConfig abft{};
};

/// C = A * B for square matrices via task-parallel Strassen.
///
/// Any n >= 1 is accepted: the recursion runs on the leading m x m
/// blocks, m = peel_dimension(n, base_cutoff), and the border n - m rows
/// and columns are folded in by dense base products, without copying the
/// operands. `pool` may be null for serial execution. Throws
/// std::invalid_argument, before any work, for operands that break
/// linalg::check_product with `square` on, or a zero base_cutoff.
void multiply(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView c, const StrassenOptions& opts = {},
              tasking::ThreadPool* pool = nullptr);

/// The registry kernel a Strassen or CAPS base case runs for its
/// `base_kernel` option: that kernel, else the CAPOW_KERNEL override,
/// else null for the BOTS kernel. Shared by both algorithms and the
/// capow::matmul() facade, so they cannot disagree.
const blas::MicroKernel* resolve_base_kernel(
    std::optional<blas::MicroKernelId> requested);

/// Levels of halving, rounding up, that bring n down to the cutoff (0
/// when n <= cutoff).
std::size_t recursion_levels(std::size_t n, std::size_t base_cutoff);

/// The leading dimension m <= n the Strassen family recurses on: with
/// L = recursion_levels(n, base_cutoff), m = n - n mod 2^L, so m halves
/// evenly down to its base case, m / 2^L <= base_cutoff and the border
/// n - m is below 2^L. (At cutoff 1, where n - n mod 2^L can be 0, m is
/// the largest power of two <= n instead.)
std::size_t peel_dimension(std::size_t n, std::size_t base_cutoff);

}  // namespace capow::strassen
