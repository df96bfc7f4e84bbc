// Communication Avoiding Parallel Strassen (CAPS) — paper Section IV-C.
//
// CAPS views the Strassen recursion as a tree and decides per level
// whether to traverse breadth-first (BFS) or depth-first (DFS),
// following the paper's Algorithm 2:
//
//     if DEPTH < CUTOFF_DEPTH then execute Strassen BFS
//     else                         execute Strassen DFS
//
// * BFS level: the paper materializes all fourteen operand quadrant
//   combinations into private buffers up front ("requires additional
//   buffer memory"), then runs the seven sub-products in parallel on
//   disjoint workers. CAPS is a schedule of one Strassen tree, so a BFS
//   step here runs the classic step every Strassen node runs
//   (strassen/frame.hpp): the seven sub-products as tasks on a pool down
//   to strassen::kTaskSpawnDepth, else the serial node with three
//   physical h x h buffers per level. The buffered step is still booked
//   as logical traffic and buffer bytes, so CapsStats and the cost model
//   describe the paper's buffered BFS while the arena leases what
//   Strassen leases.
// * DFS level: the seven sub-products run in sequence through the same
//   classic step, never as tasks. The classic program's temporaries X, Y
//   and T are live, and a DFS step books just those three h x h buffers
//   where a BFS step books the paper's 21.
//
// The paper's empirically chosen cutoff depth is 4; with a base cutoff
// of 64, problems up to 4096^2 run BFS at the top levels and DFS below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "capow/abft/abft.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::capsalg {

/// Tuning knobs for capsalg::multiply.
struct CapsOptions {
  /// Dense base-kernel cutoff dimension (paper: 64).
  std::size_t base_cutoff = 64;
  /// Tree depth below which the traversal switches BFS -> DFS
  /// (paper: 4).
  std::size_t bfs_cutoff_depth = 4;
  /// Pool backing the BFS/DFS buffers (physical storage only — the
  /// CapsStats peak-buffer accounting still charges the logical sizes of
  /// the buffered BFS, so the cost-model cross-check stays exact, while
  /// a serial BFS level leases three h x h buffers of the 21 it charges,
  /// guarded or not); null leases from
  /// blas::WorkspaceArena::process_arena().
  blas::WorkspaceArena* arena = nullptr;
  /// When set, the dense base case runs through the packed registry
  /// microkernel (blas::small_gemm) instead of the BOTS-style kernel.
  std::optional<blas::MicroKernelId> base_kernel{};
  /// ABFT protection (abft::resolve_mode semantics). Detect/correct add
  /// per-product checksum verification at the top level, whether it runs
  /// BFS or DFS — a damaged sub-product's operands are re-formed from the
  /// pristine parent quadrants and it is re-run — plus an end-to-end
  /// guard with bounded full retries.
  abft::AbftConfig abft{};
};

/// Execution statistics: the memory/communication trade CAPS makes.
struct CapsStats {
  std::uint64_t peak_buffer_bytes = 0;  ///< high-water buffer allocation
  std::uint64_t bfs_nodes = 0;          ///< recursion nodes run as BFS
  std::uint64_t dfs_nodes = 0;          ///< recursion nodes run as DFS
  std::uint64_t base_products = 0;      ///< dense base-case multiplies
};

/// C = A * B for square matrices via CAPS. Border peeling, validation
/// and instrumentation conventions match strassen::multiply. `stats`
/// (optional) receives the traversal statistics. Throws
/// std::invalid_argument, before any work, for operands that break
/// linalg::check_product with `square` on, or zero cutoffs.
void multiply(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView c, const CapsOptions& opts = {},
              tasking::ThreadPool* pool = nullptr,
              CapsStats* stats = nullptr);

}  // namespace capow::capsalg
