// Distributed-memory CAPS and a classical distributed baseline
// (paper Section VIII's proposed next step, built on the mini-MPI
// runtime).
//
// dist_caps_multiply executes one distributed BFS level of the CAPS
// tree: the root materializes the fourteen operand combinations and
// ships each of the seven sub-products to its owning rank (round-robin);
// owners solve locally with shared-memory CAPS and return their Q_i,
// which the root combines. Total interconnect traffic is
// ~3 * (n/2)^2 words per remote sub-product — the CAPS communication
// shape of Eq (8) — versus the classical baseline's broadcast-B pattern
// of ~(P-1) * n^2 words.
#pragma once

#include "capow/capsalg/caps.hpp"
#include "capow/dist/comm.hpp"
#include "capow/linalg/matrix.hpp"

namespace capow::dist {

/// Options for the distributed CAPS solve.
struct DistCapsOptions {
  /// Local (per-rank) CAPS options for the sub-product solves.
  capsalg::CapsOptions local;
  /// Below this dimension a group leader solves locally without further
  /// distribution.
  std::size_t distribute_threshold = 64;
  /// Maximum distributed BFS levels. Distribution recurses while the
  /// rank group still holds >= 7 ranks (each level splits the group
  /// into seven sub-groups, mirroring the CAPS tree); groups of 2-6
  /// ranks run one final round-robin level. 49+ ranks therefore get two
  /// genuine tree levels, and so on.
  std::size_t max_distribution_levels = 8;
};

/// Collective: every rank of `comm` must call it. Rank 0 passes A, B and
/// receives C = A * B; other ranks pass empty matrices (their views are
/// ignored). Dimensions must be even above the distribution threshold.
/// Throws std::invalid_argument on rank-0 shape errors.
///
/// Any communicator size works: the seven sub-products spread over
/// however many ranks `comm` holds (round-robin below seven ranks, a
/// seven-way group split from seven up). That is what makes it the
/// elastic body too — call it directly under
/// World::run_elastic. A recovered generation needs no operand
/// reconstruction: it is a clean deterministic re-run on the new
/// membership, the CAPS analogue of restarting the BFS level. Because
/// ranks are in-process threads sharing the root's operand views, any
/// physical rank can serve as virtual root 0, so even root death is
/// recoverable. Respawn re-runs bit-identically (same rank count, same
/// split schedule); shrink recomputes correctly on the survivors with a
/// different work distribution.
void dist_caps_multiply(Communicator& comm, linalg::ConstMatrixView a,
                        linalg::ConstMatrixView b, linalg::MatrixView c,
                        const DistCapsOptions& opts = {});

/// Classical distributed baseline: block-row decomposition. Rank 0
/// scatters row blocks of A, broadcasts all of B, ranks compute their C
/// rows with the dense base kernel, root gathers. Collective.
void dist_block_gemm(Communicator& comm, linalg::ConstMatrixView a,
                     linalg::ConstMatrixView b, linalg::MatrixView c);

}  // namespace capow::dist
