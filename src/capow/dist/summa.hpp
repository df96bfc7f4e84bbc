// SUMMA and 2.5D classical distributed matrix multiplication.
//
// The paper positions CAPS against the classical communication-avoiding
// line of work (its ref [16], Solomonik & Demmel's 2.5D algorithms).
// These are the comparators: SUMMA on a sqrt(P) x sqrt(P) grid (the
// standard O(n^2/sqrt(P)) per-rank communication pattern) and its 2.5D
// generalization with c-fold replication (cutting communication by
// sqrt(c) at c-fold memory cost — the classical analogue of CAPS's
// BFS memory-for-communication trade).
//
// Data placement follows this module's root-centric convention: rank 0
// holds A, B, C; scatter/gather frames the algorithm's *internal*
// communication pattern, which is what the instrumentation measures and
// the eq8 bench compares.
#pragma once

#include <cstddef>
#include <vector>

#include "capow/abft/abft.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/linalg/matrix.hpp"

namespace capow::dist {

/// Process-grid geometry: ranks = rows * cols * layers. SUMMA uses
/// layers == 1; 2.5D replicates the grid over `layers` copies.
struct GridSpec {
  int rows = 1;
  int cols = 1;
  int layers = 1;

  int ranks() const noexcept { return rows * cols * layers; }
  /// Throws std::invalid_argument when degenerate or (for this
  /// implementation) non-square in the plane.
  void validate() const;

  /// The elastic grid rule: the largest g x g grid (one layer) with
  /// g * g <= ranks and n % g == 0. g = 1 always qualifies, so any
  /// membership fields a grid, which is what lets a shrunk generation
  /// re-run the job.
  static GridSpec largest_square(std::size_t n, int ranks) noexcept;
};

/// One rank's checksummed operand panels, cached for reconstruction.
/// `a`/`b` are bit-exact flattened copies of the nb x nb blocks the
/// scatter assigned; `a_sum`/`b_sum` the abft::payload_checksum words
/// computed at store time and compared *bitwise* at restore time — the
/// reconstruction is accepted only when the replica is the exact bytes
/// that were replicated, which is what makes a respawned run's output
/// bit-identical to the fault-free one.
struct PanelSlot {
  bool valid = false;
  std::size_t nb = 0;
  std::vector<double> a, b;
  double a_sum = 0.0, b_sum = 0.0;
};

/// Driver-owned panel replication cache for an elastic summa_multiply.
/// Outlives generations (the caller holds it across run_elastic's
/// re-runs). Indexed by *physical* rank; the single-writer discipline
/// mirrors RankCommBlock: during a generation, own[r] is written only
/// by rank r's thread and replica[o] only by o's buddy's thread, and
/// the generation join is the happens-before edge to the readers.
struct PanelCacheSet {
  std::vector<PanelSlot> own;
  std::vector<PanelSlot> replica;

  PanelCacheSet() = default;
  explicit PanelCacheSet(int ranks)
      : own(static_cast<std::size_t>(ranks)),
        replica(static_cast<std::size_t>(ranks)) {}
};

/// Collective SUMMA: C = A * B on a rows x cols grid (layers must be 1).
/// Rank 0 passes the operands; n must be divisible by grid.rows and
/// grid.cols. Every rank of `comm` must call it, and comm.size() must
/// be at least grid.ranks(): every rank takes part in the dimension
/// broadcast, then ranks beyond grid.ranks() idle while the first
/// grid.ranks() run the grid.
///
/// ABFT (abft::resolve_mode semantics — an unset cfg.mode honors
/// CAPOW_ABFT): in detect/correct mode every point-to-point payload
/// carries a compensated end-to-end checksum word, compared bitwise on
/// receipt — an application-level check independent of the transport's
/// link CRC (which the comm.corrupt fault site already covers). Rank 0
/// additionally guards the whole product with Huang–Abraham checksums;
/// in correct mode a failed verdict triggers a collective re-run
/// (bounded by cfg.max_retries) from the pristine root operands. With
/// the mode off, the wire format is bit-identical to the pre-ABFT
/// protocol.
///
/// Elastic use: run it under World::run_elastic with
/// GridSpec::largest_square(n, comm.size()) as the grid, the body's
/// `ctx`, and a driver-owned `cache`. Under the respawn policy,
/// generation 0 buddy-replicates each grid rank's scattered panels to
/// rank (r+1) % grid.ranks(); a recovered generation then skips the
/// re-scatter, restores dead ranks' panels from their buddies (bitwise
/// checksum-verified), and recomputes — bit-identical to the fault-free
/// run because the panels are exact copies feeding the identical gemm
/// sequence. When the cache cannot cover the failed set (adjacent
/// victims, changed grid, shrink remapping) it falls back to a full
/// re-scatter. With a default `ctx` or no `cache` nothing is
/// replicated, and the wire is that of a plain run.
void summa_multiply(Communicator& comm, const GridSpec& grid,
                    linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c, const abft::AbftConfig& cfg = {},
                    const RecoveryContext& ctx = {},
                    PanelCacheSet* cache = nullptr);

/// Collective 2.5D multiply: the rows x cols grid is replicated
/// `layers` times; each layer computes a disjoint slice of the k-steps
/// and the result is sum-reduced across layers. Requires
/// grid.rows == grid.cols, layers dividing grid.rows, and n divisible
/// by grid.rows. Communicator size and ABFT semantics match
/// summa_multiply.
void multiply_25d(Communicator& comm, const GridSpec& grid,
                  linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                  linalg::MatrixView c, const abft::AbftConfig& cfg = {});

}  // namespace capow::dist
