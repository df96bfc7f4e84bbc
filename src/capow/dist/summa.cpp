#include "capow/dist/summa.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "capow/abft/checksum.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::dist {

namespace {

using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;

constexpr int kScatterA = 500;
constexpr int kScatterB = 501;
constexpr int kGatherC = 502;
constexpr int kRowBcastBase = 1000;  // + step
constexpr int kColBcastBase = 2000;  // + step
constexpr int kReplicateA = 3000;
constexpr int kReplicateB = 3001;
constexpr int kLayerReduce = 3002;
constexpr int kPanelReplica = 3100;  // + owner grid rank
constexpr int kPanelRestore = 3200;  // + owner grid rank

struct RankCoord {
  int i;      // grid row
  int j;      // grid column
  int layer;  // replication layer
};

RankCoord coord_of(int rank, const GridSpec& g) {
  const int per_layer = g.rows * g.cols;
  return RankCoord{(rank % per_layer) / g.cols, rank % g.cols,
                   rank / per_layer};
}

int rank_of(int i, int j, int layer, const GridSpec& g) {
  return (layer * g.rows + i) * g.cols + j;
}

/// Per-collective ABFT state, fixed before any traffic and identical on
/// every rank (mode/tolerance from the shared config, salt from the
/// collective attempt number) — so all ranks agree on the wire format.
struct AbftState {
  abft::AbftMode mode = abft::AbftMode::kOff;
  bool flips = false;           ///< flip fault sites armed this run
  std::uint64_t salt = 0;       ///< collective attempt number
};

/// Appends the end-to-end checksum word in detect/correct mode. The
/// off-mode payload is byte-identical to the pre-ABFT protocol.
void checked_send(Communicator& comm, const AbftState& st, int dest, int tag,
                  std::vector<double> payload) {
  if (st.mode != abft::AbftMode::kOff) {
    payload.push_back(abft::payload_checksum(payload.data(), payload.size()));
  }
  comm.send(dest, tag, payload);
}

/// Receives a payload, injects any armed mem.flip (keyed on the logical
/// route, not arrival order), then checks the sender's checksum word
/// bitwise. Detect mode throws on mismatch; correct mode records the
/// detection and hands the damaged payload on — the root's end-to-end
/// verdict triggers the collective re-run that actually repairs it (the
/// sender has long moved on, so there is nobody to ask for a resend).
std::vector<double> checked_recv(Communicator& comm, const AbftState& st,
                                 int src, int tag) {
  const Message msg = comm.recv(src, tag);
  std::vector<double> payload(msg.payload.begin(), msg.payload.end());
  if (st.mode == abft::AbftMode::kOff) return payload;
  if (payload.empty()) {
    throw abft::AbftError("abft: checksummed message arrived empty");
  }
  const double sent = payload.back();
  payload.pop_back();
  if (st.flips) {
    fault::maybe_flip(
        fault::Site::kMemFlip,
        fault::key(0x5077u, st.salt,
                   fault::key(static_cast<std::uint64_t>(tag),
                              static_cast<std::uint64_t>(src),
                              static_cast<std::uint64_t>(comm.rank()))),
        payload.data(), 1, payload.size(), payload.size());
  }
  const double got = abft::payload_checksum(payload.data(), payload.size());
  if (std::memcmp(&sent, &got, sizeof(double)) != 0) {
    abft::record_detected();
    if (st.mode == abft::AbftMode::kDetect) {
      throw abft::AbftError(
          "abft: message checksum mismatch (tag " + std::to_string(tag) +
          ", " + std::to_string(src) + " -> " + std::to_string(comm.rank()) +
          ")");
    }
  }
  return payload;
}

// Root scatters the (i, j) blocks of `m` to layer-0 ranks, which store
// theirs in `mine` (nb x nb).
void scatter_blocks(Communicator& comm, const GridSpec& g,
                    const AbftState& st, ConstMatrixView m, MatrixView mine,
                    int tag) {
  const std::size_t nb = mine.rows();
  telemetry::SpanScope span("summa.scatter", "dist", "nb", nb);
  const RankCoord me = coord_of(comm.rank(), g);
  if (comm.rank() == 0) {
    for (int i = 0; i < g.rows; ++i) {
      for (int j = 0; j < g.cols; ++j) {
        auto block = m.block(i * nb, j * nb, nb, nb);
        const int dest = rank_of(i, j, 0, g);
        if (dest == 0) {
          linalg::copy(block, mine);
        } else {
          checked_send(comm, st, dest, tag, flatten(block));
        }
      }
    }
  } else if (me.layer == 0) {
    unflatten(checked_recv(comm, st, 0, tag), mine);
  }
}

void gather_blocks(Communicator& comm, const GridSpec& g, const AbftState& st,
                   ConstMatrixView mine, MatrixView out, std::size_t nb) {
  telemetry::SpanScope span("summa.gather", "dist", "nb", nb);
  const RankCoord me = coord_of(comm.rank(), g);
  if (comm.rank() == 0) {
    for (int i = 0; i < g.rows; ++i) {
      for (int j = 0; j < g.cols; ++j) {
        auto block = out.block(i * nb, j * nb, nb, nb);
        const int src = rank_of(i, j, 0, g);
        if (src == 0) {
          linalg::copy(mine, block);
        } else {
          unflatten(checked_recv(comm, st, src, kGatherC), block);
        }
      }
    }
  } else if (me.layer == 0) {
    checked_send(comm, st, 0, kGatherC, flatten(mine));
  }
}

// Layer 0 replicates its scattered blocks to the other layers (the
// c-fold memory cost that buys the communication reduction).
void replicate_layers(Communicator& comm, const GridSpec& g,
                      const AbftState& st, const RankCoord& me,
                      MatrixView a_own, MatrixView b_own) {
  telemetry::SpanScope span("summa.replicate", "dist", "layer", me.layer);
  if (me.layer == 0) {
    for (int l = 1; l < g.layers; ++l) {
      checked_send(comm, st, rank_of(me.i, me.j, l, g), kReplicateA,
                   flatten(a_own));
      checked_send(comm, st, rank_of(me.i, me.j, l, g), kReplicateB,
                   flatten(b_own));
    }
  } else {
    unflatten(checked_recv(comm, st, rank_of(me.i, me.j, 0, g), kReplicateA),
              a_own);
    unflatten(checked_recv(comm, st, rank_of(me.i, me.j, 0, g), kReplicateB),
              b_own);
  }
}

// Sum-reduces the layers' partial C blocks onto layer 0.
void reduce_layers(Communicator& comm, const GridSpec& g, const AbftState& st,
                   const RankCoord& me, MatrixView c_acc) {
  telemetry::SpanScope span("summa.layer_reduce", "dist", "layer", me.layer);
  if (me.layer == 0) {
    Matrix part(c_acc.rows(), c_acc.cols());
    for (int l = 1; l < g.layers; ++l) {
      unflatten(checked_recv(comm, st, rank_of(me.i, me.j, l, g),
                             kLayerReduce),
                part.view());
      linalg::add_inplace(c_acc, part.view());
    }
  } else {
    checked_send(comm, st, rank_of(me.i, me.j, 0, g), kLayerReduce,
                 flatten(c_acc));
  }
}

// One SUMMA k-step inside a layer: the step's owner column/row
// broadcasts its A/B block along its grid row/column, everyone
// accumulates.
void summa_step(Communicator& comm, const GridSpec& g, const AbftState& st,
                const RankCoord& me, int step, ConstMatrixView a_own,
                ConstMatrixView b_own, Matrix& a_panel, Matrix& b_panel,
                MatrixView c_acc) {
  telemetry::SpanScope span("summa.step", "dist", "step", step, "layer",
                            me.layer);
  // A broadcast along the row.
  if (me.j == step) {
    for (int j = 0; j < g.cols; ++j) {
      if (j == me.j) continue;
      checked_send(comm, st, rank_of(me.i, j, me.layer, g),
                   kRowBcastBase + step, flatten(a_own));
    }
    linalg::copy(a_own, a_panel.view());
  } else {
    unflatten(checked_recv(comm, st, rank_of(me.i, step, me.layer, g),
                           kRowBcastBase + step),
              a_panel.view());
  }
  // B broadcast along the column.
  if (me.i == step) {
    for (int i = 0; i < g.rows; ++i) {
      if (i == me.i) continue;
      checked_send(comm, st, rank_of(i, me.j, me.layer, g),
                   kColBcastBase + step, flatten(b_own));
    }
    linalg::copy(b_own, b_panel.view());
  } else {
    unflatten(checked_recv(comm, st, rank_of(step, me.j, me.layer, g),
                           kColBcastBase + step),
              b_panel.view());
  }
  strassen::base_gemm_accumulate(a_panel.view(), b_panel.view(), c_acc);
  // Local-accumulator corruption: invisible to the message checksums,
  // caught only by the root's end-to-end verdict.
  if (st.flips) {
    fault::maybe_flip(
        fault::Site::kComputeFlip,
        fault::key(0x50c0u, st.salt,
                   fault::key(static_cast<std::uint64_t>(step),
                              static_cast<std::uint64_t>(me.i),
                              static_cast<std::uint64_t>(me.j))),
        c_acc.data(), c_acc.rows(), c_acc.cols(), c_acc.ld());
  }
}

// Rank 0 validates and announces the dimension; 0 (also an empty
// product's) means "abort", which every rank turns into the same
// exception. Validating *before* any
// point-to-point traffic is what keeps a bad root call from deadlocking
// the other ranks in recv().
std::size_t negotiate_dim(Communicator& comm, ConstMatrixView a,
                          ConstMatrixView b, ConstMatrixView c,
                          const GridSpec& g) {
  std::vector<double> dims(1, 0.0);
  if (comm.rank() == 0 &&
      !linalg::product_error(a, b, c, {.square = true, .disjoint = false}) &&
      a.rows() % g.rows == 0) {
    dims[0] = static_cast<double>(a.rows());
  }
  comm.broadcast(0, dims);
  if (dims[0] == 0.0) {
    throw std::invalid_argument(
        "summa: root operands must be square, equal, nonempty, and "
        "divisible by the grid dimension");
  }
  return static_cast<std::size_t>(dims[0]);
}

// Shared collective driver: run_attempt executes one full scattered
// multiply into c; the root then verifies it end-to-end and broadcasts
// the verdict so every rank takes the same branch (a rank deciding
// alone would desynchronize the collective). Retries re-run from the
// pristine root operands with a fresh flip salt.
template <typename RunAttempt>
void guarded_collective(Communicator& comm, ConstMatrixView a,
                        ConstMatrixView b, MatrixView c,
                        const abft::AbftConfig& cfg, AbftState& st,
                        const char* what, RunAttempt&& run_attempt) {
  st.mode = abft::resolve_mode(cfg);
  st.flips = abft::flips_armed();
  if (st.mode == abft::AbftMode::kOff) {
    st.salt = 0;
    run_attempt();
    return;
  }

  std::optional<abft::AbftGuard> guard;
  if (comm.rank() == 0) {
    guard.emplace(a, b, blas::WorkspaceArena::process_arena(),
                  cfg.tolerance);
  }
  for (int attempt = 0;; ++attempt) {
    st.salt = static_cast<std::uint64_t>(attempt);
    run_attempt();
    std::vector<double> verdict(1, 1.0);
    if (comm.rank() == 0) {
      verdict[0] = guard->verify(c).ok ? 1.0 : 0.0;
    }
    comm.broadcast(0, verdict);
    if (verdict[0] == 1.0) return;
    if (st.mode == abft::AbftMode::kDetect) {
      throw abft::AbftError(std::string("abft: silent corruption detected "
                                        "in ") +
                            what + " result");
    }
    if (attempt >= cfg.max_retries) {
      throw abft::AbftError(std::string("abft: ") + what +
                            " result still corrupt after " +
                            std::to_string(attempt + 1) + " attempt(s)");
    }
    if (comm.rank() == 0) abft::record_retried();
  }
}

/// [a | b | a_sum | b_sum] — the wire form a slot travels in, both for
/// generation-0 replication and for the restore to a replacement rank.
std::vector<double> slot_payload(const PanelSlot& slot) {
  std::vector<double> payload;
  payload.reserve(slot.a.size() + slot.b.size() + 2);
  payload.insert(payload.end(), slot.a.begin(), slot.a.end());
  payload.insert(payload.end(), slot.b.begin(), slot.b.end());
  payload.push_back(slot.a_sum);
  payload.push_back(slot.b_sum);
  return payload;
}

/// Inverse of slot_payload, verifying both checksum words *bitwise*
/// against a fresh recomputation — a reconstruction that is not the
/// exact replicated bytes is rejected, never silently used.
PanelSlot slot_from_payload(std::span<const double> payload, std::size_t nb,
                            const char* what) {
  const std::size_t panel = nb * nb;
  if (payload.size() != 2 * panel + 2) {
    throw abft::AbftError(std::string("abft: ") + what +
                          " panel payload has wrong size");
  }
  PanelSlot slot;
  slot.nb = nb;
  slot.a.assign(payload.begin(), payload.begin() + panel);
  slot.b.assign(payload.begin() + panel, payload.begin() + 2 * panel);
  slot.a_sum = payload[2 * panel];
  slot.b_sum = payload[2 * panel + 1];
  const double a_got = abft::payload_checksum(slot.a.data(), slot.a.size());
  const double b_got = abft::payload_checksum(slot.b.data(), slot.b.size());
  if (std::memcmp(&slot.a_sum, &a_got, sizeof(double)) != 0 ||
      std::memcmp(&slot.b_sum, &b_got, sizeof(double)) != 0) {
    abft::record_detected();
    throw abft::AbftError(std::string("abft: ") + what +
                          " panel checksum mismatch");
  }
  slot.valid = true;
  return slot;
}

PanelSlot make_slot(ConstMatrixView a_own, ConstMatrixView b_own) {
  PanelSlot slot;
  slot.nb = a_own.rows();
  slot.a = flatten(a_own);
  slot.b = flatten(b_own);
  slot.a_sum = abft::payload_checksum(slot.a.data(), slot.a.size());
  slot.b_sum = abft::payload_checksum(slot.b.data(), slot.b.size());
  slot.valid = true;
  return slot;
}

bool contains_rank(const std::vector<int>& ranks, int r) {
  for (int x : ranks) {
    if (x == r) return true;
  }
  return false;
}

/// What an elastic run does with the panel cache in this generation.
enum class PanelPlan {
  kNone,       ///< plain run, or the cache cannot help
  kReplicate,  ///< generation 0 under respawn: fill the cache
  kRestore,    ///< recovered generation: rebuild from the cache
};

/// Every input (shared cache state after the previous generation's join,
/// the agreed failed set, the policy, the grid geometry, the identity of
/// the virtual->physical mapping) is identical on every rank and —
/// because recv outcomes are dataflow-deterministic — identical across
/// identical runs, so all ranks of all runs take the same branch.
PanelPlan plan_panels(const PanelCacheSet* cache, const RecoveryContext& ctx,
                      bool identity_mapping, int grid_ranks,
                      std::size_t nb) {
  // Replication traffic is real comm and costs bandwidth, so it is spent
  // only when a death would be respawned. Physical-rank-keyed slots
  // only line up with virtual grid positions when the mapping is the
  // identity (respawn); a shrunk world re-maps.
  if (cache == nullptr || ctx.policy != RecoveryPolicy::kRespawn ||
      !identity_mapping ||
      cache->own.size() < static_cast<std::size_t>(grid_ranks) ||
      cache->replica.size() < static_cast<std::size_t>(grid_ranks)) {
    return PanelPlan::kNone;
  }
  if (!ctx.recovered()) {
    return grid_ranks > 1 ? PanelPlan::kReplicate : PanelPlan::kNone;
  }
  if (ctx.failed_ranks.empty()) return PanelPlan::kNone;
  for (int r = 0; r < grid_ranks; ++r) {
    if (!contains_rank(ctx.failed_ranks, r)) {
      const PanelSlot& own = cache->own[static_cast<std::size_t>(r)];
      if (!own.valid || own.nb != nb) return PanelPlan::kNone;
    } else {
      // The dead rank's panels live with its buddy — who must itself be
      // alive and must have completed the replication recv in time.
      const int holder = (r + 1) % grid_ranks;
      if (holder == r || contains_rank(ctx.failed_ranks, holder)) {
        return PanelPlan::kNone;
      }
      const PanelSlot& rep = cache->replica[static_cast<std::size_t>(r)];
      if (!rep.valid || rep.nb != nb) return PanelPlan::kNone;
    }
  }
  return PanelPlan::kRestore;
}

// Buddy replication: each grid rank ships its checksummed panels one
// rank clockwise and keeps the copy its counter-clockwise neighbour
// ships.
void replicate_panels(Communicator& comm, PanelCacheSet& cache,
                      ConstMatrixView a_own, ConstMatrixView b_own) {
  const int r = comm.rank();
  telemetry::SpanScope span("summa.replicate_panels", "dist", "rank", r);
  PanelSlot mine = make_slot(a_own, b_own);
  const int buddy = (r + 1) % comm.size();
  const int owner = (r - 1 + comm.size()) % comm.size();
  comm.send(buddy, kPanelReplica + r, slot_payload(mine));
  const Message m = comm.recv(owner, kPanelReplica + owner);
  cache.replica[static_cast<std::size_t>(owner)] =
      slot_from_payload(m.payload, a_own.rows(), "replicated");
  cache.own[static_cast<std::size_t>(r)] = std::move(mine);
}

// Reconstruction: buddies restore the dead ranks' panels over the wire
// (deterministic order: ascending victim), survivors reload their own
// cached copies, and nobody re-touches the root operands.
void restore_panels(Communicator& comm, const PanelCacheSet& cache,
                    const RecoveryContext& ctx, MatrixView a_own,
                    MatrixView b_own) {
  const int r = comm.rank();
  telemetry::SpanScope span("summa.restore_panels", "dist", "rank", r,
                            "failed", ctx.failed_ranks.size());
  for (int v : ctx.failed_ranks) {
    if (v >= comm.size()) continue;  // dead idle spare: nothing lost
    const int holder = (v + 1) % comm.size();
    if (r == holder) {
      comm.send(v, kPanelRestore + v,
                slot_payload(cache.replica[static_cast<std::size_t>(v)]));
    } else if (r == v) {
      const Message m = comm.recv(holder, kPanelRestore + v);
      const PanelSlot got =
          slot_from_payload(m.payload, a_own.rows(), "restored");
      unflatten(got.a, a_own);
      unflatten(got.b, b_own);
    }
  }
  if (!contains_rank(ctx.failed_ranks, r)) {
    const PanelSlot& own = cache.own[static_cast<std::size_t>(r)];
    unflatten(own.a, a_own);
    unflatten(own.b, b_own);
  }
}

// The one SUMMA collective behind summa_multiply and multiply_25d. Every
// rank of `comm` takes part in the dimension negotiation; the first
// grid.ranks() then run, inside guarded_collective: scatter (or, in a
// recovered respawn generation, restore from the panel cache), replicate
// across layers, the layer's slice of the k-steps, reduce across layers,
// gather.
void run_grid(Communicator& comm, const GridSpec& grid, ConstMatrixView a,
              ConstMatrixView b, MatrixView c, const abft::AbftConfig& cfg,
              const RecoveryContext& ctx, PanelCacheSet* cache,
              const char* what) {
  if (comm.size() < grid.ranks()) {
    throw std::invalid_argument(std::string(what) +
                                ": communicator smaller than the grid");
  }
  const std::size_t n = negotiate_dim(comm, a, b, c, grid);
  const int grid_ranks = grid.ranks();
  if (comm.rank() >= grid_ranks) return;  // idle spare
  Communicator grid_comm = comm.sub(grid_ranks);

  const std::size_t nb = n / static_cast<std::size_t>(grid.rows);
  const RankCoord me = coord_of(grid_comm.rank(), grid);
  const PanelPlan plan = plan_panels(
      cache, ctx, comm.size() == comm.world_size(), grid_ranks, nb);

  AbftState st;
  guarded_collective(grid_comm, a, b, c, cfg, st, what, [&] {
    Matrix a_own(nb, nb), b_own(nb, nb);
    if (plan == PanelPlan::kRestore) {
      restore_panels(grid_comm, *cache, ctx, a_own.view(), b_own.view());
    } else {
      scatter_blocks(grid_comm, grid, st, a, a_own.view(), kScatterA);
      scatter_blocks(grid_comm, grid, st, b, b_own.view(), kScatterB);
      // Only the first ABFT attempt replicates — a retry re-scatters the
      // same operands, so the cache is already exact (and both sides
      // branch on st.salt, staying matched).
      if (plan == PanelPlan::kReplicate && st.salt == 0) {
        replicate_panels(grid_comm, *cache, a_own.view(), b_own.view());
      }
    }
    if (grid.layers > 1) {
      replicate_layers(grid_comm, grid, st, me, a_own.view(), b_own.view());
    }

    Matrix c_acc = Matrix::zeros(nb);
    Matrix a_panel(nb, nb), b_panel(nb, nb);
    const int steps_per_layer = grid.rows / grid.layers;
    const int first = me.layer * steps_per_layer;
    for (int s = 0; s < steps_per_layer; ++s) {
      summa_step(grid_comm, grid, st, me, first + s, a_own.view(),
                 b_own.view(), a_panel, b_panel, c_acc.view());
    }

    if (grid.layers > 1) reduce_layers(grid_comm, grid, st, me, c_acc.view());
    gather_blocks(grid_comm, grid, st, c_acc.view(), c, nb);
  });
}

}  // namespace

void GridSpec::validate() const {
  if (rows <= 0 || cols <= 0 || layers <= 0) {
    throw std::invalid_argument("GridSpec: non-positive dimension");
  }
  if (rows != cols) {
    throw std::invalid_argument("GridSpec: this implementation requires a "
                                "square in-plane grid");
  }
  if (rows % layers != 0) {
    throw std::invalid_argument(
        "GridSpec: layers must divide the grid dimension");
  }
}

GridSpec GridSpec::largest_square(std::size_t n, int ranks) noexcept {
  int g = 1;
  for (int cand = 2; cand * cand <= ranks; ++cand) {
    if (n % static_cast<std::size_t>(cand) == 0) g = cand;
  }
  return GridSpec{g, g, 1};
}

void summa_multiply(Communicator& comm, const GridSpec& grid,
                    ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    const abft::AbftConfig& cfg, const RecoveryContext& ctx,
                    PanelCacheSet* cache) {
  grid.validate();
  if (grid.layers != 1) {
    throw std::invalid_argument("summa_multiply: layers must be 1");
  }
  telemetry::SpanScope span("summa.multiply", "dist", "rank", comm.rank());
  run_grid(comm, grid, a, b, c, cfg, ctx, cache, "summa");
}

void multiply_25d(Communicator& comm, const GridSpec& grid,
                  ConstMatrixView a, ConstMatrixView b, MatrixView c,
                  const abft::AbftConfig& cfg) {
  grid.validate();
  telemetry::SpanScope span("summa.multiply_25d", "dist", "rank", comm.rank(),
                            "layers", grid.layers);
  run_grid(comm, grid, a, b, c, cfg, RecoveryContext{}, nullptr,
           "2.5D multiply");
}

}  // namespace capow::dist
