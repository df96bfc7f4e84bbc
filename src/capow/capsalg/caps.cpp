#include "capow/capsalg/caps.hpp"

#include <array>
#include <atomic>
#include <optional>

#include "capow/linalg/partition.hpp"
#include "capow/strassen/counted_ops.hpp"
#include "capow/strassen/frame.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/tasking/parallel_for.hpp"
#include "capow/telemetry/telemetry.hpp"

namespace capow::capsalg {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;
using strassen::CountedOps;
namespace scheme = strassen::scheme;

struct Ctx : strassen::Frame {
  CapsOptions opts;
  std::atomic<std::uint64_t> cur_bytes{0};
  std::atomic<std::uint64_t> peak_bytes{0};
  std::atomic<std::uint64_t> bfs_nodes{0};
  std::atomic<std::uint64_t> dfs_nodes{0};
  std::atomic<std::uint64_t> base_products{0};

  void track_alloc(std::uint64_t bytes) {
    const std::uint64_t now =
        cur_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = peak_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void track_free(std::uint64_t bytes) {
    cur_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }
};

/// An h x h scratch matrix whose allocation is charged against the CAPS
/// buffer high-water mark (the "additional buffer memory" of BFS).
/// Physical storage comes from the workspace arena; the *logical* charge
/// stays the exact h*h*8 the cost model predicts, independent of arena
/// size-class rounding or pool reuse. A logical-only buffer (physical
/// false) is charged but leases nothing: the operand it stands for is
/// read in place.
class TrackedMatrix {
 public:
  TrackedMatrix(Ctx& ctx, std::size_t h, bool physical = true)
      : ctx_(&ctx), bytes_(h * h * sizeof(double)) {
    if (physical) m_.emplace(*ctx.arena, h, h);
    ctx_->track_alloc(bytes_);
  }
  ~TrackedMatrix() { ctx_->track_free(bytes_); }
  TrackedMatrix(const TrackedMatrix&) = delete;
  TrackedMatrix& operator=(const TrackedMatrix&) = delete;

  MatrixView view() { return m_->view(); }
  ConstMatrixView cview() const { return m_->view(); }

 private:
  Ctx* ctx_;
  std::uint64_t bytes_;
  std::optional<blas::ArenaMatrix> m_;
};

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
             std::size_t depth);

// ---- BFS level ----------------------------------------------------------
//
// All 14 operand combinations are buffered up front, then the 7
// sub-products run as parallel tasks over disjoint private data, and the
// quadrants of C are assembled in parallel. A single-quadrant operand of
// an unguarded product is read in place: its copy is still booked as
// logical work (trace traffic and tracked bytes), so CapsStats and the
// cost model keep describing the paper's buffered BFS, but no arena
// storage backs it.
//
// A serial unguarded step has no workers to own private sub-problems,
// so it runs the shared classic node (strassen::classic_node): three
// physical h x h buffers per level instead of seventeen. It still books
// the buffered step as logical work: its 21 tracked buffers and the
// copies of its single-quadrant operands here, its operand sums and
// combine additions through the node's counted ops. The node's schedule
// leaves C with the bits of the kCombine evaluation below.
void bfs_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth) {
  CAPOW_TSPAN_ARGS2("caps.bfs", "caps", "depth", depth, "n", a.rows());
  ctx.bfs_nodes.fetch_add(1, std::memory_order_relaxed);
  const auto qa = linalg::partition(a);
  const auto qb = linalg::partition(b);
  const auto qc = linalg::partition(c);
  const std::size_t h = a.rows() / 2;
  const bool guarded = ctx.guards(depth);
  tasking::ThreadPool* const workers = ctx.workers();

  if (!guarded && workers == nullptr) {
    const std::uint64_t buffers =
        (scheme::kOperands + scheme::kProducts.size()) * h * h *
        sizeof(double);
    ctx.track_alloc(buffers);
    strassen::count_copy(scheme::operand_copies() * h * h);
    strassen::classic_node(ctx, qc, h, [&](int i, MatrixView out) {
      strassen::Operands ops;
      ops.form(i, qa, qb, *ctx.arena, h);
      recurse(ops.lhs, ops.rhs, out, ctx, depth + 1);
    });
    ctx.track_free(buffers);
    return;
  }

  // Operand j of the 14: the A side of product j/2 when j is even, else
  // its B side.
  const auto sum = [](int j) -> const scheme::Sum& {
    const scheme::Product& p = scheme::kProducts[j / 2];
    return j % 2 == 0 ? p.a : p.b;
  };
  const auto quadrants = [&](int j) -> const auto& {
    return j % 2 == 0 ? qa : qb;
  };
  const auto in_place = [&](int j) { return !guarded && sum(j).size() == 1; };

  // In-place optionals, not unique_ptr: the buffers themselves lease
  // arena storage, and the handles must not re-introduce a heap
  // allocation per node.
  std::array<std::optional<TrackedMatrix>, 14> buf;
  std::array<ConstMatrixView, 14> operand;
  std::array<std::optional<TrackedMatrix>, 7> q;
  for (int j = 0; j < 14; ++j) {
    buf[j].emplace(ctx, h, !in_place(j));
    operand[j] = in_place(j)
                     ? scheme::quadrant(quadrants(j), sum(j).index(0))
                     : buf[j]->cview();
    if (j % 2 == 1) q[j / 2].emplace(ctx, h);
  }
  const auto materialize = [&](int j) {
    if (in_place(j)) {
      strassen::count_copy(h * h);
    } else {
      scheme::materialize(sum(j), quadrants(j), buf[j]->view(), CountedOps{});
    }
  };

  // Stage 1: materialize the 14 private operands.
  strassen::fan_out(workers, 14, materialize);

  // Stage 2: the seven sub-products, breadth-first on disjoint workers.
  // At the top level each product can run checksum-guarded: the private
  // operands make recovery cheap — a damaged product is re-materialized
  // from the pristine parent quadrants and re-run, without touching its
  // siblings. Deeper flips still surface in the depth-0 checksums.
  strassen::fan_out(workers, 7, [&](int i) {
    const MatrixView out = q[i]->view();
    if (!guarded) {
      recurse(operand[2 * i], operand[2 * i + 1], out, ctx, depth + 1);
      return;
    }
    strassen::guarded_product(
        ctx, "caps", 0xca95u, i, out,
        [&](int attempt) {
          if (attempt > 0) {
            // A compute.flip corrupted the private copies, never the
            // caller's quadrants.
            materialize(2 * i);
            materialize(2 * i + 1);
          }
          return strassen::AttemptOperands{operand[2 * i], operand[2 * i + 1],
                                           buf[2 * i]->view(),
                                           buf[2 * i + 1]->view()};
        },
        [&](ConstMatrixView lhs, ConstMatrixView rhs, std::uint64_t key) {
          recurse(lhs, rhs, out, ctx, depth + 1);
          abft::inject_flip(fault::Site::kMemFlip, fault::key(key, 3), out);
        });
  });

  // Stage 3: assemble C (one job per quadrant).
  strassen::fan_out(workers, 4, [&](int quad) {
    scheme::evaluate(
        scheme::kCombine[quad],
        [&](std::size_t i) { return q[i]->cview(); },
        scheme::quadrant(qc, quad), CountedOps{});
  });
}

// ---- DFS level ----------------------------------------------------------
//
// The seven sub-products run in sequence; additions are work-shared
// across all workers when the quadrants are large enough. Only one
// product buffer is live at a time (the memory the BFS levels trade
// away), with results streamed into C via in-place accumulation.

/// The counted ops, work-shared over row blocks when the quadrants are
/// large enough to pay for it.
struct SharedOps {
  Ctx& ctx;

  template <typename Op, typename... Views>
  void rows(Op&& op, MatrixView dst, Views... srcs) const {
    const auto block = [](auto v, std::size_t lo, std::size_t hi) {
      return v.block(lo, 0, hi - lo, v.cols());
    };
    const auto run = [&](std::size_t lo, std::size_t hi) {
      op(block(srcs, lo, hi)..., block(dst, lo, hi));
    };
    if (ctx.workers() != nullptr &&
        dst.rows() >= ctx.opts.dfs_parallel_threshold) {
      tasking::parallel_for(*ctx.pool, 0, dst.rows(), run);
      trace::count_sync();
    } else {
      run(0, dst.rows());
    }
  }
  void binary(ConstMatrixView x, ConstMatrixView y, MatrixView dst,
              bool subtract) const {
    rows(
        [subtract](auto a, auto b, auto d) {
          CountedOps{}.binary(a, b, d, subtract);
        },
        dst, x, y);
  }
  void accumulate(MatrixView dst, ConstMatrixView src, bool subtract) const {
    rows(
        [subtract](auto s, auto d) {
          CountedOps{}.accumulate(d, s, subtract);
        },
        dst, src);
  }
};

void dfs_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth) {
  CAPOW_TSPAN_ARGS2("caps.dfs", "caps", "depth", depth, "n", a.rows());
  ctx.dfs_nodes.fetch_add(1, std::memory_order_relaxed);
  const auto qa = linalg::partition(a);
  const auto qb = linalg::partition(b);
  const auto qc = linalg::partition(c);
  const std::size_t h = a.rows() / 2;
  const SharedOps ops{ctx};

  c.zero();
  trace::count_dram_write(c.size() * sizeof(double));

  TrackedMatrix q(ctx, h);
  for (int i = 0; i < 7; ++i) {
    {
      // This product's operands (transient temporaries only).
      const scheme::Product& p = scheme::kProducts[i];
      std::optional<TrackedMatrix> ta;
      std::optional<TrackedMatrix> tb;
      const ConstMatrixView lhs = scheme::operand(
          p.a, qa, [&] { return ta.emplace(ctx, h).view(); }, ops);
      const ConstMatrixView rhs = scheme::operand(
          p.b, qb, [&] { return tb.emplace(ctx, h).view(); }, ops);
      recurse(lhs, rhs, q.view(), ctx, depth + 1);
    }
    // Stream the product into the C quadrants it contributes to.
    scheme::scatter(static_cast<std::size_t>(i), q.cview(), qc, ops);
  }
}

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
             std::size_t depth) {
  const std::size_t n = a.rows();
  if (n <= ctx.opts.base_cutoff) {
    ctx.base_products.fetch_add(1, std::memory_order_relaxed);
    ctx.base(a, b, c);
    return;
  }
  if (depth < ctx.opts.bfs_cutoff_depth) {
    bfs_step(a, b, c, ctx, depth);
  } else {
    dfs_step(a, b, c, ctx, depth);
  }
}

}  // namespace

void multiply(ConstMatrixView a, ConstMatrixView b, MatrixView c,
              const CapsOptions& opts, tasking::ThreadPool* pool,
              CapsStats* stats) {
  Ctx ctx{strassen::open_frame("capsalg::multiply", a, b, c,
                               opts.base_cutoff, opts.base_kernel, opts.arena,
                               opts.abft, pool),
          opts};
  const std::size_t n = a.rows();
  CAPOW_TSPAN_ARGS2("caps.multiply", "caps", "n", n, "bfs_cutoff_depth",
                    opts.bfs_cutoff_depth);
  if (n == 0) {
    if (stats != nullptr) *stats = CapsStats{};
    return;
  }

  // Ctx is shared (the traversal counters are atomics), so the
  // per-attempt flip salt is set here, at the only single-threaded point.
  strassen::run_frame(
      ctx, 0xca9fu, a, b, c,
      [&](ConstMatrixView pa, ConstMatrixView pb, MatrixView pc,
          std::uint64_t salt) {
        ctx.flip_salt = salt;
        // Padded copies of A, B and C count as CAPS buffer memory.
        const std::uint64_t pad_bytes =
            pa.rows() == n ? 0 : 3 * pa.size() * sizeof(double);
        ctx.track_alloc(pad_bytes);
        recurse(pa, pb, pc, ctx, 0);
        ctx.track_free(pad_bytes);
      });

  if (stats != nullptr) {
    stats->peak_buffer_bytes =
        ctx.peak_bytes.load(std::memory_order_relaxed);
    stats->bfs_nodes = ctx.bfs_nodes.load(std::memory_order_relaxed);
    stats->dfs_nodes = ctx.dfs_nodes.load(std::memory_order_relaxed);
    stats->base_products =
        ctx.base_products.load(std::memory_order_relaxed);
  }
}

}  // namespace capow::capsalg
