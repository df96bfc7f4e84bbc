#include "capow/capsalg/caps.hpp"

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

/// An h x h DFS scratch matrix whose allocation is charged against the
/// CAPS buffer high-water mark. Physical storage comes from the
/// workspace arena; the *logical* charge stays the exact h*h*8 the cost
/// model predicts, independent of arena size-class rounding or pool
/// reuse.
class TrackedMatrix {
 public:
  TrackedMatrix(Ctx& ctx, std::size_t h)
      : ctx_(&ctx), bytes_(h * h * sizeof(double)), m_(*ctx.arena, h, h) {
    ctx_->track_alloc(bytes_);
  }
  ~TrackedMatrix() { ctx_->track_free(bytes_); }
  TrackedMatrix(const TrackedMatrix&) = delete;
  TrackedMatrix& operator=(const TrackedMatrix&) = delete;

  MatrixView view() { return m_.view(); }
  ConstMatrixView cview() const { return m_.view(); }

 private:
  Ctx* ctx_;
  std::uint64_t bytes_;
  blas::ArenaMatrix m_;
};

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
             std::size_t depth);

// ---- BFS level ----------------------------------------------------------
//
// A BFS step runs the classic step every Strassen node runs
// (strassen::classic_step): serially the lean classic node, three
// physical h x h buffers per level; on a pool, down to kTaskSpawnDepth,
// the seven sub-products as tasks over the parent quadrants. At the top
// level each product can run checksum-guarded, re-forming its operands
// from the pristine parent quadrants on a retry. The step still books
// the paper's buffered BFS as logical work: its 21 tracked buffers and
// the copies of its single-quadrant operands here, its operand sums and
// combine additions through the step's counted ops. So CapsStats and the
// cost model keep describing the buffered step while the arena leases
// what Strassen leases.
void bfs_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth) {
  CAPOW_TSPAN_ARGS2("caps.bfs", "caps", "depth", depth, "n", a.rows());
  ctx.bfs_nodes.fetch_add(1, std::memory_order_relaxed);
  const std::size_t h = a.rows() / 2;
  const std::uint64_t buffers =
      (scheme::kOperands + scheme::kProducts.size()) * h * h * sizeof(double);
  ctx.track_alloc(buffers);
  strassen::count_copy(scheme::operand_copies() * h * h);
  strassen::classic_step(
      ctx, "caps", 0xca95u, linalg::partition(a), linalg::partition(b),
      linalg::partition(c), h, depth,
      [&](ConstMatrixView l, ConstMatrixView r, MatrixView o) {
        recurse(l, r, o, ctx, depth + 1);
      });
  ctx.track_free(buffers);
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
  // per-attempt flip salt is set here, before the recursion fans out;
  // the border products run_frame may run beside it read no Ctx.
  strassen::run_frame(
      ctx, 0xca9fu, a, b, c,
      [&](ConstMatrixView pa, ConstMatrixView pb, MatrixView pc,
          std::uint64_t salt) {
        ctx.flip_salt = salt;
        recurse(pa, pb, pc, ctx, 0);
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
