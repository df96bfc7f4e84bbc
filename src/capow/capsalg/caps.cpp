#include "capow/capsalg/caps.hpp"

#include <atomic>

#include "capow/linalg/partition.hpp"
#include "capow/strassen/counted_ops.hpp"
#include "capow/strassen/frame.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::capsalg {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;
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

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
             std::size_t depth);

/// Runs one CAPS step through the node every Strassen node runs
/// (strassen::node_step) on the classic scheme, its products fanned out
/// on `workers` or run in sequence when that is null, while `buffers`
/// h x h buffers are booked against the CAPS buffer high-water mark: the
/// logical charge the cost model predicts, whatever the workspace arena
/// leases. At the top level each product runs checksum-guarded,
/// whichever traversal runs there, re-forming its operands from the
/// pristine parent quadrants on a retry.
void run_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth, std::size_t buffers,
              tasking::ThreadPool* workers) {
  const std::size_t h = a.rows() / 2;
  const std::uint64_t bytes = buffers * h * h * sizeof(double);
  ctx.track_alloc(bytes);
  strassen::node_step(
      ctx, scheme::kClassic, "caps", 0xca95u, linalg::partition(a),
      linalg::partition(b), linalg::partition(c), h, depth, workers,
      [&](ConstMatrixView l, ConstMatrixView r, MatrixView o) {
        recurse(l, r, o, ctx, depth + 1);
      });
  ctx.track_free(bytes);
}

// ---- BFS level ----------------------------------------------------------
//
// Serially a BFS step is the lean classic node, three physical h x h
// buffers per level; on a pool, down to kTaskSpawnDepth, its seven
// sub-products run as tasks over the parent quadrants. The step still
// books the paper's buffered BFS as logical work: its 21 tracked
// buffers and the copies of its single-quadrant operands here, its
// operand sums and combine additions through the step's counted ops. So
// CapsStats and the cost model keep describing the buffered step while
// the arena leases what Strassen leases.
void bfs_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth) {
  telemetry::SpanScope span("caps.bfs", "caps", "depth", depth, "n", a.rows());
  ctx.bfs_nodes.fetch_add(1, std::memory_order_relaxed);
  const std::size_t h = a.rows() / 2;
  strassen::count_copy(scheme::kClassic.quadrant_operands() * h * h);
  run_step(a, b, c, ctx, depth, 3 * scheme::kProducts.size(),
           ctx.product_workers(depth));
}

// ---- DFS level ----------------------------------------------------------
//
// The seven sub-products run in sequence through the same lean node,
// never as tasks: the program's temporaries are live, and that is what
// the step books.
void dfs_step(ConstMatrixView a, ConstMatrixView b, MatrixView c, Ctx& ctx,
              std::size_t depth) {
  telemetry::SpanScope span("caps.dfs", "caps", "depth", depth, "n", a.rows());
  ctx.dfs_nodes.fetch_add(1, std::memory_order_relaxed);
  run_step(a, b, c, ctx, depth, scheme::kClassic.temporaries(), nullptr);
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
  telemetry::SpanScope span("caps.multiply", "caps", "n", n, "bfs_cutoff_depth",
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
