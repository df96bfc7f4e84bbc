#include "capow/strassen/strassen.hpp"

#include <stdexcept>

#include "capow/linalg/partition.hpp"
#include "capow/strassen/frame.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::strassen {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;

struct Ctx : Frame {
  StrassenOptions opts;
};

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const Ctx& ctx, std::size_t depth) {
  const std::size_t n = a.rows();
  if (n <= ctx.opts.base_cutoff) {
    ctx.base(a, b, c);
    return;
  }
  telemetry::SpanScope span("strassen.recurse", "strassen", "depth", depth,
                            "n", n);
  const bool winograd = ctx.opts.winograd;
  node_step(ctx, scheme::program(winograd),
            winograd ? "strassen-winograd" : "strassen",
            winograd ? 0x57b0u : 0x57a5u, linalg::partition(a),
            linalg::partition(b), linalg::partition(c), n / 2, depth,
            ctx.product_workers(depth),
            [&](ConstMatrixView l, ConstMatrixView r, MatrixView o) {
              recurse(l, r, o, ctx, depth + 1);
            });
}

}  // namespace

std::size_t recursion_levels(std::size_t n, std::size_t base_cutoff) {
  if (base_cutoff == 0) {
    throw std::invalid_argument("recursion_levels: base_cutoff == 0");
  }
  std::size_t levels = 0;
  std::size_t m = n;
  while (m > base_cutoff) {
    m = (m + 1) / 2;
    ++levels;
  }
  return levels;
}

std::size_t peel_dimension(std::size_t n, std::size_t base_cutoff) {
  const std::size_t levels = recursion_levels(n, base_cutoff);
  const std::size_t m = n - n % (std::size_t{1} << levels);
  // n > cutoff * 2^(levels-1), so m >= 2^levels unless the cutoff is 1.
  return m != 0 || levels == 0 ? m : std::size_t{1} << (levels - 1);
}

void multiply(ConstMatrixView a, ConstMatrixView b, MatrixView c,
              const StrassenOptions& opts, tasking::ThreadPool* pool) {
  const Ctx ctx{open_frame("strassen::multiply", a, b, c, opts.base_cutoff,
                           opts.base_kernel, opts.arena, opts.abft, pool),
                opts};
  const std::size_t n = a.rows();
  telemetry::SpanScope span("strassen.multiply", "strassen", "n", n, "winograd",
                            opts.winograd ? 1 : 0);
  if (n == 0) return;
  run_frame(ctx, 0x57ffu, a, b, c,
            [&](ConstMatrixView pa, ConstMatrixView pb, MatrixView pc,
                std::uint64_t salt) {
              Ctx attempt_ctx = ctx;
              attempt_ctx.flip_salt = salt;
              recurse(pa, pb, pc, attempt_ctx, 0);
            });
}

}  // namespace capow::strassen
