#include "capow/strassen/strassen.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "capow/linalg/partition.hpp"
#include "capow/strassen/counted_ops.hpp"
#include "capow/strassen/frame.hpp"
#include "capow/telemetry/telemetry.hpp"

namespace capow::strassen {

namespace {

using blas::ArenaMatrix;
using linalg::ConstMatrixView;
using linalg::MatrixView;
using linalg::Quadrants;

struct Ctx : Frame {
  StrassenOptions opts;
};

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const Ctx& ctx, std::size_t depth);

// Winograd variant (15 additions): S/T operand sums computed up front,
// seven products P1..P7, then the U-chain combine. Buffers are reused in
// the combine exactly as annotated so that the op count stays at 15.
void recurse_winograd(const Quadrants<ConstMatrixView>& qa,
                      const Quadrants<ConstMatrixView>& qb,
                      const Quadrants<MatrixView>& qc, std::size_t h,
                      const Ctx& ctx, std::size_t depth) {
  ArenaMatrix s1(*ctx.arena, h, h), s2(*ctx.arena, h, h),
      s3(*ctx.arena, h, h), s4(*ctx.arena, h, h);
  ArenaMatrix t1(*ctx.arena, h, h), t2(*ctx.arena, h, h),
      t3(*ctx.arena, h, h), t4(*ctx.arena, h, h);
  counted_add(qa.q21, qa.q22, s1.view());  // S1 = A21 + A22
  counted_sub(s1.view(), qa.q11, s2.view());  // S2 = S1 - A11
  counted_sub(qa.q11, qa.q21, s3.view());  // S3 = A11 - A21
  counted_sub(qa.q12, s2.view(), s4.view());  // S4 = A12 - S2
  counted_sub(qb.q12, qb.q11, t1.view());  // T1 = B12 - B11
  counted_sub(qb.q22, t1.view(), t2.view());  // T2 = B22 - T1
  counted_sub(qb.q22, qb.q12, t3.view());  // T3 = B22 - B12
  counted_sub(t2.view(), qb.q21, t4.view());  // T4 = T2 - B21

  auto p = blas::make_arena_matrices<7>(*ctx.arena, h, h);

  const std::array<std::pair<ConstMatrixView, ConstMatrixView>, 7> operands{{
      {qa.q11, qb.q11},
      {qa.q12, qb.q21},
      {s4.cview(), qb.q22},
      {qa.q22, t4.cview()},
      {s1.cview(), t1.cview()},
      {s2.cview(), t2.cview()},
      {s3.cview(), t3.cview()},
  }};

  // The Winograd S/T temporaries are shared across products, so the
  // guarded path injects (and recovers from) result corruption only;
  // operand corruption is exercised through the classic scheme and the
  // packed-panel site in blas::gemm.
  fan_out(ctx.product_workers(depth), 7, [&](int i) {
    const auto [lhs, rhs] = operands[i];
    const MatrixView out = p[i].view();
    if (!ctx.guards(depth)) {
      recurse(lhs, rhs, out, ctx, depth + 1);
      return;
    }
    guarded_product(
        ctx, "strassen-winograd", 0x57b0u, i, out,
        [&](int) { return AttemptOperands{lhs, rhs, {}, {}}; },
        [&](ConstMatrixView l, ConstMatrixView r, std::uint64_t key) {
          recurse(l, r, out, ctx, depth + 1);
          abft::inject_flip(fault::Site::kMemFlip, key, out);
        });
  });

  counted_add(p[0].view(), p[1].view(), qc.q11);      // C11 = P1 + P2
  counted_add_inplace(p[5].view(), p[0].view());      // P6 <- U2 = P1 + P6
  counted_add_inplace(p[6].view(), p[5].view());      // P7 <- U3 = U2 + P7
  counted_add(p[6].view(), p[4].view(), qc.q22);      // C22 = U3 + P5
  counted_add_inplace(p[4].view(), p[5].view());      // P5 <- U4 = U2 + P5
  counted_add(p[4].view(), p[2].view(), qc.q12);      // C12 = U4 + P3
  counted_sub(p[6].view(), p[3].view(), qc.q21);      // C21 = U3 - P4
}

void recurse(ConstMatrixView a, ConstMatrixView b, MatrixView c,
             const Ctx& ctx, std::size_t depth) {
  const std::size_t n = a.rows();
  if (n <= ctx.opts.base_cutoff) {
    ctx.base(a, b, c);
    return;
  }
  CAPOW_TSPAN_ARGS2("strassen.recurse", "strassen", "depth", depth, "n", n);
  const auto qa = linalg::partition(a);
  const auto qb = linalg::partition(b);
  const auto qc = linalg::partition(c);
  const std::size_t h = n / 2;
  if (ctx.opts.winograd) {
    recurse_winograd(qa, qb, qc, h, ctx, depth);
  } else {
    classic_step(ctx, "strassen", 0x57a5u, qa, qb, qc, h, depth,
                 ctx.product_workers(depth),
                 [&](ConstMatrixView l, ConstMatrixView r, MatrixView o) {
                   recurse(l, r, o, ctx, depth + 1);
                 });
  }
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
  CAPOW_TSPAN_ARGS2("strassen.multiply", "strassen", "n", n, "winograd",
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
