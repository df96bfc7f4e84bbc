#include "capow/strassen/base_kernel.hpp"

#include "capow/blas/gemm_ref.hpp"
#include "capow/linalg/cpu_features.hpp"
#include "capow/trace/counters.hpp"

namespace capow::strassen {

namespace {

// The loop is written once and compiled three times: baseline (SSE2),
// AVX2 and AVX-512F, one clone picked per process. Every C element sees
// the same operations in the same order in every clone, because the
// vector lanes run along j and never reduce across each other. This
// file builds with -ffp-contract=off (strassen/CMakeLists.txt): the
// avx512f target implies FMA, and a contracted a0*b0[j] + a1*b1[j]
// would round differently from the other two clones.
__attribute__((always_inline)) inline void bots_body(
    linalg::ConstMatrixView a, linalg::ConstMatrixView b,
    linalg::MatrixView c, bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();

  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row(i);
    if (!accumulate) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    const double* ai = a.row(i);
    // 2-way unrolled over the inner dimension: the flavour of manual
    // unrolling the BOTS kernel applies (without asm-level packing).
    std::size_t p = 0;
    for (; p + 1 < k; p += 2) {
      const double a0 = ai[p];
      const double a1 = ai[p + 1];
      const double* b0 = b.row(p);
      const double* b1 = b.row(p + 1);
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] += a0 * b0[j] + a1 * b1[j];
      }
    }
    if (p < k) {
      const double a0 = ai[p];
      const double* b0 = b.row(p);
      for (std::size_t j = 0; j < n; ++j) ci[j] += a0 * b0[j];
    }
  }
}

void bots_generic(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                  linalg::MatrixView c, bool accumulate) {
  bots_body(a, b, c, accumulate);
}
__attribute__((target("avx2"))) void bots_avx2(linalg::ConstMatrixView a,
                                               linalg::ConstMatrixView b,
                                               linalg::MatrixView c,
                                               bool accumulate) {
  bots_body(a, b, c, accumulate);
}
__attribute__((target("avx512f"))) void bots_avx512(
    linalg::ConstMatrixView a, linalg::ConstMatrixView b,
    linalg::MatrixView c, bool accumulate) {
  bots_body(a, b, c, accumulate);
}

void base_gemm_impl(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c, bool accumulate) {
  blas::check_gemm_shapes(a, b, c);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();

  using Clone = void (*)(linalg::ConstMatrixView, linalg::ConstMatrixView,
                         linalg::MatrixView, bool);
  static const Clone clone = linalg::has_avx512f() ? bots_avx512
                             : linalg::has_avx2()  ? bots_avx2
                                                   : bots_generic;
  clone(a, b, c, accumulate);

  trace::count_flops(2ull * m * n * k);
  trace::count_dram_read((m * k + k * n) * sizeof(double));
  trace::count_dram_write(m * n * sizeof(double));
}

}  // namespace

void base_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
               linalg::MatrixView c) {
  base_gemm_impl(a, b, c, /*accumulate=*/false);
}

void base_gemm_accumulate(linalg::ConstMatrixView a,
                          linalg::ConstMatrixView b, linalg::MatrixView c) {
  base_gemm_impl(a, b, c, /*accumulate=*/true);
}

}  // namespace capow::strassen
