#include "capow/blas/gemm_ref.hpp"

namespace capow::blas {

namespace {

void gemm_ref_impl(const char* who, linalg::ConstMatrixView a,
                   linalg::ConstMatrixView b, linalg::MatrixView c,
                   bool accumulate) {
  linalg::check_product(who, a, b, c);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row(i);
    if (!accumulate) {
      for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    }
    const double* ai = a.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = ai[p];
      const double* bp = b.row(p);
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

}  // namespace

void gemm_reference(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c) {
  gemm_ref_impl("blas::gemm_reference", a, b, c, /*accumulate=*/false);
}

void gemm_reference_accumulate(linalg::ConstMatrixView a,
                               linalg::ConstMatrixView b,
                               linalg::MatrixView c) {
  gemm_ref_impl("blas::gemm_reference_accumulate", a, b, c,
                /*accumulate=*/true);
}

}  // namespace capow::blas
