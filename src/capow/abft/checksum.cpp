#include "capow/abft/checksum.hpp"

#include "capow/linalg/cpu_features.hpp"

namespace capow::abft {
namespace {

// One binary carries a baseline and an AVX2 compile of every O(n^2)
// sweep, dispatched once per process — the same scheme as the gemm
// microkernels. The bodies are always_inline plain loops, so each ISA
// clone auto-vectorizes them under its own target attribute. The AVX2
// clones deliberately exclude FMA: with identical lane counts and no
// contraction, both paths round identically, so checksums do not
// depend on which CPU computed them.

__attribute__((always_inline)) inline void col_sums_body(
    linalg::ConstMatrixView a, double* out, double* mag) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  for (std::size_t j = 0; j < cols; ++j) out[j] = mag[j] = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      out[j] += row[j];
      mag[j] += std::fabs(row[j]);
    }
  }
}

// A row sum is one long serial reduction; splitting it over kLanes
// independent accumulators lets the adds pipeline and vectorize. The
// lane count is fixed, not ISA-dependent, so every clone reduces in
// the same order.
constexpr std::size_t kLanes = 8;

__attribute__((always_inline)) inline void row_sums_body(
    linalg::ConstMatrixView a, double* out, double* mag) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = a.row(i);
    double s[kLanes] = {}, m[kLanes] = {};
    std::size_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        s[l] += row[j + l];
        m[l] += std::fabs(row[j + l]);
      }
    }
    double sum = 0.0, mg = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      sum += s[l];
      mg += m[l];
    }
    for (; j < cols; ++j) {
      sum += row[j];
      mg += std::fabs(row[j]);
    }
    out[i] = sum;
    mag[i] = mg;
  }
}

__attribute__((always_inline)) inline void guard_row_refs_body(
    linalg::ConstMatrixView a, const double* rb, const double* rbmag,
    double* ca, double* camag, double* rref, double* rmag) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  for (std::size_t t = 0; t < k; ++t) ca[t] = camag[t] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    double rs[kLanes] = {}, rm[kLanes] = {};
    std::size_t t = 0;
    for (; t + kLanes <= k; t += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v = arow[t + l];
        ca[t + l] += v;
        camag[t + l] += std::fabs(v);
        rs[l] += v * rb[t + l];
        rm[l] += std::fabs(v) * rbmag[t + l];
      }
    }
    double ref = 0.0, mg = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      ref += rs[l];
      mg += rm[l];
    }
    for (; t < k; ++t) {
      const double v = arow[t];
      ca[t] += v;
      camag[t] += std::fabs(v);
      ref += v * rb[t];
      mg += std::fabs(v) * rbmag[t];
    }
    rref[i] = ref;
    rmag[i] = mg;
  }
}

__attribute__((always_inline)) inline void guard_col_refs_body(
    linalg::ConstMatrixView b, const double* ca, const double* camag,
    double* cref, double* cmag) {
  const std::size_t k = b.rows();
  const std::size_t n = b.cols();
  for (std::size_t j = 0; j < n; ++j) cref[j] = cmag[j] = 0.0;
  for (std::size_t t = 0; t < k; ++t) {
    const double* brow = b.row(t);
    const double cat = ca[t];
    const double camt = camag[t];
    for (std::size_t j = 0; j < n; ++j) {
      cref[j] += cat * brow[j];
      cmag[j] += camt * std::fabs(brow[j]);
    }
  }
}

__attribute__((always_inline)) inline void matrix_sums_body(
    linalg::ConstMatrixView c, double* row_out, double* col_out) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  for (std::size_t j = 0; j < n; ++j) col_out[j] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* crow = c.row(i);
    double s[kLanes] = {};
    std::size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double v = crow[j + l];
        col_out[j + l] += v;
        s[l] += v;
      }
    }
    double sum = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) sum += s[l];
    for (; j < n; ++j) {
      col_out[j] += crow[j];
      sum += crow[j];
    }
    row_out[i] = sum;
  }
}

void col_sums_generic(linalg::ConstMatrixView a, double* out,
                      double* mag) {
  col_sums_body(a, out, mag);
}
__attribute__((target("avx2"))) void col_sums_avx2(
    linalg::ConstMatrixView a, double* out, double* mag) {
  col_sums_body(a, out, mag);
}

void row_sums_generic(linalg::ConstMatrixView a, double* out,
                      double* mag) {
  row_sums_body(a, out, mag);
}
__attribute__((target("avx2"))) void row_sums_avx2(
    linalg::ConstMatrixView a, double* out, double* mag) {
  row_sums_body(a, out, mag);
}

void guard_row_refs_generic(linalg::ConstMatrixView a, const double* rb,
                            const double* rbmag, double* ca,
                            double* camag, double* rref, double* rmag) {
  guard_row_refs_body(a, rb, rbmag, ca, camag, rref, rmag);
}
__attribute__((target("avx2"))) void guard_row_refs_avx2(
    linalg::ConstMatrixView a, const double* rb, const double* rbmag,
    double* ca, double* camag, double* rref, double* rmag) {
  guard_row_refs_body(a, rb, rbmag, ca, camag, rref, rmag);
}

void guard_col_refs_generic(linalg::ConstMatrixView b, const double* ca,
                            const double* camag, double* cref,
                            double* cmag) {
  guard_col_refs_body(b, ca, camag, cref, cmag);
}
__attribute__((target("avx2"))) void guard_col_refs_avx2(
    linalg::ConstMatrixView b, const double* ca, const double* camag,
    double* cref, double* cmag) {
  guard_col_refs_body(b, ca, camag, cref, cmag);
}

void matrix_sums_generic(linalg::ConstMatrixView c, double* row_out,
                         double* col_out) {
  matrix_sums_body(c, row_out, col_out);
}
__attribute__((target("avx2"))) void matrix_sums_avx2(
    linalg::ConstMatrixView c, double* row_out, double* col_out) {
  matrix_sums_body(c, row_out, col_out);
}

}  // namespace

void col_sums(linalg::ConstMatrixView a, double* out, double* mag) {
  linalg::has_avx2() ? col_sums_avx2(a, out, mag)
                     : col_sums_generic(a, out, mag);
}

void row_sums(linalg::ConstMatrixView a, double* out, double* mag) {
  linalg::has_avx2() ? row_sums_avx2(a, out, mag)
                     : row_sums_generic(a, out, mag);
}

void guard_row_refs(linalg::ConstMatrixView a, const double* rb,
                    const double* rbmag, double* ca, double* camag,
                    double* rref, double* rmag) {
  linalg::has_avx2()
      ? guard_row_refs_avx2(a, rb, rbmag, ca, camag, rref, rmag)
      : guard_row_refs_generic(a, rb, rbmag, ca, camag, rref, rmag);
}

void guard_col_refs(linalg::ConstMatrixView b, const double* ca,
                    const double* camag, double* cref, double* cmag) {
  linalg::has_avx2() ? guard_col_refs_avx2(b, ca, camag, cref, cmag)
                     : guard_col_refs_generic(b, ca, camag, cref, cmag);
}

void matrix_sums(linalg::ConstMatrixView c, double* row_out,
                 double* col_out) {
  linalg::has_avx2() ? matrix_sums_avx2(c, row_out, col_out)
                     : matrix_sums_generic(c, row_out, col_out);
}

double payload_checksum(const double* data, std::size_t count) noexcept {
  NeumaierAcc acc;
  for (std::size_t i = 0; i < count; ++i) acc.add(data[i]);
  return acc.value();
}

}  // namespace capow::abft
