// Forward-error bounds for every algorithm, base kernel, size and
// recursion depth: the normwise error ||C_hat - C||_M (max-abs norm) of
// each multiply is held to its Higham-style first-order bound times
// u ||A||_M ||B||_M, u = 2^-53 (Higham, "Accuracy and Stability of
// Numerical Algorithms", 2nd ed., ch. 23):
//
//   classical (any summation order)  n^2
//   Strassen, CAPS (classic scheme)  (n/n0)^log2(12) (n0^2 + 5 n0) - 5n
//   Winograd variant                 (n/n0)^log2(18) (n0^2 + 6 n0) - 6n
//
// where n is the padded dimension the recursion runs on and n0 the base
// dimension it halves down to. At n = n0 (no recursion) both recursive
// bounds reduce to the classical n0^2, and each extra level multiplies
// the envelope by about 12 (18), so the sweep covers Strassen's growth
// with depth. The exact product is taken in long double; its own error
// (n^2 u_ld) is added to the bound.
//
// Each case runs twice: on uniform inputs in [-1, 1), and on graded
// inputs whose rows of A and columns of B span 2^0..2^-15. The bounds
// are normwise, not componentwise, so grading is exactly where a
// fast-multiply error would show if an algorithm broke them.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow {
namespace {

using linalg::Matrix;

constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
constexpr long double kRefRoundoff =
    std::numeric_limits<long double>::epsilon() / 2;

enum class Algo { kGemm, kStrassen, kWinograd, kCaps };

struct BoundCase {
  const char* name;
  Algo algo;
  std::size_t n;
  std::size_t cutoff;     // recursive algorithms only
  std::size_t bfs_depth;  // CAPS only
  bool graded;
};

// Scales row i of `a` (column i when `by_cols`) by 2^-(i mod 16).
void grade(Matrix& a, bool by_cols) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = std::ldexp(a(i, j), -static_cast<int>((by_cols ? j : i) % 16));
    }
  }
}

// Max-abs error of `got` against the long double product of a and b.
double max_error_vs_exact(const Matrix& a, const Matrix& b,
                          const Matrix& got) {
  const std::size_t n = a.rows();
  std::vector<long double> row(n);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(row.begin(), row.end(), 0.0L);
    for (std::size_t k = 0; k < n; ++k) {
      const long double aik = a(i, k);
      for (std::size_t j = 0; j < n; ++j) row[j] += aik * b(k, j);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double err = static_cast<double>(
          std::fabs(static_cast<long double>(got(i, j)) - row[j]));
      // A NaN error must fail the bound, not slip past a max().
      if (!(err <= worst)) worst = err;
    }
  }
  return worst;
}

// The bound's coefficient of u ||A||_M ||B||_M for `c`.
double bound_coefficient(const BoundCase& c) {
  if (c.algo == Algo::kGemm) {
    const double n = static_cast<double>(c.n);
    return n * n;
  }
  const std::size_t padded =
      linalg::pad_dimension_for_recursion(c.n, c.cutoff);
  const std::size_t depth = strassen::recursion_levels(c.n, c.cutoff);
  const double n = static_cast<double>(padded);
  const double n0 = static_cast<double>(padded >> depth);
  const double d = static_cast<double>(depth);
  if (c.algo == Algo::kWinograd) {
    return std::pow(18.0, d) * (n0 * n0 + 6.0 * n0) - 6.0 * n;
  }
  return std::pow(12.0, d) * (n0 * n0 + 5.0 * n0) - 5.0 * n;
}

// Kernels a case runs on: every supported registry kernel, plus the
// BOTS base case (nullopt) for the recursive algorithms.
std::vector<std::optional<blas::MicroKernelId>> kernels_for(Algo algo) {
  std::vector<std::optional<blas::MicroKernelId>> out;
  if (algo != Algo::kGemm) out.push_back(std::nullopt);
  for (const blas::MicroKernel& k : blas::kernel_registry()) {
    if (k.supported()) out.push_back(k.id);
  }
  return out;
}

void run(const BoundCase& c, std::optional<blas::MicroKernelId> kernel,
         const Matrix& a, const Matrix& b, Matrix& got) {
  switch (c.algo) {
    case Algo::kGemm: {
      blas::GemmOptions opts;
      opts.kernel = kernel;
      blas::gemm(a.view(), b.view(), got.view(), opts);
      return;
    }
    case Algo::kStrassen:
    case Algo::kWinograd: {
      strassen::StrassenOptions opts;
      opts.base_cutoff = c.cutoff;
      opts.winograd = c.algo == Algo::kWinograd;
      opts.base_kernel = kernel;
      strassen::multiply(a.view(), b.view(), got.view(), opts);
      return;
    }
    case Algo::kCaps: {
      capsalg::CapsOptions opts;
      opts.base_cutoff = c.cutoff;
      opts.bfs_cutoff_depth = c.bfs_depth;
      opts.base_kernel = kernel;
      capsalg::multiply(a.view(), b.view(), got.view(), opts);
      return;
    }
  }
}

class ForwardErrorBound : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ForwardErrorBound, WithinHighamBound) {
  const BoundCase& c = GetParam();
  Matrix a = linalg::random_matrix(c.n, c.n, 1000 + c.n);
  Matrix b = linalg::random_matrix(c.n, c.n, 2000 + c.n);
  if (c.graded) {
    grade(a, /*by_cols=*/false);
    grade(b, /*by_cols=*/true);
  }
  const double scale = linalg::max_abs(a.view()) * linalg::max_abs(b.view());
  const double n = static_cast<double>(c.n);
  const double bound =
      (bound_coefficient(c) * kUnitRoundoff +
       n * n * static_cast<double>(kRefRoundoff)) *
      scale;
  for (const auto kernel : kernels_for(c.algo)) {
    const char* kname = kernel ? blas::find_kernel(*kernel)->name : "bots";
    Matrix got(c.n, c.n, -7.0);
    run(c, kernel, a, b, got);
    const double err = max_error_vs_exact(a, b, got);
    EXPECT_LE(err, bound) << c.name << " kernel=" << kname
                          << " err/bound=" << err / bound;
  }
}

TEST(ForwardErrorBound, RecursiveBoundsReduceToClassicalWithoutRecursion) {
  for (const Algo algo : {Algo::kStrassen, Algo::kWinograd, Algo::kCaps}) {
    const BoundCase c{"flat", algo, 48, 64, 4, false};
    EXPECT_DOUBLE_EQ(bound_coefficient(c), 48.0 * 48.0);
  }
}

TEST(ForwardErrorBound, EnvelopeGrowsWithDepth) {
  // Halving the cutoff adds one level: the Strassen envelope grows by
  // roughly 12/4 = 3 (Winograd 18/4), never shrinks.
  for (const Algo algo : {Algo::kStrassen, Algo::kWinograd}) {
    double prev = 0.0;
    for (const std::size_t cutoff : {256u, 128u, 64u, 32u, 16u, 8u}) {
      const double coeff = bound_coefficient({"depth", algo, 256, cutoff,
                                              4, false});
      EXPECT_GT(coeff, prev) << "cutoff=" << cutoff;
      prev = coeff;
    }
  }
}

// Namespace-scope constants, so each case names its test the same in
// every build.
constexpr BoundCase kCases[] = {
    {"gemm_n1", Algo::kGemm, 1, 0, 0, false},
    {"gemm_n7", Algo::kGemm, 7, 0, 0, false},
    {"gemm_n100", Algo::kGemm, 100, 0, 0, false},
    {"gemm_n255", Algo::kGemm, 255, 0, 0, false},
    {"gemm_n256", Algo::kGemm, 256, 0, 0, false},
    {"gemm_n7_graded", Algo::kGemm, 7, 0, 0, true},
    {"gemm_n100_graded", Algo::kGemm, 100, 0, 0, true},
    {"gemm_n255_graded", Algo::kGemm, 255, 0, 0, true},
    {"gemm_n256_graded", Algo::kGemm, 256, 0, 0, true},
    {"strassen_n128_cut64", Algo::kStrassen, 128, 64, 0, false},
    {"strassen_n128_cut32", Algo::kStrassen, 128, 32, 0, false},
    {"strassen_n200_cut64", Algo::kStrassen, 200, 64, 0, false},
    {"strassen_n200_cut16", Algo::kStrassen, 200, 16, 0, false},
    {"strassen_n255_cut32", Algo::kStrassen, 255, 32, 0, false},
    {"strassen_n256_cut32", Algo::kStrassen, 256, 32, 0, false},
    {"strassen_n256_cut16", Algo::kStrassen, 256, 16, 0, false},
    {"strassen_n128_cut32_graded", Algo::kStrassen, 128, 32, 0, true},
    {"strassen_n200_cut16_graded", Algo::kStrassen, 200, 16, 0, true},
    {"strassen_n256_cut16_graded", Algo::kStrassen, 256, 16, 0, true},
    {"winograd_n128_cut64", Algo::kWinograd, 128, 64, 0, false},
    {"winograd_n128_cut32", Algo::kWinograd, 128, 32, 0, false},
    {"winograd_n200_cut64", Algo::kWinograd, 200, 64, 0, false},
    {"winograd_n200_cut16", Algo::kWinograd, 200, 16, 0, false},
    {"winograd_n255_cut32", Algo::kWinograd, 255, 32, 0, false},
    {"winograd_n256_cut32", Algo::kWinograd, 256, 32, 0, false},
    {"winograd_n256_cut16", Algo::kWinograd, 256, 16, 0, false},
    {"winograd_n128_cut32_graded", Algo::kWinograd, 128, 32, 0, true},
    {"winograd_n200_cut16_graded", Algo::kWinograd, 200, 16, 0, true},
    {"winograd_n256_cut16_graded", Algo::kWinograd, 256, 16, 0, true},
    {"caps_n128_cut32_bfs4", Algo::kCaps, 128, 32, 4, false},
    {"caps_n200_cut16_bfs4", Algo::kCaps, 200, 16, 4, false},
    {"caps_n255_cut32_bfs4", Algo::kCaps, 255, 32, 4, false},
    {"caps_n256_cut16_bfs4", Algo::kCaps, 256, 16, 4, false},
    {"caps_n256_cut16_bfs1", Algo::kCaps, 256, 16, 1, false},
    {"caps_n256_cut16_dfs", Algo::kCaps, 256, 16, 0, false},
    {"caps_n200_cut16_bfs4_graded", Algo::kCaps, 200, 16, 4, true},
    {"caps_n256_cut16_bfs1_graded", Algo::kCaps, 256, 16, 1, true},
    {"caps_n256_cut16_dfs_graded", Algo::kCaps, 256, 16, 0, true},
};

// Prints the case by name, so the ctest name carries no pointer bytes.
void PrintTo(const BoundCase& c, std::ostream* os) { *os << c.name; }

std::string case_name(const ::testing::TestParamInfo<BoundCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ForwardErrorBound, ::testing::ValuesIn(kCases),
                         case_name);

}  // namespace
}  // namespace capow
