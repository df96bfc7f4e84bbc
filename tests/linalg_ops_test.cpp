// Unit and property tests for the elementwise/reduction ops.
#include "capow/linalg/ops.hpp"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "capow/linalg/random.hpp"

namespace capow::linalg {
namespace {

Matrix iota(std::size_t r, std::size_t c) {
  Matrix m(r, c);
  double v = 0.0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = v++;
  }
  return m;
}

TEST(Ops, CopyPacked) {
  Matrix a = iota(3, 4);
  Matrix b = Matrix::zeros(3, 4);
  copy(a.view(), b.view());
  EXPECT_TRUE(allclose(b.view(), a.view(), 0.0, 0.0));
}

TEST(Ops, CopyStrided) {
  Matrix a = iota(6, 6);
  Matrix b = Matrix::zeros(6, 6);
  copy(a.block(2, 2, 3, 3), b.block(1, 1, 3, 3));
  EXPECT_EQ(b(1, 1), a(2, 2));
  EXPECT_EQ(b(3, 3), a(4, 4));
  EXPECT_EQ(b(0, 0), 0.0);
}

TEST(Ops, CopyShapeMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(copy(a.view(), b.view()), std::invalid_argument);
}

TEST(Ops, AddAndSub) {
  Matrix a = iota(3, 3);
  Matrix b(3, 3, 2.0);
  Matrix s = Matrix::zeros(3);
  add(a.view(), b.view(), s.view());
  EXPECT_EQ(s(1, 1), a(1, 1) + 2.0);
  sub(s.view(), b.view(), s.view());  // aliased dst is fine elementwise
  EXPECT_TRUE(allclose(s.view(), a.view()));
}

TEST(Ops, InplaceAddSubRoundTrip) {
  Matrix a = random_square(5, 1);
  Matrix orig(a);
  Matrix b = random_square(5, 2);
  add_inplace(a.view(), b.view());
  sub_inplace(a.view(), b.view());
  EXPECT_TRUE(allclose(a.view(), orig.view(), 1e-15, 1e-15));
}

TEST(Ops, Scale) {
  Matrix a(2, 2, 3.0);
  scale(a.view(), -2.0);
  EXPECT_EQ(a(1, 0), -6.0);
}

TEST(Ops, Axpy) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 10.0);
  axpy(0.5, a.view(), b.view());
  EXPECT_EQ(b(0, 0), 10.5);
}

TEST(Ops, TransposeRectangular) {
  Matrix a = iota(3, 5);
  Matrix t = Matrix::zeros(5, 3);
  transpose(a.view(), t.view());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
}

TEST(Ops, TransposeShapeMismatchThrows) {
  Matrix a(3, 5), t(3, 5);
  EXPECT_THROW(transpose(a.view(), t.view()), std::invalid_argument);
}

TEST(Ops, TransposeTwiceIsIdentity) {
  Matrix a = random_matrix(40, 33, 7);
  Matrix t(33, 40), tt(40, 33);
  transpose(a.view(), t.view());
  transpose(t.view(), tt.view());
  EXPECT_TRUE(allclose(tt.view(), a.view(), 0.0, 0.0));
}

TEST(Ops, FrobeniusNorm) {
  Matrix a(1, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(frobenius_norm(a.view()), 5.0);
}

TEST(Ops, MaxAbs) {
  Matrix a(2, 2, 0.0);
  a(1, 0) = -9.0;
  a(0, 1) = 4.0;
  EXPECT_EQ(max_abs(a.view()), 9.0);
}

TEST(Ops, MaxAbsDiff) {
  Matrix a(2, 2, 1.0), b(2, 2, 1.0);
  b(1, 1) = 1.25;
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 0.25);
}

TEST(Ops, AllcloseTolerance) {
  Matrix a(1, 1, 1.0), b(1, 1, 1.0 + 1e-10);
  EXPECT_TRUE(allclose(a.view(), b.view(), 1e-9, 0.0));
  EXPECT_FALSE(allclose(a.view(), b.view(), 1e-12, 1e-13));
}

TEST(Ops, RelativeError) {
  Matrix a(1, 1, 1.01), b(1, 1, 1.0);
  EXPECT_NEAR(relative_error(a.view(), b.view()), 0.01, 1e-12);
  // Zero reference is guarded by the tiny denominator (no NaN/inf blowup
  // for a zero numerator).
  Matrix z(1, 1, 0.0);
  EXPECT_EQ(relative_error(z.view(), z.view()), 0.0);
}

TEST(Ops, RoundUp) {
  EXPECT_EQ(round_up(0, 4), 0u);
  EXPECT_EQ(round_up(1, 4), 4u);
  EXPECT_EQ(round_up(4, 4), 4u);
  EXPECT_EQ(round_up(5, 4), 8u);
  EXPECT_THROW(round_up(3, 0), std::invalid_argument);
}

// pad_dimension_for_recursion: result >= n, result/2^k <= max_base,
// result is minimal of that form.
class PadDimensionTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PadDimensionTest, ProducesMinimalRecursableDimension) {
  const auto [n, base] = GetParam();
  const std::size_t p = pad_dimension_for_recursion(n, base);
  EXPECT_GE(p, n);
  // p must be base' * 2^k with base' <= base.
  std::size_t m = p;
  while (m > base) {
    EXPECT_EQ(m % 2, 0u) << "p=" << p;
    m /= 2;
  }
  // Minimality: the next smaller dimension of the same form is < n.
  if (p > base && p >= 2) {
    std::size_t levels = 0;
    std::size_t mm = p;
    while (mm > base) {
      mm /= 2;
      ++levels;
    }
    const std::size_t smaller = (mm - 1) << levels;
    EXPECT_LT(smaller, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PadDimensionTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 64},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{65, 64},
                      std::pair<std::size_t, std::size_t>{100, 64},
                      std::pair<std::size_t, std::size_t>{128, 64},
                      std::pair<std::size_t, std::size_t>{129, 64},
                      std::pair<std::size_t, std::size_t>{512, 64},
                      std::pair<std::size_t, std::size_t>{1000, 64},
                      std::pair<std::size_t, std::size_t>{4096, 64},
                      std::pair<std::size_t, std::size_t>{100, 16},
                      std::pair<std::size_t, std::size_t>{31, 8},
                      std::pair<std::size_t, std::size_t>{7, 1}));

TEST(Ops, PadDimensionRejectsZeroBase) {
  EXPECT_THROW(pad_dimension_for_recursion(10, 0), std::invalid_argument);
}

// Property: add/sub on strided views equals the packed computation.
TEST(OpsProperty, StridedViewsMatchPacked) {
  Matrix big_a = random_square(10, 1), big_b = random_square(10, 2);
  auto va = big_a.block(2, 3, 5, 5);
  auto vb = big_b.block(1, 0, 5, 5);
  Matrix pa(5, 5), pb(5, 5);
  copy(va, pa.view());
  copy(vb, pb.view());

  Matrix strided_out_holder = Matrix::zeros(10, 10);
  auto vout = strided_out_holder.block(4, 4, 5, 5);
  add(va, vb, vout);
  Matrix packed_out(5, 5);
  add(pa.view(), pb.view(), packed_out.view());
  EXPECT_TRUE(allclose(vout, packed_out.view(), 0.0, 0.0));
}

bool same_bits(ConstMatrixView x, ConstMatrixView y) {
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.row(i), y.row(i), x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Property: the ISA clones of the four quadrant ops round exactly like
// one scalar add or subtract per element, on odd widths (vector
// remainders) and on strided views whose rows start unaligned.
TEST(OpsProperty, QuadrantOpsMatchScalarLoopBitForBit) {
  for (std::size_t w : {1u, 3u, 7u, 17u, 33u, 63u}) {
    const Matrix big_a = random_square(2 * w + 1, w);
    const Matrix big_b = random_square(2 * w + 1, w + 100);
    const Matrix big_d = random_square(2 * w + 1, w + 200);
    const ConstMatrixView va = big_a.block(1, 1, w, w);
    const ConstMatrixView vb = big_b.block(w, 0, w, w);

    Matrix got = big_d, want = big_d;
    add(va, vb, got.block(w + 1, 1, w, w));
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        want(w + 1 + i, 1 + j) = va(i, j) + vb(i, j);
      }
    }
    EXPECT_TRUE(same_bits(got.view(), want.view())) << "add w=" << w;

    got = big_d;
    want = big_d;
    sub(va, vb, got.block(0, w, w, w));
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        want(i, w + j) = va(i, j) - vb(i, j);
      }
    }
    EXPECT_TRUE(same_bits(got.view(), want.view())) << "sub w=" << w;

    got = big_d;
    want = big_d;
    add_inplace(got.block(1, w, w, w), vb);
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t j = 0; j < w; ++j) want(1 + i, w + j) += vb(i, j);
    }
    EXPECT_TRUE(same_bits(got.view(), want.view())) << "add_inplace w=" << w;

    got = big_d;
    want = big_d;
    sub_inplace(got.block(w, 1, w, w), va);
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t j = 0; j < w; ++j) want(w + i, 1 + j) -= va(i, j);
    }
    EXPECT_TRUE(same_bits(got.view(), want.view())) << "sub_inplace w=" << w;
  }
}

}  // namespace
}  // namespace capow::linalg
