// Unit tests for capow::linalg Matrix and views.
#include "capow/linalg/matrix.hpp"

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

namespace capow::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.data(), nullptr);
}

TEST(Matrix, SizedConstruction) {
  Matrix m(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 15u);
  EXPECT_FALSE(m.empty());
  EXPECT_FALSE(m.square());
}

TEST(Matrix, InitValueConstruction) {
  Matrix m(2, 2, 7.5);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), 7.5);
  }
}

TEST(Matrix, ZerosFactory) {
  Matrix m = Matrix::zeros(4);
  EXPECT_TRUE(m.square());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, RectangularZeros) {
  Matrix m = Matrix::zeros(2, 6);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 6u);
  EXPECT_EQ(m(1, 5), 0.0);
}

TEST(Matrix, Identity) {
  Matrix m = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, DataIsCacheLineAligned) {
  for (std::size_t n : {1u, 3u, 7u, 64u, 100u}) {
    Matrix m(n, n);
    const auto addr = reinterpret_cast<std::uintptr_t>(m.data());
    EXPECT_EQ(addr % kMatrixAlignment, 0u) << "n=" << n;
  }
}

TEST(Matrix, ElementWriteAndRead) {
  Matrix m = Matrix::zeros(3);
  m(1, 2) = 42.0;
  EXPECT_EQ(m(1, 2), 42.0);
  EXPECT_EQ(m(2, 1), 0.0);
}

TEST(Matrix, RowMajorLayout) {
  Matrix m = Matrix::zeros(2, 3);
  m(1, 0) = 5.0;
  EXPECT_EQ(m.data()[3], 5.0);
}

TEST(Matrix, CopyConstructorDeepCopies) {
  Matrix a(2, 2, 1.0);
  Matrix b(a);
  b(0, 0) = 9.0;
  EXPECT_EQ(a(0, 0), 1.0);
  EXPECT_EQ(b(0, 0), 9.0);
}

TEST(Matrix, CopyAssignmentDeepCopies) {
  Matrix a(2, 2, 3.0);
  Matrix b;
  b = a;
  EXPECT_EQ(b(1, 1), 3.0);
  a(1, 1) = 0.0;
  EXPECT_EQ(b(1, 1), 3.0);
}

TEST(Matrix, SelfAssignmentIsSafe) {
  Matrix a(2, 2, 4.0);
  Matrix& ref = a;
  a = ref;
  EXPECT_EQ(a(0, 0), 4.0);
}

TEST(Matrix, MoveTransfersStorage) {
  Matrix a(2, 2, 6.0);
  const double* p = a.data();
  Matrix b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b(0, 1), 6.0);
}

TEST(Matrix, FillOverwritesEverything) {
  Matrix m(3, 3, 1.0);
  m.fill(2.5);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(m.data()[i], 2.5);
}

TEST(MatrixView, WholeMatrixView) {
  Matrix m(3, 4, 1.0);
  MatrixView v = m.view();
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_EQ(v.ld(), 4u);
  EXPECT_TRUE(v.packed());
  v(2, 3) = 8.0;
  EXPECT_EQ(m(2, 3), 8.0);
}

TEST(MatrixView, BlockIsStrided) {
  Matrix m = Matrix::zeros(4);
  MatrixView b = m.block(1, 1, 2, 2);
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_EQ(b.ld(), 4u);
  EXPECT_FALSE(b.packed());
  b(0, 0) = 3.0;
  EXPECT_EQ(m(1, 1), 3.0);
}

TEST(MatrixView, NestedBlocks) {
  Matrix m = Matrix::zeros(8);
  MatrixView outer = m.block(2, 2, 4, 4);
  MatrixView inner = outer.block(1, 1, 2, 2);
  inner(0, 0) = 1.0;
  EXPECT_EQ(m(3, 3), 1.0);
}

TEST(MatrixView, BlockOutOfRangeThrows) {
  Matrix m = Matrix::zeros(4);
  EXPECT_THROW(m.block(2, 2, 3, 1), std::out_of_range);
  EXPECT_THROW(m.block(0, 3, 1, 2), std::out_of_range);
  EXPECT_THROW((void)m.view().block(4, 0, 1, 1), std::out_of_range);
}

TEST(MatrixView, FillRespectsStride) {
  Matrix m = Matrix::zeros(4);
  m.block(1, 1, 2, 2).fill(5.0);
  EXPECT_EQ(m(1, 1), 5.0);
  EXPECT_EQ(m(2, 2), 5.0);
  EXPECT_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m(3, 3), 0.0);
  EXPECT_EQ(m(1, 0), 0.0);
}

TEST(ConstMatrixView, ImplicitFromMutable) {
  Matrix m(2, 2, 1.5);
  MatrixView v = m.view();
  ConstMatrixView cv = v;
  EXPECT_EQ(cv(1, 1), 1.5);
  EXPECT_EQ(cv.ld(), v.ld());
}

TEST(ConstMatrixView, ConstBlockReads) {
  Matrix m = Matrix::identity(4);
  const Matrix& cm = m;
  ConstMatrixView b = cm.block(1, 1, 2, 2);
  EXPECT_EQ(b(0, 0), 1.0);
  EXPECT_EQ(b(0, 1), 0.0);
}

TEST(ConstMatrixView, RowPointerArithmetic) {
  Matrix m = Matrix::zeros(3, 5);
  m(2, 4) = 11.0;
  ConstMatrixView v = m.view();
  EXPECT_EQ(v.row(2)[4], 11.0);
}

TEST(Matrix, ZeroSizedOperationsAreSafe) {
  Matrix m(0, 0);
  m.fill(1.0);
  EXPECT_TRUE(m.view().empty());
  EXPECT_NO_THROW(m.block(0, 0, 0, 0));
}

TEST(ViewsOverlap, QuadrantsAndPanelsOfOneMatrixAreDisjoint) {
  Matrix m(8, 8, 0.0);
  const ConstMatrixView q[4] = {m.block(0, 0, 4, 4), m.block(0, 4, 4, 4),
                                m.block(4, 0, 4, 4), m.block(4, 4, 4, 4)};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(views_overlap(q[i], q[j]), i == j) << i << "," << j;
    }
  }
  EXPECT_FALSE(views_overlap(m.block(0, 0, 8, 3), m.block(0, 3, 8, 5)));
  EXPECT_TRUE(views_overlap(m.block(0, 2, 8, 3), m.block(0, 0, 8, 3)));
  EXPECT_TRUE(views_overlap(m.block(0, 0, 4, 4), m.block(3, 3, 4, 4)));
  EXPECT_TRUE(views_overlap(m.view(), m.block(7, 7, 1, 1)));
}

TEST(ViewsOverlap, ExactAcrossDifferentStrides) {
  Matrix m(8, 8, 0.0);
  double* d = m.data();
  const ConstMatrixView even_rows(d, 4, 8, 16);  // rows 0, 2, 4, 6
  const ConstMatrixView odd_rows(d + 8, 4, 8, 16);
  EXPECT_FALSE(views_overlap(even_rows, odd_rows));
  EXPECT_FALSE(views_overlap(even_rows, m.block(1, 0, 1, 8)));
  EXPECT_FALSE(views_overlap(m.block(5, 0, 3, 8), even_rows.block(0, 0, 3, 8)));
  EXPECT_TRUE(views_overlap(even_rows, m.block(2, 4, 1, 2)));
  EXPECT_TRUE(views_overlap(m.block(0, 4, 8, 4), odd_rows));
  EXPECT_TRUE(views_overlap(m.block(5, 0, 3, 8), even_rows));
}

TEST(ViewsOverlap, SeparateStorageAndEmptyViewsNeverOverlap) {
  Matrix a(4, 4, 0.0), b(4, 4, 0.0);
  EXPECT_FALSE(views_overlap(a.view(), b.view()));
  EXPECT_FALSE(views_overlap(a.view(), a.block(1, 1, 0, 2)));
  EXPECT_FALSE(views_overlap(ConstMatrixView(), a.view()));
}

}  // namespace
}  // namespace capow::linalg
