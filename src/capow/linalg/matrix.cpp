#include "capow/linalg/matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>

namespace capow::linalg {

namespace detail {

AlignedBuffer allocate_aligned(std::size_t count) {
  if (count == 0) return AlignedBuffer{};
  // aligned_alloc requires size to be a multiple of the alignment.
  std::size_t bytes = count * sizeof(double);
  std::size_t rem = bytes % kMatrixAlignment;
  if (rem != 0) bytes += kMatrixAlignment - rem;
  void* p = std::aligned_alloc(kMatrixAlignment, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return AlignedBuffer{static_cast<double*>(p)};
}

}  // namespace detail

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(detail::allocate_aligned(rows * cols)) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double init)
    : Matrix(rows, cols) {
  fill(init);
}

Matrix::Matrix(const Matrix& other) : Matrix(other.rows_, other.cols_) {
  if (!empty()) {
    std::memcpy(data_.get(), other.data_.get(), size() * sizeof(double));
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  Matrix tmp(other);
  *this = std::move(tmp);
  return *this;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m = zeros(n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::fill(double value) noexcept {
  std::fill_n(data_.get(), size(), value);
}

MatrixView Matrix::view() noexcept {
  return MatrixView(data(), rows_, cols_, cols_);
}

ConstMatrixView Matrix::view() const noexcept {
  return ConstMatrixView(data(), rows_, cols_, cols_);
}

ConstMatrixView Matrix::cview() const noexcept { return view(); }

namespace {

void check_window(std::size_t i0, std::size_t j0, std::size_t r,
                  std::size_t c, std::size_t rows, std::size_t cols) {
  if (i0 + r > rows || j0 + c > cols) {
    throw std::out_of_range(
        "matrix block window [" + std::to_string(i0) + "+" +
        std::to_string(r) + ", " + std::to_string(j0) + "+" +
        std::to_string(c) + ") exceeds matrix of " + std::to_string(rows) +
        "x" + std::to_string(cols));
  }
}

}  // namespace

MatrixView Matrix::block(std::size_t i0, std::size_t j0, std::size_t r,
                         std::size_t c) {
  check_window(i0, j0, r, c, rows_, cols_);
  return MatrixView(data() + i0 * cols_ + j0, r, c, cols_);
}

ConstMatrixView Matrix::block(std::size_t i0, std::size_t j0, std::size_t r,
                              std::size_t c) const {
  check_window(i0, j0, r, c, rows_, cols_);
  return ConstMatrixView(data() + i0 * cols_ + j0, r, c, cols_);
}

MatrixView MatrixView::block(std::size_t i0, std::size_t j0, std::size_t r,
                             std::size_t c) const {
  check_window(i0, j0, r, c, rows_, cols_);
  return MatrixView(data_ + i0 * ld_ + j0, r, c, ld_);
}

void MatrixView::fill(double value) const noexcept {
  for (std::size_t i = 0; i < rows_; ++i) {
    std::fill_n(row(i), cols_, value);
  }
}

ConstMatrixView ConstMatrixView::block(std::size_t i0, std::size_t j0,
                                       std::size_t r, std::size_t c) const {
  check_window(i0, j0, r, c, rows_, cols_);
  return ConstMatrixView(data_ + i0 * ld_ + j0, r, c, ld_);
}

bool views_overlap(ConstMatrixView x, ConstMatrixView y) noexcept {
  if (x.empty() || y.empty()) return false;
  // Each row of x is one byte interval; y's rows are intervals of equal
  // width at a fixed stride, so the first y row ending past the start of
  // x's row is the only one that can intersect it. Walking the shorter
  // view keeps the test O(min(rows)).
  if (x.rows() > y.rows()) std::swap(x, y);
  const auto base = reinterpret_cast<std::uintptr_t>(y.data());
  const std::uintptr_t stride = y.ld() * sizeof(double);
  const std::uintptr_t width = y.cols() * sizeof(double);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto lo = reinterpret_cast<std::uintptr_t>(x.row(i));
    const std::uintptr_t hi = lo + x.cols() * sizeof(double);
    const std::uintptr_t r =
        lo < base + width ? 0 : (lo - base - width) / stride + 1;
    if (r < y.rows() && base + r * stride < hi) return true;
  }
  return false;
}

const char* product_error(ConstMatrixView a, ConstMatrixView b,
                          ConstMatrixView c, ProductRules rules) noexcept {
  if (a.cols() != b.rows()) return "inner dimensions disagree";
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    return "C is not A.rows x B.cols";
  }
  // With conforming shapes, square A and B make all three n x n.
  if (rules.square && !(a.square() && b.square())) {
    return "operands must be square with equal dimension";
  }
  if (rules.disjoint && (views_overlap(c, a) || views_overlap(c, b))) {
    return "C shares storage with A or B";
  }
  return nullptr;
}

void check_product(const char* who, ConstMatrixView a, ConstMatrixView b,
                   ConstMatrixView c, ProductRules rules) {
  const char* error = product_error(a, b, c, rules);
  if (error == nullptr) return;
  const auto shape = [](ConstMatrixView v) {
    return std::to_string(v.rows()) + "x" + std::to_string(v.cols());
  };
  throw std::invalid_argument(std::string(who) + ": " + error + " (A=" +
                              shape(a) + " B=" + shape(b) + " C=" + shape(c) +
                              ")");
}

}  // namespace capow::linalg
