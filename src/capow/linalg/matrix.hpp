// capow::linalg — dense double-precision matrix storage and views.
//
// The paper's three multiplication algorithms (blocked DGEMM, Strassen,
// CAPS) all operate on square double matrices partitioned into sub-blocks.
// `Matrix` owns 64-byte aligned storage; `MatrixView`/`ConstMatrixView`
// are non-owning strided windows used for quadrant recursion so that no
// algorithm ever copies a quadrant merely to address it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace capow::linalg {

/// Cache-line alignment used for all matrix storage. Matches the 64-byte
/// line size of the paper's Haswell platform.
inline constexpr std::size_t kMatrixAlignment = 64;

namespace detail {

/// Deleter for over-aligned allocations obtained via std::aligned_alloc.
struct AlignedFree {
  void operator()(double* p) const noexcept { std::free(p); }
};

using AlignedBuffer = std::unique_ptr<double[], AlignedFree>;

/// Allocates `count` doubles aligned to kMatrixAlignment.
/// Throws std::bad_alloc on failure. `count == 0` returns an empty buffer.
AlignedBuffer allocate_aligned(std::size_t count);

}  // namespace detail

class MatrixView;
class ConstMatrixView;

/// Owning, row-major, 64-byte aligned dense matrix of doubles.
///
/// Invariants:
///  - data() is aligned to kMatrixAlignment (or null when empty),
///  - leading dimension equals cols() (owned matrices are always packed).
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Uninitialized rows x cols matrix (values indeterminate; use zero()
  /// or fill() before reading).
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix with every element set to `init`.
  Matrix(std::size_t rows, std::size_t cols, double init);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept = default;
  Matrix& operator=(Matrix&& other) noexcept = default;

  /// Convenience factory: n x n square matrix, zero-initialized.
  static Matrix zeros(std::size_t n) { return Matrix(n, n, 0.0); }
  /// Convenience factory: rows x cols, zero-initialized.
  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }
  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }
  bool square() const noexcept { return rows_ == cols_; }

  double* data() noexcept { return data_.get(); }
  const double* data() const noexcept { return data_.get(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Sets every element to `value`.
  void fill(double value) noexcept;
  /// Sets every element to zero.
  void zero() noexcept { fill(0.0); }

  /// Whole-matrix mutable view.
  MatrixView view() noexcept;
  /// Whole-matrix const view.
  ConstMatrixView view() const noexcept;
  ConstMatrixView cview() const noexcept;

  /// Mutable sub-block view of `r x c` elements anchored at (i0, j0).
  /// Throws std::out_of_range when the window exceeds the matrix.
  MatrixView block(std::size_t i0, std::size_t j0, std::size_t r,
                   std::size_t c);
  ConstMatrixView block(std::size_t i0, std::size_t j0, std::size_t r,
                        std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  detail::AlignedBuffer data_;
};

/// Non-owning mutable window into a row-major matrix with leading
/// dimension `ld` (elements of row i start at data + i*ld).
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(double* data, std::size_t rows, std::size_t cols,
             std::size_t ld) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= cols || rows == 0);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return ld_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }
  bool square() const noexcept { return rows_ == cols_; }
  /// True when the view is contiguous (ld == cols).
  bool packed() const noexcept { return ld_ == cols_; }

  double* data() const noexcept { return data_; }
  double* row(std::size_t i) const noexcept {
    assert(i < rows_);
    return data_ + i * ld_;
  }
  double& operator()(std::size_t i, std::size_t j) const noexcept {
    assert(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }

  /// Sub-window anchored at (i0, j0) of r x c elements.
  MatrixView block(std::size_t i0, std::size_t j0, std::size_t r,
                   std::size_t c) const;

  void fill(double value) const noexcept;
  void zero() const noexcept { fill(0.0); }

 private:
  double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

/// Non-owning read-only window; see MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, std::size_t rows, std::size_t cols,
                  std::size_t ld) noexcept
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= cols || rows == 0);
  }
  /// Implicit widening from a mutable view.
  ConstMatrixView(MatrixView v) noexcept  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(v.data(), v.rows(), v.cols(), v.ld()) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return ld_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  bool empty() const noexcept { return size() == 0; }
  bool square() const noexcept { return rows_ == cols_; }
  bool packed() const noexcept { return ld_ == cols_; }

  const double* data() const noexcept { return data_; }
  const double* row(std::size_t i) const noexcept {
    assert(i < rows_);
    return data_ + i * ld_;
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    assert(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }

  ConstMatrixView block(std::size_t i0, std::size_t j0, std::size_t r,
                        std::size_t c) const;

 private:
  const double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t ld_ = 0;
};

/// True when some element of `x` is also an element of `y`. Exact for
/// any two views, so disjoint blocks of one matrix (quadrants, or
/// interleaved column panels) never count as overlapping.
bool views_overlap(ConstMatrixView x, ConstMatrixView y) noexcept;

/// What a multiply requires of C = A·B beyond A m x k, B k x n, C m x n.
struct ProductRules {
  bool square = false;   ///< all three n x n (Strassen, Winograd, CAPS)
  bool disjoint = true;  ///< C shares no element with A or B
};

/// The operand contract of every multiply: why C = A·B cannot run, or
/// null when it can.
const char* product_error(ConstMatrixView a, ConstMatrixView b,
                          ConstMatrixView c, ProductRules rules = {}) noexcept;

/// product_error() as a precondition: throws std::invalid_argument
/// "<who>: <reason> (A=mxk B=kxn C=mxn)".
void check_product(const char* who, ConstMatrixView a, ConstMatrixView b,
                   ConstMatrixView c, ProductRules rules = {});

}  // namespace capow::linalg
