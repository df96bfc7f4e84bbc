// Elementwise and reduction operations on matrix views.
//
// These are the O(n^2) building blocks the Strassen family leans on: the
// seven quadrant products are stitched together from adds/subs, so their
// performance (and, in the paper's framing, their *memory traffic*) is a
// first-class concern. Every routine here works on strided views so that
// quadrants are processed in place.
#pragma once

#include <cstddef>

#include "capow/linalg/matrix.hpp"

namespace capow::linalg {

/// dst = src (shapes must match; throws std::invalid_argument otherwise).
void copy(ConstMatrixView src, MatrixView dst);

/// dst = a + b.
void add(ConstMatrixView a, ConstMatrixView b, MatrixView dst);

/// dst = a - b.
void sub(ConstMatrixView a, ConstMatrixView b, MatrixView dst);

/// dst += src.
void add_inplace(MatrixView dst, ConstMatrixView src);

/// dst -= src.
void sub_inplace(MatrixView dst, ConstMatrixView src);

/// dst = alpha * dst.
void scale(MatrixView dst, double alpha);

/// dst += alpha * src.
void axpy(double alpha, ConstMatrixView src, MatrixView dst);

/// dst = transpose(src); src is r x c, dst must be c x r.
void transpose(ConstMatrixView src, MatrixView dst);

/// Frobenius norm sqrt(sum a_ij^2).
double frobenius_norm(ConstMatrixView a);

/// Max-abs (Chebyshev) norm.
double max_abs(ConstMatrixView a);

/// Max elementwise |a - b| (shapes must match).
double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// True when |a_ij - b_ij| <= atol + rtol * |b_ij| for all elements.
bool allclose(ConstMatrixView a, ConstMatrixView b, double rtol = 1e-9,
              double atol = 1e-12);

/// Relative forward error ||a - b||_F / max(||b||_F, tiny). Used by the
/// Strassen stability tests (Higham-style bounds grow with recursion
/// depth, so comparisons are against a depth-aware tolerance).
double relative_error(ConstMatrixView a, ConstMatrixView b);

/// Rounds n up to the next multiple of `multiple` (multiple >= 1).
std::size_t round_up(std::size_t n, std::size_t multiple);

/// Smallest dimension >= n of the form base * 2^k with base <= max_base:
/// the dimension a zero-padded recursion would run on. The recursions
/// peel a border instead (strassen::peel_dimension); error bounds and
/// probes that quote the padded dimension still use it.
std::size_t pad_dimension_for_recursion(std::size_t n, std::size_t max_base);

}  // namespace capow::linalg
