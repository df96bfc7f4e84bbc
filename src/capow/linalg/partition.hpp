// Quadrant partitioning for divide-and-conquer matrix algorithms.
//
// Strassen and CAPS recurse on the 2x2 quadrant decomposition of Eq (7);
// this header provides the canonical partition of a view into
// {A11, A12, A21, A22}. The algorithm entry point peels sizes that do
// not halve evenly (strassen::run_frame), so partition() requires even
// dimensions and throws otherwise.
#pragma once

#include <array>

#include "capow/linalg/matrix.hpp"

namespace capow::linalg {

/// The four quadrants of an even-dimension matrix view, indexed
/// q[0]=A11, q[1]=A12, q[2]=A21, q[3]=A22.
template <typename View>
struct Quadrants {
  View q11, q12, q21, q22;
};

/// Splits an even x even view into its four quadrants.
/// Throws std::invalid_argument when rows or cols is odd.
Quadrants<MatrixView> partition(MatrixView m);
Quadrants<ConstMatrixView> partition(ConstMatrixView m);

/// True when the dimension can be quadrant-split.
inline bool splittable(ConstMatrixView m) noexcept {
  return m.rows() % 2 == 0 && m.cols() % 2 == 0 && m.rows() >= 2 &&
         m.cols() >= 2;
}

}  // namespace capow::linalg
