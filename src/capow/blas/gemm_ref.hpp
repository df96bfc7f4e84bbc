// Reference (naive) GEMM — ground truth for every other multiplier.
#pragma once

#include "capow/linalg/matrix.hpp"

namespace capow::blas {

/// C = A * B using the ijk triple loop. O(n^3), no blocking, no
/// instrumentation; exists purely as the correctness oracle. Operands
/// that break linalg::check_product (any shape, C disjoint) throw
/// std::invalid_argument.
void gemm_reference(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c);

/// C += A * B, reference version; the same check.
void gemm_reference_accumulate(linalg::ConstMatrixView a,
                               linalg::ConstMatrixView b,
                               linalg::MatrixView c);

}  // namespace capow::blas
