// Dense base-case solver for the Strassen family.
//
// Models the BOTS suite's manually-unrolled dense kernel that the
// recursion reverts to "when the sub-matrix Nth dimension is less than or
// equal to 64" (paper, Section IV-B). It is a straightforward
// register-unrolled ikj kernel — deliberately *not* the packed Goto
// kernel, because the whole point of the paper's comparison is that the
// Strassen implementations run on a far less efficient base multiplier
// than the tuned OpenBLAS path (see kBotsBaseKernelEfficiency).
//
// A BOTS build for a vector machine runs at that machine's vector width,
// so the one loop is compiled for baseline x86-64, AVX2 and AVX-512F and
// the widest clone the host supports runs. The clones never fuse a
// multiply-add and vectorize only across columns of C, so every clone
// produces the same bits as the baseline build.
#pragma once

#include "capow/linalg/matrix.hpp"

namespace capow::strassen {

/// C = A * B for small square-ish blocks. Instrumented: counts
/// 2*m*n*k flops, 2 operand reads and one result write of logical
/// traffic. Shapes validated.
void base_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
               linalg::MatrixView c);

/// C += A * B variant (used by the distributed extension's local stage).
void base_gemm_accumulate(linalg::ConstMatrixView a,
                          linalg::ConstMatrixView b, linalg::MatrixView c);

}  // namespace capow::strassen
