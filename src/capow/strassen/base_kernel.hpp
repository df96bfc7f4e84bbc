// Dense base-case solver for the Strassen family.
//
// Models the BOTS suite's manually-unrolled dense kernel that the
// recursion reverts to "when the sub-matrix Nth dimension is less than or
// equal to 64" (paper, Section IV-B). Like BOTS's FastNaiveMatrixMultiply
// it keeps a strip of C sums in registers for the whole k loop and stores
// them once: an R-row x W-vector tile of accumulators, fed by the two B
// row segments of each 2-way-unrolled p pair, loaded once and shared by
// the R rows. Leftover columns take one-vector strips, then the last
// fewer-than-vector-width columns strips on narrower vectors, and at
// most one column a scalar strip, all of the same body. It is
// deliberately *not* the packed Goto kernel — no packing, no FMA —
// because the whole point of the paper's comparison is that the Strassen
// implementations run on a far less efficient base multiplier than the
// tuned OpenBLAS path (see kBotsBaseKernelEfficiency).
//
// A BOTS build for a vector machine runs at that machine's vector width,
// so the tile is compiled for baseline x86-64, AVX2 and AVX-512F and the
// widest clone the host supports runs. Every C element sees the same
// sequence in every clone and tile shape — acc = 0 (or C), then
// acc += a0*b0[j] + a1*b1[j] per pair, then acc += a0*b0[j] for an odd
// k — with no fused multiply-add and no reduction across lanes, so every
// clone produces the same bits as the plain baseline ikj loop. C must
// not share an element with A or B.
#pragma once

#include <span>

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

namespace detail {

/// One compiled ISA clone of the BOTS tile, for tests and benches that
/// check or time every clone. `run` neither validates shapes nor counts
/// trace traffic; `accumulate` selects C += A*B.
struct BotsClone {
  const char* name;  ///< "baseline", "avx2" or "avx512f"
  void (*run)(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView c, bool accumulate);
};

/// The clones this host can run, narrowest first; base_gemm dispatches
/// to the last.
std::span<const BotsClone> bots_clones();

}  // namespace detail

}  // namespace capow::strassen
