// Checksum primitives for algorithm-based fault tolerance.
//
// Huang–Abraham ABFT protects C = A·B with two invariants that cost
// O(n^2) against the O(n^3) multiply: the column sums of C must equal
// (e^T A)·B and the row sums must equal A·(B e). Every checksum is
// paired with a magnitude accumulator Σ|terms| that scales the
// comparison tolerance: a residual is flagged only above
// tolerance x magnitude. The default tolerance (1e-7) sits ~5 orders
// above plain summation's worst-case rounding — n·eps ≈ 2e-13 of the
// magnitude at the paper's n = 2048 — and ~3 orders below the smallest
// injected flip (>= 25% of one element), so the O(n^2) sweeps need no
// compensation at all: they are plain lane-split sums with no
// data-dependent branches, and vectorize to memory bandwidth. That is
// what keeps detect-mode overhead in the low percent range against a
// 2n^3-flop multiply. Compensated summation (branch-free Knuth TwoSum,
// error independent of the summand count) is reserved for the one
// checksum compared with *zero* tolerance: the message payload word,
// where sender and receiver must agree bitwise.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "capow/linalg/matrix.hpp"

namespace capow::abft {

/// Branch-free compensated-summation step on a (sum, compensation)
/// pair: Knuth's TwoSum error term instead of Neumaier's magnitude
/// test, so it is exact for *any* operand ordering and — having no
/// data-dependent branch — lets compilers vectorize loops over
/// independent accumulators (the shape of every O(n^2) checksum sweep).
inline void two_sum(double& sum, double& comp, double v) noexcept {
  const double t = sum + v;
  const double bv = t - sum;
  comp += (sum - (t - bv)) + (v - bv);
  sum = t;
}

/// One Neumaier-style compensated accumulator (running sum plus error
/// term, folded on read): value() is exact to ~1 ulp of the true sum
/// regardless of the number of summands.
struct NeumaierAcc {
  double sum = 0.0;
  double comp = 0.0;

  void add(double v) noexcept { two_sum(sum, comp, v); }

  double value() const noexcept { return sum + comp; }
};

/// Column checksums e^T A: out[j] = Σ_i a(i,j) and
/// mag[j] = Σ_i |a(i,j)|. Per-column accumulators are independent, so
/// the sweep vectorizes across j. Both arrays must hold a.cols()
/// doubles.
void col_sums(linalg::ConstMatrixView a, double* out, double* mag);

/// Row checksums A e: out[i] = Σ_j a(i,j) and mag[i] = Σ_j |a(i,j)|.
/// Each row is one serial reduction, split over independent lanes for
/// throughput. Both arrays must hold a.rows() doubles.
void row_sums(linalg::ConstMatrixView a, double* out, double* mag);

/// Fused guard-construction sweep over A (one stream): the column
/// checksums ca[t] = Σ_i a(i,t) / camag[t] = Σ_i |a(i,t)| and, dotted
/// against the caller-supplied row checksums of B (rb, rbmag — see
/// row_sums), the per-row references rref[i] = Σ_t a(i,t)·rb[t] and
/// magnitudes rmag[i] = Σ_t |a(i,t)|·rbmag[t].
void guard_row_refs(linalg::ConstMatrixView a, const double* rb,
                    const double* rbmag, double* ca, double* camag,
                    double* rref, double* rmag);

/// Guard-construction sweep over B (one stream): the per-column
/// references cref[j] = Σ_t ca[t]·b(t,j) and magnitudes
/// cmag[j] = Σ_t camag[t]·|b(t,j)| from A's column checksums.
void guard_col_refs(linalg::ConstMatrixView b, const double* ca,
                    const double* camag, double* cref, double* cmag);

/// Verification sweep: the row sums and column sums of C in one
/// stream. row_out must hold c.rows() doubles, col_out c.cols().
void matrix_sums(linalg::ConstMatrixView c, double* row_out,
                 double* col_out);

/// Compensated checksum over a contiguous payload in index order. Both
/// ends of a message sum in the same order, so sender and receiver
/// words compare *bitwise* equal on an intact payload — the end-to-end
/// check needs no tolerance.
double payload_checksum(const double* data, std::size_t count) noexcept;

namespace detail {

/// One compiled ISA clone of the five O(n^2) sweeps above, for tests
/// and benches that check or time every clone.
struct SweepClone {
  const char* name;  ///< "baseline", "avx2" or "avx512f"
  void (*col_sums)(linalg::ConstMatrixView a, double* out, double* mag);
  void (*row_sums)(linalg::ConstMatrixView a, double* out, double* mag);
  void (*guard_row_refs)(linalg::ConstMatrixView a, const double* rb,
                         const double* rbmag, double* ca, double* camag,
                         double* rref, double* rmag);
  void (*guard_col_refs)(linalg::ConstMatrixView b, const double* ca,
                         const double* camag, double* cref, double* cmag);
  void (*matrix_sums)(linalg::ConstMatrixView c, double* row_out,
                      double* col_out);
};

/// The clones this host can run, narrowest first; the sweeps above
/// dispatch to the last.
std::span<const SweepClone> sweep_clones();

}  // namespace detail

}  // namespace capow::abft
