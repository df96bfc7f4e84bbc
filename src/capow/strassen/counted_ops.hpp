// Instrumented wrappers over the linalg elementwise ops.
//
// The Strassen-family algorithms account every O(n^2) add/sub/copy they
// perform: each op of s elements reads its operands and writes its
// result (3 words moved per element for a binary op, 2 for a copy) and
// executes s flops for an add/sub. The cost models replicate these exact
// conventions, which is what lets tests assert instrumented == analytic
// with zero tolerance.
#pragma once

#include "capow/linalg/ops.hpp"
#include "capow/trace/counters.hpp"

namespace capow::strassen {

inline void counted_add(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                        linalg::MatrixView dst) {
  linalg::add(a, b, dst);
  const std::uint64_t s = dst.size();
  trace::count_flops(s);
  trace::count_dram_read(2 * s * sizeof(double));
  trace::count_dram_write(s * sizeof(double));
}

inline void counted_sub(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                        linalg::MatrixView dst) {
  linalg::sub(a, b, dst);
  const std::uint64_t s = dst.size();
  trace::count_flops(s);
  trace::count_dram_read(2 * s * sizeof(double));
  trace::count_dram_write(s * sizeof(double));
}

inline void counted_add_inplace(linalg::MatrixView dst,
                                linalg::ConstMatrixView src) {
  linalg::add_inplace(dst, src);
  const std::uint64_t s = dst.size();
  trace::count_flops(s);
  trace::count_dram_read(2 * s * sizeof(double));
  trace::count_dram_write(s * sizeof(double));
}

inline void counted_sub_inplace(linalg::MatrixView dst,
                                linalg::ConstMatrixView src) {
  linalg::sub_inplace(dst, src);
  const std::uint64_t s = dst.size();
  trace::count_flops(s);
  trace::count_dram_read(2 * s * sizeof(double));
  trace::count_dram_write(s * sizeof(double));
}

/// Books a copy of s elements (one read and one write each) without
/// moving data: the logical cost of an operand read in place.
inline void count_copy(std::uint64_t s) {
  trace::count_dram_read(s * sizeof(double));
  trace::count_dram_write(s * sizeof(double));
}

inline void counted_copy(linalg::ConstMatrixView src, linalg::MatrixView dst) {
  linalg::copy(src, dst);
  count_copy(dst.size());
}

/// The counted ops as the op set scheme::evaluate drives.
struct CountedOps {
  void copy(linalg::ConstMatrixView src, linalg::MatrixView dst) const {
    counted_copy(src, dst);
  }
  void binary(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView dst, bool subtract) const {
    if (subtract) {
      counted_sub(a, b, dst);
    } else {
      counted_add(a, b, dst);
    }
  }
  void accumulate(linalg::MatrixView dst, linalg::ConstMatrixView src,
                  bool subtract) const {
    if (subtract) {
      counted_sub_inplace(dst, src);
    } else {
      counted_add_inplace(dst, src);
    }
  }
};

}  // namespace capow::strassen
