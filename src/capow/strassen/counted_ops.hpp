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

/// Books an add or subtract of s elements, in place or not: s flops,
/// two operands read and one result written.
inline void count_binary(std::uint64_t s) {
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

/// The linalg ops, each booked as above, as the op set scheme::evaluate
/// drives.
struct CountedOps {
  void copy(linalg::ConstMatrixView src, linalg::MatrixView dst) const {
    linalg::copy(src, dst);
    count_copy(dst.size());
  }
  void binary(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView dst, bool subtract) const {
    if (subtract) {
      linalg::sub(a, b, dst);
    } else {
      linalg::add(a, b, dst);
    }
    count_binary(dst.size());
  }
  void accumulate(linalg::MatrixView dst, linalg::ConstMatrixView src,
                  bool subtract) const {
    if (subtract) {
      linalg::sub_inplace(dst, src);
    } else {
      linalg::add_inplace(dst, src);
    }
    count_binary(dst.size());
  }
};

}  // namespace capow::strassen
