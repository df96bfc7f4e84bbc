// Host CPU feature probe: the one place that asks the CPU what it runs.
//
// Every ISA-dispatched routine (the gemm microkernels, the ABFT checksum
// sweeps, the BOTS base kernel and the O(n^2) quadrant ops) picks its
// compiled clone from these answers, each cached on first use so the
// dispatch costs one load per call.
#pragma once

namespace capow::linalg {

inline bool has_avx2() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

inline bool has_fma() noexcept {
  static const bool ok = __builtin_cpu_supports("fma") != 0;
  return ok;
}

inline bool has_avx512f() noexcept {
  static const bool ok = __builtin_cpu_supports("avx512f") != 0;
  return ok;
}

}  // namespace capow::linalg
