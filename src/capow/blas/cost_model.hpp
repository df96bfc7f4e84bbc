// Closed-form cost model for the blocked DGEMM.
//
// Mirrors blocked_gemm.cpp's loop structure *exactly*, so tests can
// assert (instrumented bytes == analytic bytes) with zero tolerance, and
// the benches can evaluate 4096^3-scale configurations without running
// hours of scalar arithmetic.
#pragma once

#include <cstddef>

#include "capow/blas/blocking.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"

namespace capow::blas {

/// Fraction of per-core peak the tuned GEMM kernel attains. The paper's
/// OpenBLAS is built with TARGET=SANDYBRIDGE (Table I) and therefore
/// issues AVX multiply+add, not Haswell FMA: at most 8 of the 16
/// flops/cycle the machine model credits as peak, degraded further by
/// edge cases and pack overhead — hence 0.42. This value reproduces the
/// paper's absolute OpenBLAS runtimes to within ~15%.
inline constexpr double kTunedGemmEfficiency = 0.42;

/// Total flops of an m x n x k multiply-accumulate sweep (2mnk).
double gemm_flops(std::size_t m, std::size_t n, std::size_t k);

/// Logical streaming traffic of blas::gemm() in bytes — the same
/// quantity the instrumentation counts: the initial C zero-fill, every
/// A/B pack read, and every C tile read+write.
double blocked_gemm_traffic_bytes(std::size_t m, std::size_t n,
                                  std::size_t k, const BlockingParams& bp);

/// Number of parallel_for joins blas::gemm() performs with >1 worker.
std::uint64_t blocked_gemm_sync_count(std::size_t n, std::size_t k,
                                      const BlockingParams& bp);

/// Builds the simulator work profile for an n x n x n blocked DGEMM on
/// `spec` with `threads` workers (blocking chosen via
/// select_blocking(spec, model_kernel(spec))).
/// When all three operands fit in the LLC only compulsory traffic hits
/// DRAM; otherwise the full streaming traffic does.
sim::WorkProfile blocked_gemm_profile(std::size_t n,
                                      const machine::MachineSpec& spec,
                                      unsigned threads);

}  // namespace capow::blas
