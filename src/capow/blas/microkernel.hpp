// Runtime-dispatched register microkernels for the packed GEMM family.
//
// The paper's "OpenBLAS tuned" baseline (Algorithm 1) is only meaningful
// if the local multiply runs as fast as the hardware allows. This module
// provides the mr x nr register kernels that blas::gemm (and, when
// requested, the Strassen/CAPS dense base case) executes over packed
// operand stripes:
//
//   * generic — portable scalar 4x4 tile, compiled for the baseline ISA,
//   * avx2    — 4x8 tile of 256-bit mul+add vectors,
//   * fma     — 6x8 tile of fused multiply-adds (the BLIS-style Haswell
//               shape: 12 independent accumulator vectors),
//   * avx512  — 12x16 tile of 512-bit fused multiply-adds (24 zmm
//               accumulators); per C element it runs the same fma chain
//               as `fma`, so at equal kc the two are bit-identical.
//
// Every kernel ships with matching pack routines that lay A out in
// mr-high row stripes and B in nr-wide column stripes, zero-padded so
// the kernel never branches on a partial tile. All SIMD variants are
// compiled with per-function target attributes and gated behind runtime
// CPU detection, so one binary carries every kernel and selects at run
// time — `CAPOW_KERNEL={generic,avx2,fma,avx512,auto}` pins the choice for
// A/B experiments.
//
// The host's choice never leaks into the machine model: model_kernel()
// caps it at the modelled core's flops per cycle, so a simulated Haswell
// is blocked for the 6x8 tile even on a host that runs the 12x16 one.
//
// Kernels are *pure*: they move no logical-traffic counters. The callers
// (blocked_gemm, small_gemm) account packing and tile traffic exactly as
// the closed-form cost models do, which keeps the instrumented-vs-model
// cross-checks byte-exact regardless of the kernel variant.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "capow/linalg/matrix.hpp"
#include "capow/machine/machine.hpp"

namespace capow::blas {

/// Identity of one registered microkernel variant.
enum class MicroKernelId : int {
  kGeneric = 0,
  kAvx2 = 1,
  kFma = 2,
  kAvx512 = 3
};

/// Computes one full MR x NR tile over packed stripes:
///   C[r*ldc + j] += sum_p astripe[p*MR + r] * bstripe[p*NR + j].
using MicroKernelFn = void (*)(const double* astripe, const double* bstripe,
                               std::size_t kc, double* c, std::size_t ldc);

/// Packs the mc x kc block of `a` anchored at (ic, pc) into mr-high row
/// stripes (stripe-major, then k-index, then row-in-stripe), zero-padding
/// edge rows to the kernel's mr.
using PackAFn = void (*)(linalg::ConstMatrixView a, std::size_t ic,
                         std::size_t pc, std::size_t mc, std::size_t kc,
                         double* buf);

/// Packs the kc x nc panel of `b` anchored at (pc, jc) into nr-wide
/// column stripes, zero-padding edge columns to the kernel's nr.
using PackBFn = void (*)(linalg::ConstMatrixView b, std::size_t pc,
                         std::size_t jc, std::size_t kc, std::size_t nc,
                         double* buf);

/// One registered microkernel variant plus its pack routines.
struct MicroKernel {
  MicroKernelId id{};
  const char* name = "";  ///< registry key; also the CAPOW_KERNEL value
  std::size_t mr = 0;     ///< register-tile rows
  std::size_t nr = 0;     ///< register-tile columns
  /// Peak double-precision flops per cycle per core of the ISA this
  /// kernel targets (two issue ports of its widest mul/add or FMA).
  /// Compared against machine::CoreSpec::flops_per_cycle by
  /// model_kernel(), so a modelled machine never gets a wider kernel
  /// than its cores have.
  double flops_per_cycle = 0.0;
  MicroKernelFn kernel = nullptr;
  PackAFn pack_a = nullptr;
  PackBFn pack_b = nullptr;
  bool (*supported)() = nullptr;  ///< runtime CPU capability check
};

/// Largest tile any registered kernel uses (sizes edge-tile scratch;
/// a static_assert in microkernel.cpp holds every kernel to it).
inline constexpr std::size_t kMaxMicroTileRows = 12;
inline constexpr std::size_t kMaxMicroTileCols = 16;

/// All registered kernels, in ascending-preference order (the last
/// supported entry is the "auto" choice).
std::span<const MicroKernel> kernel_registry() noexcept;

/// Lookup by id; never null for a valid id.
const MicroKernel* find_kernel(MicroKernelId id) noexcept;

/// Lookup by registry name ("generic", "avx2", "fma", "avx512"); null
/// when unknown.
const MicroKernel* find_kernel(std::string_view name) noexcept;

/// Registered kernel whose register tile is exactly mr x nr; null when
/// none matches. Tiles are unique per kernel, so legacy BlockingParams
/// (whose mr/nr predate the registry) resolve to exactly one variant.
const MicroKernel* find_kernel_for_tile(std::size_t mr,
                                        std::size_t nr) noexcept;

/// Every registered kernel with the register tile that selects it, in
/// registry order: "generic=4x4, avx2=4x8, fma=6x8, avx512=12x16". Used
/// by validation errors so they name the valid choices.
std::string kernel_tile_listing();

/// The CAPOW_KERNEL environment override, parsed once per process:
/// nullopt when unset or "auto"; throws std::invalid_argument the first
/// time for an unknown value.
std::optional<MicroKernelId> env_kernel_override();

/// Resolves the kernel to run:
///   1. `requested` when provided,
///   2. else the CAPOW_KERNEL environment override,
///   3. else the fastest variant this CPU supports.
/// Throws std::runtime_error when the resolved variant is not supported
/// by the executing CPU (an explicit request for an unavailable ISA is
/// an experiment-setup error, not something to paper over silently).
const MicroKernel& select_kernel(
    std::optional<MicroKernelId> requested = std::nullopt);

/// The kernel a model of `spec` blocks for: select_kernel()'s choice
/// (CAPOW_KERNEL, else the fastest supported), stepped down to the
/// fastest supported kernel whose flops_per_cycle does not exceed
/// `spec.core.flops_per_cycle`. The generic kernel is the floor. This
/// keeps simulated tables a function of the modelled machine rather
/// than of the host that prints them.
const MicroKernel& model_kernel(const machine::MachineSpec& spec);

/// Runs one (possibly partial) tile: full tiles go straight to the
/// kernel; edge tiles accumulate into a zeroed scratch tile first and
/// add back only the live rows x cols window of C.
void run_micro_tile(const MicroKernel& k, const double* astripe,
                    const double* bstripe, std::size_t kc,
                    linalg::MatrixView c, std::size_t i0, std::size_t j0,
                    std::size_t rows, std::size_t cols);

}  // namespace capow::blas
