#include "capow/blas/microkernel.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "capow/linalg/cpu_features.hpp"

namespace capow::blas {

namespace {

// ---------------------------------------------------------------------
// Pack routines. Layout is shared by every kernel — only the stripe
// height/width differs — so one template instantiates all variants.
// A: mr-high row stripes, stripe-major -> k-index -> row-in-stripe.
// B: nr-wide column stripes, stripe-major -> k-index -> column.
// Edges are zero-padded to the full stripe so kernels never branch.
// ---------------------------------------------------------------------

template <std::size_t MR>
void pack_a_t(linalg::ConstMatrixView a, std::size_t ic, std::size_t pc,
              std::size_t mc, std::size_t kc, double* buf) {
  std::size_t out = 0;
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t rows = std::min(MR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < MR; ++r) {
        buf[out++] = r < rows ? a(ic + ir + r, pc + p) : 0.0;
      }
    }
  }
}

template <std::size_t NR>
void pack_b_t(linalg::ConstMatrixView b, std::size_t pc, std::size_t jc,
              std::size_t kc, std::size_t nc, double* buf) {
  std::size_t out = 0;
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t cols = std::min(NR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      const double* brow = b.row(pc + p) + jc + jr;
      if (cols == NR) {
        // A full stripe row is one contiguous copy.
        std::memcpy(buf + out, brow, NR * sizeof(double));
        out += NR;
        continue;
      }
      for (std::size_t cdx = 0; cdx < NR; ++cdx) {
        buf[out++] = cdx < cols ? brow[cdx] : 0.0;
      }
    }
  }
}

// ---------------------------------------------------------------------
// generic — portable scalar 4x4 tile (the seed's microkernel shape).
// ---------------------------------------------------------------------

void kernel_generic_4x4(const double* astripe, const double* bstripe,
                        std::size_t kc, double* c, std::size_t ldc) {
  double acc[4][4] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* ap = astripe + p * 4;
    const double* bp = bstripe + p * 4;
    for (std::size_t r = 0; r < 4; ++r) {
      const double ar = ap[r];
      for (std::size_t j = 0; j < 4; ++j) acc[r][j] += ar * bp[j];
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    double* crow = c + r * ldc;
    for (std::size_t j = 0; j < 4; ++j) crow[j] += acc[r][j];
  }
}

bool supported_generic() { return true; }

// ---------------------------------------------------------------------
// avx2 — 4x8 tile: 8 accumulator vectors of 4 doubles, separate
// multiply + add (no FMA), broadcast from the A stripe.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) void kernel_avx2_4x8(const double* astripe,
                                                     const double* bstripe,
                                                     std::size_t kc,
                                                     double* c,
                                                     std::size_t ldc) {
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bstripe + p * 8);
    const __m256d b1 = _mm256_loadu_pd(bstripe + p * 8 + 4);
    const double* ap = astripe + p * 4;
    __m256d ar = _mm256_broadcast_sd(ap + 0);
    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(ar, b0));
    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(ap + 1);
    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(ar, b0));
    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(ap + 2);
    acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(ar, b0));
    acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(ap + 3);
    acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(ar, b0));
    acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(ar, b1));
  }
  double* crow = c;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc00));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc01));
  crow = c + ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc10));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc11));
  crow = c + 2 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc20));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc21));
  crow = c + 3 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc30));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc31));
}

bool supported_avx2() { return linalg::has_avx2(); }

// ---------------------------------------------------------------------
// fma — 6x8 tile, the BLIS Haswell shape: 12 independent accumulator
// vectors saturate the two FMA ports while staying within the 16
// architectural ymm registers (12 accumulators + 2 B vectors + 1 A
// broadcast + 1 spare).
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void kernel_fma_6x8(
    const double* astripe, const double* bstripe, std::size_t kc, double* c,
    std::size_t ldc) {
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  __m256d acc40 = _mm256_setzero_pd(), acc41 = _mm256_setzero_pd();
  __m256d acc50 = _mm256_setzero_pd(), acc51 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bstripe + p * 8);
    const __m256d b1 = _mm256_loadu_pd(bstripe + p * 8 + 4);
    const double* ap = astripe + p * 6;
    __m256d ar = _mm256_broadcast_sd(ap + 0);
    acc00 = _mm256_fmadd_pd(ar, b0, acc00);
    acc01 = _mm256_fmadd_pd(ar, b1, acc01);
    ar = _mm256_broadcast_sd(ap + 1);
    acc10 = _mm256_fmadd_pd(ar, b0, acc10);
    acc11 = _mm256_fmadd_pd(ar, b1, acc11);
    ar = _mm256_broadcast_sd(ap + 2);
    acc20 = _mm256_fmadd_pd(ar, b0, acc20);
    acc21 = _mm256_fmadd_pd(ar, b1, acc21);
    ar = _mm256_broadcast_sd(ap + 3);
    acc30 = _mm256_fmadd_pd(ar, b0, acc30);
    acc31 = _mm256_fmadd_pd(ar, b1, acc31);
    ar = _mm256_broadcast_sd(ap + 4);
    acc40 = _mm256_fmadd_pd(ar, b0, acc40);
    acc41 = _mm256_fmadd_pd(ar, b1, acc41);
    ar = _mm256_broadcast_sd(ap + 5);
    acc50 = _mm256_fmadd_pd(ar, b0, acc50);
    acc51 = _mm256_fmadd_pd(ar, b1, acc51);
  }
  double* crow = c;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc00));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc01));
  crow = c + ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc10));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc11));
  crow = c + 2 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc20));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc21));
  crow = c + 3 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc30));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc31));
  crow = c + 4 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc40));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc41));
  crow = c + 5 * ldc;
  _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc50));
  _mm256_storeu_pd(crow + 4, _mm256_add_pd(_mm256_loadu_pd(crow + 4), acc51));
}

bool supported_fma() { return linalg::has_avx2() && linalg::has_fma(); }

// ---------------------------------------------------------------------
// avx512 — 12x16 tile: 24 zmm accumulators (12 rows x 2 vectors of 8
// doubles) + 2 B vectors + 1 A broadcast, within the 32 architectural
// zmm registers. Each C element runs acc = fma(a, b, acc) over p in the
// same order as the fma kernel and is added to C once per call, so at
// equal kc the result is bit-identical to `fma`.
// ---------------------------------------------------------------------

__attribute__((target("avx512f"))) void kernel_avx512_12x16(
    const double* astripe, const double* bstripe, std::size_t kc, double* c,
    std::size_t ldc) {
  __m512d acc[12][2];
#pragma GCC unroll 12
  for (std::size_t r = 0; r < 12; ++r) {
    acc[r][0] = _mm512_setzero_pd();
    acc[r][1] = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512d b0 = _mm512_loadu_pd(bstripe + p * 16);
    const __m512d b1 = _mm512_loadu_pd(bstripe + p * 16 + 8);
    const double* ap = astripe + p * 12;
#pragma GCC unroll 12
    for (std::size_t r = 0; r < 12; ++r) {
      const __m512d ar = _mm512_set1_pd(ap[r]);
      acc[r][0] = _mm512_fmadd_pd(ar, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(ar, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 12
  for (std::size_t r = 0; r < 12; ++r) {
    double* crow = c + r * ldc;
    _mm512_storeu_pd(crow, _mm512_add_pd(_mm512_loadu_pd(crow), acc[r][0]));
    _mm512_storeu_pd(crow + 8,
                     _mm512_add_pd(_mm512_loadu_pd(crow + 8), acc[r][1]));
  }
}

bool supported_avx512() { return linalg::has_avx512f(); }

// Ascending preference; flops_per_cycle is two issue ports of each
// kernel's widest arithmetic (scalar mul+add, 4-wide mul+add, 4-wide
// FMA, 8-wide FMA).
constexpr MicroKernel kKernels[] = {
    {MicroKernelId::kGeneric, "generic", 4, 4, 2.0, kernel_generic_4x4,
     pack_a_t<4>, pack_b_t<4>, supported_generic},
    {MicroKernelId::kAvx2, "avx2", 4, 8, 8.0, kernel_avx2_4x8, pack_a_t<4>,
     pack_b_t<8>, supported_avx2},
    {MicroKernelId::kFma, "fma", 6, 8, 16.0, kernel_fma_6x8, pack_a_t<6>,
     pack_b_t<8>, supported_fma},
    {MicroKernelId::kAvx512, "avx512", 12, 16, 32.0, kernel_avx512_12x16,
     pack_a_t<12>, pack_b_t<16>, supported_avx512},
};

// run_micro_tile's edge scratch is a fixed stack tile; every kernel's
// register tile must fit in it.
constexpr bool tiles_fit_edge_scratch() {
  for (const MicroKernel& k : kKernels) {
    if (k.mr > kMaxMicroTileRows || k.nr > kMaxMicroTileCols) return false;
  }
  return true;
}
static_assert(tiles_fit_edge_scratch(),
              "raise kMaxMicroTileRows/Cols to the largest registered tile");

}  // namespace

std::span<const MicroKernel> kernel_registry() noexcept { return kKernels; }

const MicroKernel* find_kernel(MicroKernelId id) noexcept {
  for (const MicroKernel& k : kKernels) {
    if (k.id == id) return &k;
  }
  return nullptr;
}

const MicroKernel* find_kernel(std::string_view name) noexcept {
  for (const MicroKernel& k : kKernels) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

const MicroKernel* find_kernel_for_tile(std::size_t mr,
                                        std::size_t nr) noexcept {
  for (const MicroKernel& k : kKernels) {
    if (k.mr == mr && k.nr == nr) return &k;
  }
  return nullptr;
}

std::string kernel_tile_listing() {
  std::string s;
  for (const MicroKernel& k : kKernels) {
    if (!s.empty()) s += ", ";
    s += k.name;
    s += "=";
    s += std::to_string(k.mr);
    s += "x";
    s += std::to_string(k.nr);
  }
  return s;
}

std::optional<MicroKernelId> env_kernel_override() {
  // Parsed exactly once: the override is a per-process experiment knob,
  // and re-reading it mid-run would let two halves of one measurement
  // disagree about the kernel.
  static std::once_flag flag;
  static std::optional<MicroKernelId> cached;
  static std::string error;
  std::call_once(flag, [] {
    const char* env = std::getenv("CAPOW_KERNEL");
    if (env == nullptr || *env == '\0') return;
    const std::string_view value(env);
    if (value == "auto") return;
    if (const MicroKernel* k = find_kernel(value)) {
      cached = k->id;
      return;
    }
    error = "CAPOW_KERNEL: unknown kernel '" + std::string(value) +
            "' (expected auto or one of " + kernel_tile_listing() + ")";
  });
  if (!error.empty()) throw std::invalid_argument(error);
  return cached;
}

const MicroKernel& select_kernel(std::optional<MicroKernelId> requested) {
  std::optional<MicroKernelId> want = requested;
  if (!want) want = env_kernel_override();
  if (want) {
    const MicroKernel* k = find_kernel(*want);
    if (k == nullptr || !k->supported()) {
      throw std::runtime_error(
          std::string("capow::blas: kernel '") +
          (k != nullptr ? k->name : "?") +
          "' is not supported by this CPU");
    }
    return *k;
  }
  const MicroKernel* best = nullptr;
  for (const MicroKernel& k : kKernels) {
    if (k.supported()) best = &k;
  }
  // The generic kernel is unconditionally supported, so best != null.
  return *best;
}

const MicroKernel& model_kernel(const machine::MachineSpec& spec) {
  const MicroKernel& chosen = select_kernel();
  if (chosen.flops_per_cycle <= spec.core.flops_per_cycle) return chosen;
  const MicroKernel* best = &kKernels[0];
  for (const MicroKernel& k : kKernels) {
    if (k.supported() && k.flops_per_cycle <= spec.core.flops_per_cycle) {
      best = &k;
    }
  }
  return *best;
}

void run_micro_tile(const MicroKernel& k, const double* astripe,
                    const double* bstripe, std::size_t kc,
                    linalg::MatrixView c, std::size_t i0, std::size_t j0,
                    std::size_t rows, std::size_t cols, bool overwrite) {
  // The kernel adds into the window once, after its k loop. When
  // overwriting, zero it first (0.0 + tile, exactly what a zeroed C
  // gives); the stores fetch its lines. Otherwise prefetch its lines
  // (8 doubles each) so they arrive while the k loop runs.
  for (std::size_t r = 0; r < rows; ++r) {
    double* crow = c.row(i0 + r) + j0;
    if (overwrite) {
      std::fill_n(crow, cols, 0.0);
      continue;
    }
    for (std::size_t j = 0; j < cols; j += 8) __builtin_prefetch(crow + j);
    __builtin_prefetch(crow + cols - 1);
  }
  if (rows == k.mr && cols == k.nr) {
    k.kernel(astripe, bstripe, kc, c.row(i0) + j0, c.ld());
    return;
  }
  // Edge tile: accumulate into scratch, add back the live window. The
  // kernel reads and writes only its mr x nr tile, so only that is zeroed.
  alignas(64) double tile[kMaxMicroTileRows * kMaxMicroTileCols];
  std::fill_n(tile, k.mr * k.nr, 0.0);
  k.kernel(astripe, bstripe, kc, tile, k.nr);
  for (std::size_t r = 0; r < rows; ++r) {
    double* crow = c.row(i0 + r) + j0;
    const double* trow = tile + r * k.nr;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += trow[j];
  }
}

}  // namespace capow::blas
