#include "capow/strassen/base_kernel.hpp"

#include <cstring>

#include "capow/linalg/cpu_features.hpp"
#include "capow/trace/counters.hpp"

namespace capow::strassen {

namespace {

// The tile is written once and compiled three times: baseline (SSE2),
// AVX2 and AVX-512F, one clone picked per process. Every C element sees
// the same operations in the same order in every clone and every tile
// shape, because the vector lanes run along j and never reduce across
// each other. This file builds with -ffp-contract=off
// (strassen/CMakeLists.txt): the avx512f target implies FMA, and a
// contracted a0*b0[j] + a1*b1[j] would round differently from the other
// two clones.

/// A GCC vector of Bytes/8 doubles (Bytes == 8 is a plain double, the
/// scalar tile for the last columns).
template <std::size_t Bytes>
struct VecOf {
  typedef double type __attribute__((vector_size(Bytes)));
};
template <>
struct VecOf<sizeof(double)> {
  using type = double;
};

struct Operands {
  linalg::ConstMatrixView a;
  linalg::ConstMatrixView b;
  linalg::MatrixView c;
  bool accumulate;
};

// R rows x W vectors of C held in registers across the whole k loop:
// BOTS's strip of sums. The two B row segments of each p pair are loaded
// once and shared by the R rows; C is read (accumulate) and written once.
// memcpy loads and stores keep unaligned strided views well-defined.
template <class V, std::size_t R, std::size_t W>
__attribute__((always_inline)) inline void bots_tile(const Operands& o,
                                                     std::size_t i,
                                                     std::size_t j) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const std::size_t k = o.a.cols();
  V acc[R][W];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t w = 0; w < W; ++w) {
      acc[r][w] = V{};
      if (o.accumulate) {
        std::memcpy(&acc[r][w], o.c.row(i + r) + j + w * kLanes, sizeof(V));
      }
    }
  }
  std::size_t p = 0;
  for (; p + 1 < k; p += 2) {
    V b0[W], b1[W];
    for (std::size_t w = 0; w < W; ++w) {
      std::memcpy(&b0[w], o.b.row(p) + j + w * kLanes, sizeof(V));
      std::memcpy(&b1[w], o.b.row(p + 1) + j + w * kLanes, sizeof(V));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double a0 = o.a(i + r, p);
      const double a1 = o.a(i + r, p + 1);
      for (std::size_t w = 0; w < W; ++w) {
        acc[r][w] += a0 * b0[w] + a1 * b1[w];
      }
    }
  }
  if (p < k) {
    V b0[W];
    for (std::size_t w = 0; w < W; ++w) {
      std::memcpy(&b0[w], o.b.row(p) + j + w * kLanes, sizeof(V));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double a0 = o.a(i + r, p);
      for (std::size_t w = 0; w < W; ++w) acc[r][w] += a0 * b0[w];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t w = 0; w < W; ++w) {
      std::memcpy(o.c.row(i + r) + j + w * kLanes, &acc[r][w], sizeof(V));
    }
  }
}

/// Columns [j, j + W*lanes) of C: R-row tiles, then 1-row tiles.
template <class V, std::size_t R, std::size_t W>
__attribute__((always_inline)) inline void bots_strip(const Operands& o,
                                                      std::size_t j) {
  const std::size_t m = o.a.rows();
  std::size_t i = 0;
  for (; i + R <= m; i += R) bots_tile<V, R, W>(o, i, j);
  for (; i < m; ++i) bots_tile<V, 1, W>(o, i, j);
}

/// Columns [j, n), fewer than Bytes/4 of them: at most one S-row strip
/// on each narrower vector width, halving down to 16 bytes, then an
/// S-row scalar strip for the last column, if any.
template <std::size_t Bytes, std::size_t S>
__attribute__((always_inline)) inline void bots_tail(const Operands& o,
                                                     std::size_t j) {
  if constexpr (Bytes >= 16) {
    constexpr std::size_t kLanes = Bytes / sizeof(double);
    if (j + kLanes <= o.b.cols()) {
      bots_strip<typename VecOf<Bytes>::type, S, 1>(o, j);
      j += kLanes;
    }
    bots_tail<Bytes / 2, S>(o, j);
  } else {
    if (j < o.b.cols()) bots_strip<double, S, 1>(o, j);
  }
}

/// The whole product on Bytes-wide vectors: R x W-vector tiles, then
/// one-vector strips of S rows for the leftover columns, then the last
/// fewer-than-vector-width columns on narrower vectors (bots_tail), so
/// an odd-width block such as a 63-wide leaf or a 15-wide border runs at
/// most one column scalar.
template <std::size_t Bytes, std::size_t R, std::size_t W, std::size_t S>
__attribute__((always_inline)) inline void bots_body(const Operands& o) {
  using V = typename VecOf<Bytes>::type;
  constexpr std::size_t kLanes = Bytes / sizeof(double);
  const std::size_t n = o.b.cols();
  std::size_t j = 0;
  for (; j + W * kLanes <= n; j += W * kLanes) bots_strip<V, R, W>(o, j);
  for (; j + kLanes <= n; j += kLanes) bots_strip<V, S, 1>(o, j);
  bots_tail<Bytes / 2, S>(o, j);
}

// Tile shapes measured on a 4-vCPU AVX-512 Xeon VM at the leaf sizes
// fast_recursion bottoms out in (n = 33, 41, 49, 56, 64, strided). The
// baseline and AVX2 clones have 16 registers: a 4 x 2-vector tile (8
// accumulators, 4 B vectors) fits. AVX-512F's 32 zmm hold 6 x 16, and
// its one-vector strips (8 columns) run 8 rows.
void bots_generic(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                  linalg::MatrixView c, bool accumulate) {
  bots_body<16, 4, 2, 4>({a, b, c, accumulate});
}
__attribute__((target("avx2"))) void bots_avx2(linalg::ConstMatrixView a,
                                               linalg::ConstMatrixView b,
                                               linalg::MatrixView c,
                                               bool accumulate) {
  bots_body<32, 4, 2, 4>({a, b, c, accumulate});
}
__attribute__((target("avx512f"))) void bots_avx512(
    linalg::ConstMatrixView a, linalg::ConstMatrixView b,
    linalg::MatrixView c, bool accumulate) {
  bots_body<64, 6, 2, 8>({a, b, c, accumulate});
}

constexpr detail::BotsClone kClones[] = {{"baseline", bots_generic},
                                         {"avx2", bots_avx2},
                                         {"avx512f", bots_avx512}};

void base_gemm_impl(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c, bool accumulate) {
  linalg::check_product("strassen::base_gemm", a, b, c, {.disjoint = false});
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();

  static const auto clone = detail::bots_clones().back().run;
  clone(a, b, c, accumulate);

  trace::count_flops(2ull * m * n * k);
  trace::count_dram_read((m * k + k * n) * sizeof(double));
  trace::count_dram_write(m * n * sizeof(double));
}

}  // namespace

namespace detail {

std::span<const BotsClone> bots_clones() {
  static const std::size_t supported = linalg::has_avx512f() ? 3
                                       : linalg::has_avx2()  ? 2
                                                             : 1;
  return {kClones, supported};
}

}  // namespace detail

void base_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
               linalg::MatrixView c) {
  base_gemm_impl(a, b, c, /*accumulate=*/false);
}

void base_gemm_accumulate(linalg::ConstMatrixView a,
                          linalg::ConstMatrixView b, linalg::MatrixView c) {
  base_gemm_impl(a, b, c, /*accumulate=*/true);
}

}  // namespace capow::strassen
