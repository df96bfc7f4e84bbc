// Tests for the microkernel registry (runtime SIMD dispatch) and the
// pooled packing workspace arena behind the matmul hot paths.
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/blocking.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/trace/counters.hpp"

namespace capow::blas {
namespace {

using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

// The acceptance tolerance from the kernel contract: every variant must
// agree with the reference triple loop within 64 * n * ulp.
double kernel_tolerance(std::size_t n) {
  return 64.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

TEST(KernelRegistry, HasEveryVariant) {
  const auto kernels = kernel_registry();
  ASSERT_EQ(kernels.size(), 4u);
  EXPECT_EQ(kernels[0].id, MicroKernelId::kGeneric);
  EXPECT_STREQ(kernels[0].name, "generic");
  EXPECT_EQ(kernels[1].id, MicroKernelId::kAvx2);
  EXPECT_STREQ(kernels[1].name, "avx2");
  EXPECT_EQ(kernels[2].id, MicroKernelId::kFma);
  EXPECT_STREQ(kernels[2].name, "fma");
  EXPECT_EQ(kernels[3].id, MicroKernelId::kAvx512);
  EXPECT_STREQ(kernels[3].name, "avx512");
  EXPECT_EQ(kernels[3].mr, 12u);
  EXPECT_EQ(kernels[3].nr, 16u);
  // The scalar fallback must run anywhere.
  EXPECT_TRUE(kernels[0].supported());
  // Ascending preference is ascending peak rate, which model_kernel()
  // relies on when it steps down to a narrower kernel.
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    EXPECT_LT(kernels[i - 1].flops_per_cycle, kernels[i].flops_per_cycle)
        << kernels[i].name;
  }
  EXPECT_EQ(kernel_tile_listing(),
            "generic=4x4, avx2=4x8, fma=6x8, avx512=12x16");
}

TEST(KernelRegistry, LookupByIdNameAndTile) {
  EXPECT_STREQ(find_kernel(MicroKernelId::kGeneric)->name, "generic");
  const MicroKernel* fma = find_kernel("fma");
  ASSERT_NE(fma, nullptr);
  EXPECT_EQ(fma->mr, 6u);
  EXPECT_EQ(fma->nr, 8u);
  EXPECT_EQ(find_kernel("no-such-kernel"), nullptr);

  const MicroKernel* by_tile = find_kernel_for_tile(4, 4);
  ASSERT_NE(by_tile, nullptr);
  EXPECT_EQ(by_tile->id, MicroKernelId::kGeneric);
  EXPECT_EQ(find_kernel_for_tile(8, 8), nullptr);
}

TEST(KernelRegistry, SelectKernelHonorsExplicitRequest) {
  const MicroKernel& k = select_kernel(MicroKernelId::kGeneric);
  EXPECT_EQ(k.id, MicroKernelId::kGeneric);
  // Unconstrained selection picks something this CPU can run.
  EXPECT_TRUE(select_kernel().supported());
}

TEST(KernelRegistry, BlockingDerivedFromKernelTile) {
  for (const auto& k : kernel_registry()) {
    const BlockingParams bp = default_blocking_for(k);
    EXPECT_EQ(bp.mr, k.mr) << k.name;
    EXPECT_EQ(bp.nr, k.nr) << k.name;
    EXPECT_EQ(bp.mc % k.mr, 0u) << k.name;
    EXPECT_EQ(bp.nc % k.nr, 0u) << k.name;
  }
}

struct KernelCase {
  MicroKernelId id;
  std::size_t m, k, n;
};

class KernelVariantTest : public ::testing::TestWithParam<KernelCase> {};

// The kernel-variant matrix: every registered kernel, on square and
// awkward rectangular shapes, agrees with the reference triple loop.
TEST_P(KernelVariantTest, AgreesWithReferenceWithinUlpBound) {
  const auto p = GetParam();
  const MicroKernel& kern = *find_kernel(p.id);
  if (!kern.supported()) {
    GTEST_SKIP() << kern.name << " not supported on this CPU";
  }
  Matrix a = random_matrix(p.m, p.k, 17);
  Matrix b = random_matrix(p.k, p.n, 18);
  Matrix expect(p.m, p.n), got(p.m, p.n);
  gemm_reference(a.view(), b.view(), expect.view());
  GemmOptions opts;
  opts.kernel = p.id;
  gemm(a.view(), b.view(), got.view(), opts);
  const double err = linalg::relative_error(got.view(), expect.view());
  EXPECT_LT(err, kernel_tolerance(p.k))
      << kern.name << " " << p.m << "x" << p.k << "x" << p.n;
}

// A namespace-scope constant has its padding zero-filled, so each case
// prints the same bytes, and so names its test the same, in every build.
constexpr KernelCase kKernelCases[] = {
    {MicroKernelId::kGeneric, 64, 64, 64},
    {MicroKernelId::kGeneric, 129, 67, 55},
    {MicroKernelId::kGeneric, 1, 100, 1},
    {MicroKernelId::kAvx2, 64, 64, 64},
    {MicroKernelId::kAvx2, 129, 67, 55},
    {MicroKernelId::kAvx2, 256, 256, 256},
    {MicroKernelId::kAvx2, 1, 100, 1},
    {MicroKernelId::kFma, 64, 64, 64},
    {MicroKernelId::kFma, 129, 67, 55},
    {MicroKernelId::kFma, 256, 256, 256},
    {MicroKernelId::kFma, 1, 100, 1},
    {MicroKernelId::kFma, 130, 7, 65},
    {MicroKernelId::kAvx512, 64, 64, 64},
    {MicroKernelId::kAvx512, 129, 67, 55},
    {MicroKernelId::kAvx512, 256, 256, 256},
    {MicroKernelId::kAvx512, 1, 100, 1},
    {MicroKernelId::kAvx512, 130, 7, 65}};

INSTANTIATE_TEST_SUITE_P(Matrix, KernelVariantTest,
                         ::testing::ValuesIn(kKernelCases));

// All supported kernels produce the same logical trace counts — the
// cost model is kernel-shape independent by construction.
TEST(KernelVariants, TrafficAccountingIdenticalAcrossKernels) {
  const std::size_t n = 96;
  const BlockingParams bp{.mc = 32, .kc = 32, .nc = 64, .mr = 4, .nr = 4};
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (const auto& kern : kernel_registry()) {
    if (!kern.supported() || kern.mr != bp.mr || kern.nr != bp.nr) continue;
    trace::Recorder rec;
    {
      trace::RecordingScope scope(rec);
      GemmOptions opts;
      opts.blocking = bp;
      opts.kernel = kern.id;
      gemm(a.view(), b.view(), c.view(), opts);
    }
    EXPECT_EQ(static_cast<double>(rec.total().dram_bytes()),
              blocked_gemm_traffic_bytes(n, n, n, bp))
        << kern.name;
  }
}

// avx512 runs each C element's fma chain in the same order as fma and
// adds it to C once per kc block, so at the default blocking (equal kc)
// the two kernels must agree to the last bit, edge tiles included.
TEST(KernelVariants, Avx512MatchesFmaBitForBit) {
  const MicroKernel& wide = *find_kernel(MicroKernelId::kAvx512);
  const MicroKernel& fma = *find_kernel(MicroKernelId::kFma);
  if (!wide.supported() || !fma.supported()) {
    GTEST_SKIP() << "avx512 or fma not supported on this CPU";
  }
  ASSERT_EQ(default_blocking_for(wide).kc, default_blocking_for(fma).kc);
  struct Shape {
    std::size_t m, k, n;
  };
  constexpr Shape kShapes[] = {{64, 64, 64},    {129, 67, 55},
                               {256, 256, 256}, {1, 100, 1},
                               {130, 7, 65},    {768, 768, 768},
                               {1000, 517, 333}};
  for (const Shape& sh : kShapes) {
    Matrix a = random_matrix(sh.m, sh.k, 31);
    Matrix b = random_matrix(sh.k, sh.n, 32);
    Matrix via_fma(sh.m, sh.n), via_wide(sh.m, sh.n);
    GemmOptions opts;
    opts.kernel = fma.id;
    gemm(a.view(), b.view(), via_fma.view(), opts);
    opts.kernel = wide.id;
    gemm(a.view(), b.view(), via_wide.view(), opts);
    EXPECT_EQ(std::memcmp(via_fma.data(), via_wide.data(),
                          sh.m * sh.n * sizeof(double)),
              0)
        << sh.m << "x" << sh.k << "x" << sh.n;
  }
}

// FNV-1a over the bytes of a view's live window, row by row.
std::uint64_t fnv1a(linalg::ConstMatrixView v) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.rows(); ++i) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.row(i));
    for (std::size_t b = 0; b < v.cols() * sizeof(double); ++b) {
      h = (h ^ p[b]) * 1099511628211ull;
    }
  }
  return h;
}

// Operands for one pinned product. Strided cases take A, B and C as
// windows at odd offsets of larger matrices; C's surround holds 7.0,
// and so does the window when the product accumulates.
struct PinOperands {
  Matrix a_full, b_full, c_full;
  linalg::ConstMatrixView a, b;
  linalg::MatrixView c;

  PinOperands(std::size_t m, std::size_t k, std::size_t n, bool strided)
      : a_full(random_matrix(m + 3, k + 7, 41)),
        b_full(random_matrix(k + 4, n + 9, 42)),
        c_full(m + 6, n + 11, 7.0) {
    const std::size_t o = strided ? 1 : 0;
    a = a_full.view().block(2 * o, 5 * o, m, k);
    b = b_full.view().block(o, 3 * o, k, n);
    c = c_full.view().block(3 * o, 4 * o, m, n);
  }

  // Elements of C's parent outside the window that no longer hold 7.0.
  std::size_t surround_changed() const {
    const std::size_t r0 = static_cast<std::size_t>(c.data() - c_full.data()) /
                           c_full.cols();
    const std::size_t c0 = static_cast<std::size_t>(c.data() - c_full.data()) %
                           c_full.cols();
    std::size_t changed = 0;
    for (std::size_t i = 0; i < c_full.rows(); ++i) {
      for (std::size_t j = 0; j < c_full.cols(); ++j) {
        const bool inside = i >= r0 && i < r0 + c.rows() && j >= c0 &&
                            j < c0 + c.cols();
        if (!inside && c_full(i, j) != 7.0) ++changed;
      }
    }
    return changed;
  }
};

struct GemmPins {
  // blas::gemm at default options: 768^3, 129x67x55, 1000x517x333, then
  // 129x67x55 and 1000x517x333 on strided windows.
  std::uint64_t gemm[5];
  // small_gemm on strided 67x45x53 windows: C = A*B, then C += A*B.
  std::uint64_t small[2];
};

// generic and avx2 round each product before adding it, fma and avx512
// fuse the two; within each pair every element runs the same chain at
// equal kc, so the pair shares its pins.
constexpr GemmPins kMulThenAddPins = {
    {0x9e07f22f99b87043, 0xc5e2e595e2181ce3, 0xbdc0420e043bd21b,
     0x0431932e7aceeb97, 0xb3f8178d29ef6427},
    {0x391238aed12dad8b, 0xd39583b37b0fd1da}};
constexpr GemmPins kFusedPins = {
    {0xb5636474a60d2fdc, 0xf4b7941239fa76ba, 0x9b92fe0b2cb35a45,
     0x611c1a41a8436030, 0x2dc99136c538e4b6},
    {0x80776f7769145069, 0x6ff9f0c468c814c4}};

struct GemmPinCase {
  MicroKernelId id;
  const GemmPins* pins;
};

// Prints the kernel name, so a case's test name never carries the
// pins' address.
void PrintTo(const GemmPinCase& c, std::ostream* os) {
  *os << find_kernel(c.id)->name;
}

class GemmPinTest : public ::testing::TestWithParam<GemmPinCase> {};

// The exact output bits of every kernel, recorded from the version that
// zeroed all of C before the first kc panel. Initialising each tile
// where it is first written must reproduce them: every element is still
// 0.0 + (first panel's chain), then += each later panel's chain.
TEST_P(GemmPinTest, OutputBitsArePinned) {
  const GemmPinCase& pin = GetParam();
  const MicroKernel& kern = *find_kernel(pin.id);
  if (!kern.supported()) {
    GTEST_SKIP() << kern.name << " not supported on this CPU";
  }
  struct Shape {
    std::size_t m, k, n;
    bool strided;
  };
  constexpr Shape kShapes[] = {{768, 768, 768, false},
                               {129, 67, 55, false},
                               {1000, 517, 333, false},
                               {129, 67, 55, true},
                               {1000, 517, 333, true}};
  GemmOptions opts;
  opts.kernel = pin.id;
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    const Shape& sh = kShapes[s];
    PinOperands ops(sh.m, sh.k, sh.n, sh.strided);
    gemm(ops.a, ops.b, ops.c, opts);
    const std::uint64_t h = fnv1a(ops.c);
    EXPECT_EQ(h, pin.pins->gemm[s]) << kern.name << " " << sh.m << "x" << sh.k
                              << "x" << sh.n << (sh.strided ? " strided" : "")
                              << " got 0x" << std::hex << h;
    EXPECT_EQ(ops.surround_changed(), 0u);
  }

  WorkspaceArena arena;
  PinOperands ops(67, 45, 53, true);
  for (std::size_t s = 0; s < 2; ++s) {
    small_gemm(ops.a, ops.b, ops.c, kern, arena, /*accumulate=*/s == 1);
    const std::uint64_t h = fnv1a(ops.c);
    EXPECT_EQ(h, pin.pins->small[s]) << kern.name << " small_gemm"
                               << (s == 1 ? " accumulate" : "") << " got 0x"
                               << std::hex << h;
  }
  EXPECT_EQ(ops.surround_changed(), 0u);
}

constexpr GemmPinCase kGemmPins[] = {
    {MicroKernelId::kGeneric, &kMulThenAddPins},
    {MicroKernelId::kAvx2, &kMulThenAddPins},
    {MicroKernelId::kFma, &kFusedPins},
    {MicroKernelId::kAvx512, &kFusedPins}};

INSTANTIATE_TEST_SUITE_P(Kernels, GemmPinTest, ::testing::ValuesIn(kGemmPins),
                         [](const auto& param_info) {
                           return std::string(
                               find_kernel(param_info.param.id)->name);
                         });

// The BlockingParams that pin `kern` with small panels, so a modest
// product has several kc panels, several row blocks and edge tiles in
// both directions.
BlockingParams tiny_blocking(const MicroKernel& kern) {
  return {.mc = 3 * kern.mr, .kc = 16, .nc = 2 * kern.nr, .mr = kern.mr,
          .nr = kern.nr};
}

// No bit of C's old contents survives: a C pre-filled with NaN (which
// would poison any tile the first panel failed to initialise) or with
// -0.0 ends up memcmp-equal to one that started at +0.0.
TEST(GemmInitialisesC, StaleNanAndNegativeZeroAreOverwritten) {
  const double kFills[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                           1.0};
  struct Shape {
    std::size_t m, k, n;
    bool tiny;
  };
  constexpr Shape kShapes[] = {
      {67, 45, 53, true}, {67, 600, 53, false}, {1, 3, 1, true}};
  for (const MicroKernel& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    WorkspaceArena arena;
    for (const Shape& sh : kShapes) {
      Matrix a = random_matrix(sh.m, sh.k, 5), b = random_matrix(sh.k, sh.n, 6);
      GemmOptions opts;
      opts.kernel = kern.id;
      if (sh.tiny) opts.blocking = tiny_blocking(kern);
      Matrix clean(sh.m, sh.n, 0.0);
      gemm(a.view(), b.view(), clean.view(), opts);
      Matrix small_clean(sh.m, sh.n, 0.0);
      small_gemm(a.view(), b.view(), small_clean.view(), kern, arena);
      for (const double fill : kFills) {
        Matrix c(sh.m, sh.n, fill);
        gemm(a.view(), b.view(), c.view(), opts);
        EXPECT_EQ(std::memcmp(c.data(), clean.data(),
                              sh.m * sh.n * sizeof(double)),
                  0)
            << kern.name << " " << sh.m << "x" << sh.k << "x" << sh.n
            << " fill " << fill;
        Matrix s(sh.m, sh.n, fill);
        small_gemm(a.view(), b.view(), s.view(), kern, arena);
        EXPECT_EQ(std::memcmp(s.data(), small_clean.data(),
                              sh.m * sh.n * sizeof(double)),
                  0)
            << kern.name << " small_gemm " << sh.m << "x" << sh.k << "x"
            << sh.n << " fill " << fill;
      }
    }
  }
}

// Every element is 0.0 + (a chain of products), and 0.0 + -0.0 is +0.0:
// an all -0.0 A gives an all +0.0 C, whatever C held, and so does an
// empty inner dimension.
TEST(GemmInitialisesC, SignedZeroProductIsPositiveZero) {
  const double pos_zero = 0.0;
  for (const MicroKernel& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    WorkspaceArena arena;
    for (const std::size_t k : {std::size_t{0}, std::size_t{45}}) {
      Matrix a(67, k, -0.0);
      Matrix b = random_matrix(k, 53, 6);
      for (const bool tiny : {false, true}) {
        GemmOptions opts;
        opts.kernel = kern.id;
        if (tiny) opts.blocking = tiny_blocking(kern);
        Matrix c(67, 53, std::numeric_limits<double>::quiet_NaN());
        gemm(a.view(), b.view(), c.view(), opts);
        Matrix s(67, 53, -0.0);
        small_gemm(a.view(), b.view(), s.view(), kern, arena);
        std::size_t not_pos_zero = 0;
        for (std::size_t i = 0; i < 67 * 53; ++i) {
          not_pos_zero += std::memcmp(&c.data()[i], &pos_zero, 8) != 0;
          not_pos_zero += std::memcmp(&s.data()[i], &pos_zero, 8) != 0;
        }
        EXPECT_EQ(not_pos_zero, 0u) << kern.name << " k=" << k
                                    << (tiny ? " tiny blocking" : "");
      }
    }
  }
}

// The model blocks for the modelled machine's cores, not the host's:
// a simulated Haswell (16 flops/cycle) gets the 6x8 fma tile even when
// the host would run the 12x16 avx512 one.
TEST(ModelKernel, CappedAtTheModelledCoreRate) {
  const MicroKernel& host = select_kernel();
  const machine::MachineSpec haswell = machine::haswell_e3_1225();
  const MicroKernel& modelled = model_kernel(haswell);
  EXPECT_TRUE(modelled.supported());
  EXPECT_LE(modelled.flops_per_cycle, haswell.core.flops_per_cycle);
  if (host.flops_per_cycle <= haswell.core.flops_per_cycle) {
    EXPECT_EQ(modelled.id, host.id);  // the host choice already fits
  } else if (find_kernel(MicroKernelId::kFma)->supported()) {
    EXPECT_EQ(modelled.id, MicroKernelId::kFma);
  }
  // 4 flops/cycle admits only the scalar kernel.
  EXPECT_EQ(model_kernel(machine::compact_dual_core()).id,
            MicroKernelId::kGeneric);

  // blas::gemm given the machine blocks exactly like the model does.
  GemmOptions opts;
  opts.machine = haswell;
  EXPECT_EQ(resolve_kernel(opts).id, modelled.id);
  const BlockingParams bp = select_blocking(haswell, modelled);
  const BlockingParams got = resolve_blocking(opts);
  EXPECT_EQ(got.mc, bp.mc);
  EXPECT_EQ(got.kc, bp.kc);
  EXPECT_EQ(got.nc, bp.nc);
  EXPECT_EQ(got.mr, bp.mr);
  EXPECT_EQ(got.nr, bp.nr);
}

TEST(ModelKernel, HaswellProfileUsesTheFmaBlocking) {
  const MicroKernel& fma = *find_kernel(MicroKernelId::kFma);
  if (!fma.supported() || select_kernel().flops_per_cycle < 16.0) {
    GTEST_SKIP() << "fma not the modelled Haswell kernel on this host";
  }
  const machine::MachineSpec haswell = machine::haswell_e3_1225();
  ASSERT_EQ(model_kernel(haswell).id, MicroKernelId::kFma);
  const BlockingParams bp = select_blocking(haswell, fma);
  for (const std::size_t n : {256u, 1000u, 2048u}) {
    for (const unsigned threads : {1u, 4u}) {
      const sim::WorkProfile wp = blocked_gemm_profile(n, haswell, threads);
      ASSERT_EQ(wp.phases.size(), 1u);
      const sim::PhaseCost& ph = wp.phases[0];
      // Every blocked-traffic byte lands in DRAM or cache.
      EXPECT_DOUBLE_EQ(ph.dram_bytes + ph.cache_bytes,
                       blocked_gemm_traffic_bytes(n, n, n, bp))
          << n << " t=" << threads;
      EXPECT_EQ(ph.sync_events,
                threads > 1 ? blocked_gemm_sync_count(n, n, bp) : 0u)
          << n << " t=" << threads;
    }
  }
}

TEST(Workspace, CheckoutRoundTripAndStats) {
  WorkspaceArena arena;
  {
    WorkspaceCheckout lease = arena.acquire(100);
    ASSERT_TRUE(lease.valid());
    EXPECT_GE(lease.capacity(), 100u);
    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.acquires, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_GT(s.outstanding_bytes, 0u);
  }
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.outstanding_bytes, 0u);
  EXPECT_GT(s.pooled_bytes, 0u);
}

TEST(Workspace, RepeatAcquireIsAHit) {
  WorkspaceArena arena;
  arena.acquire(1000);  // released immediately
  WorkspaceCheckout again = arena.acquire(1000);
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(Workspace, SizeClassesShareBuffers) {
  // 4 KiB classes: 100 and 500 doubles both round to 4096 bytes, so the
  // second acquire reuses the first buffer despite the different count.
  WorkspaceArena arena;
  arena.acquire(100);
  arena.acquire(500);
  const ArenaStats s = arena.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.allocated_bytes, 4096u);
}

// On a miss no idle buffer is large enough, so a miss while nothing is
// leased frees them all: after a small lease and a larger miss only the
// large buffer stays pooled, and it serves the small size again by best
// fit.
TEST(Workspace, MissFreesIdleBuffersTooSmallForIt) {
  WorkspaceArena arena;
  arena.acquire(5000);  // released immediately: one idle 40 KB buffer
  WorkspaceCheckout held = arena.acquire(90000);
  ASSERT_TRUE(held.valid());
  EXPECT_EQ(arena.stats().misses, 2u);
  EXPECT_EQ(arena.stats().pooled_bytes, 0u);
  held.release();
  EXPECT_EQ(arena.stats().pooled_bytes, 176 * kArenaClassBytes);  // 720000 B
  arena.acquire(5000);
  EXPECT_EQ(arena.stats().hits, 1u);
  EXPECT_EQ(arena.stats().misses, 2u);
}

// A miss while another lease is out frees nothing: on a pool that lease
// is a sibling task's, whose next lease may be the idle buffer's size.
TEST(Workspace, MissWhileLeasedKeepsIdleBuffers) {
  WorkspaceArena arena;
  const WorkspaceCheckout held = arena.acquire(1000);
  arena.acquire(5000);  // released immediately: one idle 40 KB buffer
  const WorkspaceCheckout big = arena.acquire(90000);
  EXPECT_EQ(arena.stats().misses, 3u);
  EXPECT_EQ(arena.stats().pooled_bytes, 10 * kArenaClassBytes);
}

TEST(Workspace, TrimDropsIdleBuffers) {
  WorkspaceArena arena;
  arena.acquire(5000);
  EXPECT_GT(arena.stats().pooled_bytes, 0u);
  arena.trim();
  EXPECT_EQ(arena.stats().pooled_bytes, 0u);
  // Next acquire allocates fresh again.
  arena.acquire(5000);
  EXPECT_EQ(arena.stats().misses, 2u);
}

TEST(Workspace, TrimLeavesOutstandingCheckoutsUntouched) {
  WorkspaceArena arena;
  arena.acquire(5000);  // released immediately: one idle pooled buffer
  WorkspaceCheckout held = arena.acquire(9000);
  ASSERT_TRUE(held.valid());
  held.data()[0] = 42.0;
  held.data()[held.capacity() - 1] = 7.0;

  arena.trim();  // frees only the idle buffer
  EXPECT_EQ(arena.stats().pooled_bytes, 0u);
  EXPECT_GT(arena.stats().outstanding_bytes, 0u);
  EXPECT_TRUE(held.valid());
  EXPECT_EQ(held.data()[0], 42.0);
  EXPECT_EQ(held.data()[held.capacity() - 1], 7.0);

  // Releasing after the trim returns the buffer to the pool intact.
  held.release();
  EXPECT_EQ(arena.stats().outstanding_bytes, 0u);
  EXPECT_GT(arena.stats().pooled_bytes, 0u);
  WorkspaceCheckout again = arena.acquire(9000);
  EXPECT_EQ(arena.stats().hits, 1u);
}

// Concurrent checkouts across two pools stay consistent, and a warmed
// pool serves the steady state without a single fresh allocation.
TEST(Workspace, ConcurrentCheckoutsAcrossTwoArenas) {
  WorkspaceArena first;
  WorkspaceArena second;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 200;
  const std::size_t sizes[] = {512, 4096, 16384};

  // Warm both pools with every size class each worker will request.
  std::vector<WorkspaceCheckout> warm;
  for (std::size_t s : sizes) {
    for (std::size_t i = 0; i < kThreads; ++i) {
      warm.push_back(first.acquire(s));
      warm.push_back(second.acquire(s));
    }
  }
  warm.clear();
  first.reset_stats();
  second.reset_stats();

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t s = sizes[(w + i) % 3];
        WorkspaceCheckout a = first.acquire(s);
        WorkspaceCheckout b = second.acquire(s);
        a.data()[0] = static_cast<double>(w);
        b.data()[s - 1] = static_cast<double>(i);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  const ArenaStats fs = first.stats();
  const ArenaStats ss = second.stats();
  EXPECT_EQ(fs.acquires, kThreads * kIters);
  EXPECT_EQ(ss.acquires, kThreads * kIters);
  // Zero warm-path allocations: every steady-state checkout was a hit.
  EXPECT_EQ(fs.misses, 0u);
  EXPECT_EQ(ss.misses, 0u);
  EXPECT_EQ(fs.outstanding_bytes, 0u);
  EXPECT_EQ(ss.outstanding_bytes, 0u);
}

TEST(Workspace, ArenaMatrixShapesAndAliasing) {
  WorkspaceArena arena;
  ArenaMatrix m(arena, 3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  m(2, 4) = 7.5;
  EXPECT_EQ(m.view()(2, 4), 7.5);

  auto batch = make_arena_matrices<7>(arena, 4, 4);
  for (auto& q : batch) q(0, 0) = 1.0;
  // Distinct leases: writing one does not alias another.
  batch[0](0, 0) = 42.0;
  EXPECT_EQ(batch[1](0, 0), 1.0);
}

// The headline property: after one warm-up call, repeat GEMMs never
// allocate — every packing-buffer checkout is a pool hit.
TEST(Workspace, GemmWarmRerunsHitEveryTime) {
  WorkspaceArena arena;
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  GemmOptions opts;
  opts.arena = &arena;
  gemm(a.view(), b.view(), c.view(), opts);  // warm-up
  const ArenaStats cold = arena.stats();
  for (int i = 0; i < 3; ++i) gemm(a.view(), b.view(), c.view(), opts);
  const ArenaStats warm = arena.stats();
  EXPECT_EQ(warm.misses, cold.misses) << "warm rerun allocated";
  EXPECT_GT(warm.acquires, cold.acquires);
  EXPECT_EQ(warm.hits - cold.hits, warm.acquires - cold.acquires);
  EXPECT_EQ(warm.allocated_bytes, cold.allocated_bytes);
}

// ABFT's checksum snapshots and verification scratch lease from the
// same arena as the packing buffers, so a warm guarded rerun — guard
// construction, gemm, verify — allocates nothing either.
TEST(Workspace, AbftGuardedGemmAllocatesNothingWhenWarm) {
  WorkspaceArena arena;
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 7), b = random_matrix(n, n, 8);
  Matrix c(n, n);
  GemmOptions opts;
  opts.arena = &arena;
  abft::AbftConfig cfg;
  cfg.mode = abft::AbftMode::kDetect;
  abft::guarded_gemm(a.view(), b.view(), c.view(), opts, cfg);  // warm-up
  const ArenaStats cold = arena.stats();
  for (int i = 0; i < 3; ++i) {
    abft::guarded_gemm(a.view(), b.view(), c.view(), opts, cfg);
  }
  const ArenaStats warm = arena.stats();
  EXPECT_EQ(warm.misses, cold.misses) << "warm ABFT rerun allocated";
  EXPECT_EQ(warm.allocated_bytes, cold.allocated_bytes);
  EXPECT_GT(warm.acquires, cold.acquires);
  EXPECT_EQ(warm.hits - cold.hits, warm.acquires - cold.acquires);
}

// At cutoff 32, n = 160 = 20 * 2^3 halves evenly; n = 161 recurses on
// its leading 160 block and folds in a one-wide border.
TEST(Workspace, StrassenRecursionAllocatesNothingWhenWarm) {
  for (const std::size_t n : {160u, 161u}) {
    WorkspaceArena arena;
    Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
    Matrix c(n, n);
    strassen::StrassenOptions opts;
    opts.base_cutoff = 32;
    opts.arena = &arena;
    strassen::multiply(a.view(), b.view(), c.view(), opts);  // warm-up
    const ArenaStats cold = arena.stats();
    strassen::multiply(a.view(), b.view(), c.view(), opts);
    const ArenaStats warm = arena.stats();
    EXPECT_EQ(warm.misses, cold.misses)
        << "strassen recursion allocated on the warm rerun, n=" << n;
    EXPECT_EQ(warm.allocated_bytes, cold.allocated_bytes) << "n=" << n;
  }
}

// Strassen at 520, 769 and 1024 in ascending order on one arena: each
// larger shape's first lease misses while nothing is leased and frees
// the smaller shapes' idle buffers, so the pool ends no larger than the
// 1024 call's own working set, and a second pass over the three shapes
// allocates nothing. The border leases nothing, so a packed base kernel
// (CAPOW_KERNEL) keeps this too.
TEST(Workspace, AscendingStrassenShapesPoolOnlyTheLargestWorkingSet) {
  const auto run = [](WorkspaceArena& arena, std::size_t n) {
    const Matrix a = random_matrix(n, n, 11), b = random_matrix(n, n, 12);
    Matrix c(n, n);
    strassen::StrassenOptions opts;
    opts.arena = &arena;
    opts.abft.mode = abft::AbftMode::kOff;
    strassen::multiply(a.view(), b.view(), c.view(), opts);
  };
  WorkspaceArena fresh;
  run(fresh, 1024);
  const std::uint64_t largest = fresh.stats().peak_outstanding_bytes;

  WorkspaceArena arena;
  for (const std::size_t n : {520u, 769u, 1024u}) run(arena, n);
  EXPECT_LE(arena.stats().pooled_bytes, largest);

  arena.reset_stats();
  for (const std::size_t n : {520u, 769u, 1024u}) run(arena, n);
  EXPECT_EQ(arena.stats().misses, 0u);
  EXPECT_LE(arena.stats().pooled_bytes, largest);
}

TEST(Workspace, CapsTraversalAllocatesNothingWhenWarm) {
  WorkspaceArena arena;
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 5), b = random_matrix(n, n, 6);
  Matrix c(n, n);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 16;
  opts.bfs_cutoff_depth = 2;
  opts.arena = &arena;
  capsalg::multiply(a.view(), b.view(), c.view(), opts);  // warm-up
  const ArenaStats cold = arena.stats();
  capsalg::multiply(a.view(), b.view(), c.view(), opts);
  const ArenaStats warm = arena.stats();
  EXPECT_EQ(warm.misses, cold.misses)
      << "CAPS traversal allocated on the warm rerun";
  EXPECT_EQ(warm.allocated_bytes, cold.allocated_bytes);
}

// A null arena in an entry point's options means the process arena: a
// serial call leases from it as many times as it would from a private
// arena, and returns every lease; a private arena in the same options
// leaves the process arena untouched.
void expect_null_arena_is_the_process_arena(
    const std::function<void(WorkspaceArena*)>& run) {
  WorkspaceArena& process = WorkspaceArena::process_arena();
  const ArenaStats before = process.stats();
  run(nullptr);
  const ArenaStats after = process.stats();
  EXPECT_GT(after.acquires, before.acquires);
  EXPECT_EQ(after.outstanding_bytes, 0u);

  WorkspaceArena own;
  run(&own);
  EXPECT_EQ(own.stats().acquires, after.acquires - before.acquires);
  EXPECT_EQ(own.stats().outstanding_bytes, 0u);
  EXPECT_EQ(process.stats().acquires, after.acquires);
}

TEST(Workspace, NullArenaGemmLeasesFromTheProcessArena) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 21), b = random_matrix(n, n, 22);
  Matrix c(n, n);
  expect_null_arena_is_the_process_arena([&](WorkspaceArena* arena) {
    GemmOptions opts;
    opts.arena = arena;
    gemm(a.view(), b.view(), c.view(), opts);
  });
}

TEST(Workspace, NullArenaGuardedGemmLeasesFromTheProcessArena) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 23), b = random_matrix(n, n, 24);
  Matrix c(n, n);
  expect_null_arena_is_the_process_arena([&](WorkspaceArena* arena) {
    GemmOptions opts;
    opts.arena = arena;
    abft::guarded_gemm(a.view(), b.view(), c.view(), opts,
                       {.mode = abft::AbftMode::kDetect});
  });
}

TEST(Workspace, NullArenaStrassenLeasesFromTheProcessArena) {
  const std::size_t n = 161;
  const Matrix a = random_matrix(n, n, 25), b = random_matrix(n, n, 26);
  Matrix c(n, n);
  expect_null_arena_is_the_process_arena([&](WorkspaceArena* arena) {
    strassen::StrassenOptions opts;
    opts.base_cutoff = 32;
    opts.arena = arena;
    strassen::multiply(a.view(), b.view(), c.view(), opts);
  });
}

TEST(Workspace, NullArenaCapsLeasesFromTheProcessArena) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 27), b = random_matrix(n, n, 28);
  Matrix c(n, n);
  expect_null_arena_is_the_process_arena([&](WorkspaceArena* arena) {
    capsalg::CapsOptions opts;
    opts.base_cutoff = 16;
    opts.bfs_cutoff_depth = 2;
    opts.arena = arena;
    capsalg::multiply(a.view(), b.view(), c.view(), opts);
  });
}

// On a pool, sibling products lease in the order they are scheduled,
// which changes from run to run, so a warm rerun can still meet a
// moment that needs one more buffer of some size than any run before
// it (the never-freeing arena did too). Such a miss frees nothing, as a
// lease is out: across reruns of one shape the pool never shrinks, so
// it covers more schedules each time, and soon a rerun allocates
// nothing. Had a miss emptied the pool, each one would set off more.
TEST(Workspace, PooledRecursionsStopMissingWhenWarm) {
  tasking::ThreadPool pool(4);
  for (const bool caps : {false, true}) {
    for (const std::size_t n : {161u, 769u}) {
      WorkspaceArena arena;
      const Matrix a = random_matrix(n, n, 13), b = random_matrix(n, n, 14);
      Matrix c(n, n);
      const auto run = [&] {
        if (caps) {
          capsalg::CapsOptions opts;
          opts.arena = &arena;
          opts.abft.mode = abft::AbftMode::kOff;
          capsalg::multiply(a.view(), b.view(), c.view(), opts, &pool);
        } else {
          strassen::StrassenOptions opts;
          opts.arena = &arena;
          opts.abft.mode = abft::AbftMode::kOff;
          strassen::multiply(a.view(), b.view(), c.view(), opts, &pool);
        }
      };
      const std::string what = std::string(caps ? "caps" : "strassen") +
                               " n=" + std::to_string(n);
      run();
      bool settled = false;
      for (int rerun = 0; rerun < 8 && !settled; ++rerun) {
        const ArenaStats before = arena.stats();
        run();
        const ArenaStats after = arena.stats();
        EXPECT_GE(after.pooled_bytes, before.pooled_bytes) << what;
        settled = after.misses == before.misses;
      }
      EXPECT_TRUE(settled) << what << ": eight warm reruns all allocated";
    }
  }
}

TEST(SmallGemm, MatchesReferenceAndCountsExactly) {
  WorkspaceArena arena;
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 9), b = random_matrix(n, n, 10);
  Matrix expect(n, n), got(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  trace::Recorder rec;
  {
    trace::RecordingScope scope(rec);
    small_gemm(a.view(), b.view(), got.view(), select_kernel(), arena);
  }
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12, 1e-12));
  // Same convention as strassen::base_gemm, so swapping it into the
  // base case is cost-model neutral.
  EXPECT_EQ(rec.total().flops, 2u * n * n * n);
  EXPECT_EQ(rec.total().dram_read_bytes, 2u * n * n * 8);
  EXPECT_EQ(rec.total().dram_write_bytes, n * n * 8);
}

TEST(SmallGemm, AccumulateVariant) {
  WorkspaceArena arena;
  Matrix a = random_matrix(16, 16, 1), b = random_matrix(16, 16, 2);
  Matrix c(16, 16, 0.0), expect(16, 16, 0.0);
  gemm_reference_accumulate(a.view(), b.view(), expect.view());
  gemm_reference_accumulate(a.view(), b.view(), expect.view());
  const MicroKernel& kern = select_kernel();
  small_gemm(a.view(), b.view(), c.view(), kern, arena, true);
  small_gemm(a.view(), b.view(), c.view(), kern, arena, true);
  EXPECT_TRUE(allclose(c.view(), expect.view(), 1e-12, 1e-12));
}

// Strassen with a packed base kernel still matches the reference.
TEST(StrassenBaseKernel, PackedBaseCaseMatchesReference) {
  const std::size_t n = 160;
  Matrix a = random_matrix(n, n, 21), b = random_matrix(n, n, 22);
  Matrix expect(n, n), got(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  strassen::StrassenOptions opts;
  opts.base_cutoff = 32;
  opts.base_kernel = select_kernel().id;
  strassen::multiply(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-9, 1e-9));
}

TEST(CapsBaseKernel, PackedBaseCaseMatchesReference) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 23), b = random_matrix(n, n, 24);
  Matrix expect(n, n), got(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  capsalg::CapsOptions opts;
  opts.base_cutoff = 16;
  opts.bfs_cutoff_depth = 2;
  opts.base_kernel = select_kernel().id;
  capsalg::multiply(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-9, 1e-9));
}

}  // namespace
}  // namespace capow::blas
