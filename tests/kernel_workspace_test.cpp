// Tests for the microkernel registry (runtime SIMD dispatch) and the
// pooled packing workspace arena behind the matmul hot paths.
#include <cstring>
#include <limits>

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

TEST(Workspace, StrassenRecursionAllocatesNothingWhenWarm) {
  WorkspaceArena arena;
  const std::size_t n = 160;  // padded: exercises the pad path too
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
      << "strassen recursion allocated on the warm rerun";
  EXPECT_EQ(warm.allocated_bytes, cold.allocated_bytes);
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
