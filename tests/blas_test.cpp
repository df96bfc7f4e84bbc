// Tests for the blocked DGEMM and its cost model.
#include <string>

#include <gtest/gtest.h>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/blocking.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/trace/counters.hpp"

namespace capow::blas {
namespace {

using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

TEST(GemmRef, TinyHandComputed) {
  Matrix a(2, 2), b(2, 2), c(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  gemm_reference(a.view(), b.view(), c.view());
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(GemmRef, IdentityIsNeutral) {
  Matrix a = random_matrix(9, 9, 3);
  Matrix id = Matrix::identity(9);
  Matrix c(9, 9);
  gemm_reference(a.view(), id.view(), c.view());
  EXPECT_TRUE(allclose(c.view(), a.view(), 0.0, 0.0));
}

TEST(GemmRef, AccumulateAddsOntoC) {
  Matrix a = random_matrix(4, 4, 1);
  Matrix b = random_matrix(4, 4, 2);
  Matrix c(4, 4, 1.0);
  Matrix expect(4, 4);
  gemm_reference(a.view(), b.view(), expect.view());
  linalg::MatrixView ev = expect.view();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) ev(i, j) += 1.0;
  }
  gemm_reference_accumulate(a.view(), b.view(), c.view());
  EXPECT_TRUE(allclose(c.view(), expect.view(), 1e-14, 1e-14));
}

TEST(GemmRef, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(gemm_reference(a.view(), b.view(), c.view()),
               std::invalid_argument);
}

TEST(Blocking, HaswellSelection) {
  const BlockingParams bp = select_blocking(
      machine::haswell_e3_1225(), *find_kernel(MicroKernelId::kGeneric));
  // mr x kc + kc x nr stripes fit half of L1.
  EXPECT_LE(bp.kc * (bp.mr + bp.nr) * 8, 32u * 1024 / 2);
  // Packed A fits half of L2.
  EXPECT_LE(bp.mc * bp.kc * 8, 256u * 1024 / 2);
  // Packed B fits half of the LLC.
  EXPECT_LE(bp.kc * bp.nc * 8, 8u * 1024 * 1024 / 2);
  EXPECT_EQ(bp.mc % bp.mr, 0u);
  EXPECT_EQ(bp.nc % bp.nr, 0u);
}

TEST(Blocking, CachelessMachineFallsBack) {
  machine::MachineSpec m = machine::haswell_e3_1225();
  m.caches.clear();
  const BlockingParams bp =
      select_blocking(m, *find_kernel(MicroKernelId::kGeneric));
  const BlockingParams def = default_blocking();
  EXPECT_EQ(bp.mc, def.mc);
  EXPECT_EQ(bp.kc, def.kc);
}

class BlockedGemmSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedGemmSizeTest, MatchesReference) {
  const std::size_t n = GetParam();
  Matrix a = random_matrix(n, n, n * 3 + 1);
  Matrix b = random_matrix(n, n, n * 3 + 2);
  Matrix expect(n, n), got(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  gemm(a.view(), b.view(), got.view());
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12, 1e-12))
      << "n=" << n
      << " maxdiff=" << linalg::max_abs_diff(got.view(), expect.view());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockedGemmSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 31, 33,
                                           64, 65, 100, 128, 129, 200, 256));

TEST(BlockedGemm, RectangularShapes) {
  for (auto [m, k, n] : {std::tuple<int, int, int>{5, 9, 3},
                         {64, 32, 48},
                         {1, 100, 1},
                         {130, 7, 65}}) {
    Matrix a = random_matrix(m, k, 11);
    Matrix b = random_matrix(k, n, 12);
    Matrix expect(m, n), got(m, n);
    gemm_reference(a.view(), b.view(), expect.view());
    gemm(a.view(), b.view(), got.view());
    EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12, 1e-12))
        << m << "x" << k << "x" << n;
  }
}

TEST(BlockedGemm, TinyBlockingExercisesAllEdges) {
  // Force many partial blocks.
  BlockingParams bp{.mc = 8, .kc = 8, .nc = 8, .mr = 4, .nr = 4};
  Matrix a = random_matrix(37, 29, 5);
  Matrix b = random_matrix(29, 23, 6);
  Matrix expect(37, 23), got(37, 23);
  gemm_reference(a.view(), b.view(), expect.view());
  GemmOptions opts;
  opts.blocking = bp;
  gemm(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12, 1e-12));
}

TEST(BlockedGemm, ParallelMatchesSerialBitwise) {
  const std::size_t n = 160;
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix serial(n, n), parallel(n, n);
  gemm(a.view(), b.view(), serial.view());
  tasking::ThreadPool pool(3);
  GemmOptions serial_opts;
  serial_opts.blocking = BlockingParams{.mc = 32, .kc = 64, .nc = 64,
                                        .mr = 4, .nr = 4};
  GemmOptions parallel_opts = serial_opts;
  parallel_opts.pool = &pool;
  gemm(a.view(), b.view(), serial.view(), serial_opts);
  gemm(a.view(), b.view(), parallel.view(), parallel_opts);
  // Identical block decomposition => identical floating point results.
  EXPECT_TRUE(allclose(parallel.view(), serial.view(), 0.0, 0.0));
}

TEST(BlockedGemm, RejectsUnsupportedMicrokernel) {
  GemmOptions opts;
  opts.blocking = BlockingParams{.mc = 8, .kc = 8, .nc = 8, .mr = 8, .nr = 8};
  Matrix a(8, 8), b(8, 8), c(8, 8);
  EXPECT_THROW(gemm(a.view(), b.view(), c.view(), opts),
               std::invalid_argument);
}

// A blocking tile pins the registered kernel with that (mr, nr).
TEST(BlockedGemm, ExplicitKernelSelection) {
  const std::size_t n = 80;
  Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  Matrix expect(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  for (const auto& kern : kernel_registry()) {
    if (!kern.supported()) continue;
    Matrix got(n, n);
    GemmOptions opts;
    opts.blocking = default_blocking_for(kern);
    EXPECT_EQ(&resolve_kernel(opts), &kern);
    gemm(a.view(), b.view(), got.view(), opts);
    EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-11, 1e-11))
        << kern.name;
  }
}

// A tile no kernel registers fails up front, listing the valid ones.
TEST(BlockedGemm, UnknownBlockingTileRejectedWithListing) {
  GemmOptions opts;
  opts.blocking = BlockingParams{};
  opts.blocking->mr = 5;
  opts.blocking->nr = 3;
  try {
    Matrix a(8, 8), b(8, 8), c(8, 8);
    gemm(a.view(), b.view(), c.view(), opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5x3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("generic=4x4"), std::string::npos) << msg;
  }
}

TEST(BlockedGemm, ConsistentPinnedTileAccepted) {
  const MicroKernel* generic = find_kernel(MicroKernelId::kGeneric);
  ASSERT_NE(generic, nullptr);
  GemmOptions opts;
  opts.blocking = default_blocking_for(*generic);
  EXPECT_EQ(&resolve_kernel(opts), generic);

  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 9), b = random_matrix(n, n, 10);
  Matrix expect(n, n), got(n, n);
  gemm_reference(a.view(), b.view(), expect.view());
  gemm(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-11, 1e-11));
}

TEST(BlasCostModel, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

class GemmTrafficTest : public ::testing::TestWithParam<std::size_t> {};

// The heart of the validation story: instrumented logical traffic and
// flops from a real run match the closed-form model exactly.
TEST_P(GemmTrafficTest, InstrumentedCountsMatchModelExactly) {
  const std::size_t n = GetParam();
  const BlockingParams bp{.mc = 32, .kc = 32, .nc = 64, .mr = 4, .nr = 4};
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);

  trace::Recorder rec;
  {
    trace::RecordingScope scope(rec);
    GemmOptions opts;
    opts.blocking = bp;
    gemm(a.view(), b.view(), c.view(), opts);
  }
  const auto total = rec.total();
  EXPECT_EQ(static_cast<double>(total.flops), gemm_flops(n, n, n));
  EXPECT_EQ(static_cast<double>(total.dram_bytes()),
            blocked_gemm_traffic_bytes(n, n, n, bp));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmTrafficTest,
                         ::testing::Values(16, 32, 48, 64, 96, 100, 130));

TEST(BlasCostModel, SyncCount) {
  const BlockingParams bp{.mc = 32, .kc = 32, .nc = 64, .mr = 4, .nr = 4};
  EXPECT_EQ(blocked_gemm_sync_count(128, 128, bp), 2u * 4u);
}

TEST(BlasCostModel, ProfileSmallProblemIsCacheResident) {
  const auto m = machine::haswell_e3_1225();
  const auto wp = blocked_gemm_profile(512, m, 4);
  ASSERT_EQ(wp.phases.size(), 1u);
  // 3 * 512^2 * 8 = 6.3 MB fits the 8 MB LLC: only compulsory DRAM.
  EXPECT_DOUBLE_EQ(wp.phases[0].dram_bytes, 4.0 * 512 * 512 * 8);
  EXPECT_GT(wp.phases[0].cache_bytes, 0.0);
}

TEST(BlasCostModel, ProfileLargeProblemStreamsFromDram) {
  const auto m = machine::haswell_e3_1225();
  const auto wp = blocked_gemm_profile(2048, m, 4);
  EXPECT_GT(wp.phases[0].dram_bytes, 3.0 * 2048 * 2048 * 8);
  EXPECT_DOUBLE_EQ(wp.phases[0].cache_bytes, 0.0);
}

TEST(BlasCostModel, ProfileFlopsAlwaysCubic) {
  const auto m = machine::haswell_e3_1225();
  for (std::size_t n : {256u, 512u, 1024u}) {
    EXPECT_DOUBLE_EQ(blocked_gemm_profile(n, m, 2).total_flops(),
                     gemm_flops(n, n, n));
  }
}

TEST(BlasCostModel, SerialProfileHasNoSyncs) {
  const auto m = machine::haswell_e3_1225();
  const auto wp = blocked_gemm_profile(1024, m, 1);
  EXPECT_EQ(wp.phases[0].sync_events, 0u);
  EXPECT_EQ(wp.phases[0].parallelism, 1u);
}

}  // namespace
}  // namespace capow::blas
