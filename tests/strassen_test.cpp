// Tests for the Strassen family: numerical correctness against the
// reference multiplier, parallel determinism, instrumentation, padding,
// and stability behaviour.
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capow/blas/gemm_ref.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/trace/counters.hpp"
#include "footprint.hpp"

namespace capow::strassen {
namespace {

using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

TEST(BaseKernel, MatchesReference) {
  for (std::size_t n : {1u, 2u, 7u, 16u, 33u, 64u}) {
    Matrix a = random_matrix(n, n, n);
    Matrix b = random_matrix(n, n, n + 1);
    Matrix expect(n, n), got(n, n);
    blas::gemm_reference(a.view(), b.view(), expect.view());
    base_gemm(a.view(), b.view(), got.view());
    EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12, 1e-12))
        << "n=" << n;
  }
}

TEST(BaseKernel, AccumulateVariant) {
  Matrix a = random_matrix(8, 8, 1);
  Matrix b = random_matrix(8, 8, 2);
  Matrix c(8, 8, 0.0), expect(8, 8, 0.0);
  blas::gemm_reference_accumulate(a.view(), b.view(), expect.view());
  blas::gemm_reference_accumulate(a.view(), b.view(), expect.view());
  base_gemm_accumulate(a.view(), b.view(), c.view());
  base_gemm_accumulate(a.view(), b.view(), c.view());
  EXPECT_TRUE(allclose(c.view(), expect.view(), 1e-13, 1e-13));
}

TEST(BaseKernel, InstrumentationConvention) {
  trace::Recorder rec;
  Matrix a = random_matrix(16, 16, 1), b = random_matrix(16, 16, 2);
  Matrix c(16, 16);
  {
    trace::RecordingScope scope(rec);
    base_gemm(a.view(), b.view(), c.view());
  }
  EXPECT_EQ(rec.total().flops, 2u * 16 * 16 * 16);
  EXPECT_EQ(rec.total().dram_read_bytes, 2u * 16 * 16 * 8);
  EXPECT_EQ(rec.total().dram_write_bytes, 16u * 16 * 8);
}

// The BOTS loop exactly as a build with no ISA flags compiles it: the
// reference every ISA clone of base_gemm must reproduce bit for bit.
void bots_reference(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                    linalg::MatrixView c, bool accumulate) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* ci = c.row(i);
    if (!accumulate) {
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] = 0.0;
    }
    const double* ai = a.row(i);
    std::size_t p = 0;
    for (; p + 1 < a.cols(); p += 2) {
      const double* b0 = b.row(p);
      const double* b1 = b.row(p + 1);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        ci[j] += ai[p] * b0[j] + ai[p + 1] * b1[j];
      }
    }
    if (p < a.cols()) {
      const double* b0 = b.row(p);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += ai[p] * b0[j];
    }
  }
}

bool same_bits(linalg::ConstMatrixView x, linalg::ConstMatrixView y) {
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.row(i), y.row(i), x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void run_bots(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
              linalg::MatrixView c, bool accumulate) {
  accumulate ? base_gemm_accumulate(a, b, c) : base_gemm(a, b, c);
}

TEST(BotsKernel, MatchesBaselineLoopBitForBit) {
  struct Shape {
    std::size_t m, k, n;
  };
  // fast_recursion's base sizes, padded (33, 41, 49) and peeled (40,
  // 48), with 56 and 64 common to both; widths whose last columns take
  // the narrower-vector tail (36, 63, 15, 62); the border products'
  // shapes (a k = 8 update of a leading block, one column, one row); a
  // degenerate row/column and a ragged shape with an odd k.
  const std::vector<Shape> shapes = {
      {33, 33, 33}, {40, 40, 40}, {41, 41, 41}, {48, 48, 48},
      {49, 49, 49}, {56, 56, 56}, {63, 63, 63}, {64, 64, 64},
      {36, 36, 36}, {96, 8, 96},  {97, 97, 1},  {1, 97, 96},
      {1, 100, 1},  {130, 7, 65}, {70, 70, 15}, {15, 70, 62}};
  for (const Shape& s : shapes) {
    const Matrix a = random_matrix(s.m, s.k, s.m + s.k);
    const Matrix b = random_matrix(s.k, s.n, s.k + s.n);
    const Matrix c0 = random_matrix(s.m, s.n, s.m + s.n + 1);
    for (bool accumulate : {false, true}) {
      Matrix got = c0, want = c0;
      run_bots(a.view(), b.view(), got.view(), accumulate);
      bots_reference(a.view(), b.view(), want.view(), accumulate);
      EXPECT_TRUE(same_bits(got.view(), want.view()))
          << s.m << "x" << s.k << "x" << s.n << " accumulate=" << accumulate;
    }
  }

  // Strided quadrant views: operands and result all have ld = 2n, and
  // the odd n leaves most rows unaligned to any vector width.
  constexpr std::size_t n = 49;
  const Matrix src = random_matrix(2 * n, 2 * n, 11);
  const Matrix out0 = random_matrix(2 * n, 2 * n, 12);
  for (bool accumulate : {false, true}) {
    Matrix got = out0, want = out0;
    run_bots(src.block(0, n, n, n), src.block(n, 0, n, n),
             got.block(n, n, n, n), accumulate);
    bots_reference(src.block(0, n, n, n), src.block(n, 0, n, n),
                   want.block(n, n, n, n), accumulate);
    EXPECT_TRUE(same_bits(got.view(), want.view()))
        << "quadrants accumulate=" << accumulate;
  }
}

// Every clone the host can run, not only the dispatched one, over every
// tile-edge class: row counts around each clone's tile heights, column
// counts that leave every mix of full tiles, one-vector strips and scalar
// columns, and k even, odd and 1. Operands are offset blocks of larger
// matrices, so rows are strided and unaligned, and comparing the whole
// backing matrix also catches a store outside the block.
TEST(BotsKernel, EveryCloneMatchesBaselineLoopAtEveryTileEdge) {
  constexpr std::size_t kMaxM = 13, kMaxN = 40, kMaxK = 65;
  const Matrix a_src = random_matrix(kMaxM + 1, kMaxK + 1, 21);
  const Matrix b_src = random_matrix(kMaxK + 1, kMaxN + 1, 22);
  const Matrix c_src = random_matrix(kMaxM + 1, kMaxN + 1, 23);
  ASSERT_FALSE(detail::bots_clones().empty());
  for (const detail::BotsClone& clone : detail::bots_clones()) {
    for (std::size_t m = 1; m <= kMaxM; ++m) {
      for (std::size_t n = 1; n <= kMaxN; ++n) {
        for (std::size_t k : {1u, 2u, 3u, 64u, 65u}) {
          const auto a = a_src.block(1, 1, m, k);
          const auto b = b_src.block(1, 1, k, n);
          for (bool accumulate : {false, true}) {
            Matrix got = c_src, want = c_src;
            clone.run(a, b, got.block(1, 1, m, n), accumulate);
            bots_reference(a, b, want.block(1, 1, m, n), accumulate);
            ASSERT_TRUE(same_bits(got.view(), want.view()))
                << clone.name << " " << m << "x" << k << "x" << n
                << " accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

// Every clone on the recursion's own leaves: quadrants of 2n x 2n
// matrices at fast_recursion's base sizes, padded and peeled, and at
// widths with a narrower-vector tail (36, 63).
TEST(BotsKernel, EveryCloneMatchesBaselineLoopOnQuadrants) {
  for (const detail::BotsClone& clone : detail::bots_clones()) {
    for (std::size_t n : {33u, 36u, 40u, 41u, 48u, 49u, 56u, 63u, 64u}) {
      const Matrix src = random_matrix(2 * n, 2 * n, n);
      const Matrix out0 = random_matrix(2 * n, 2 * n, n + 1);
      for (bool accumulate : {false, true}) {
        Matrix got = out0, want = out0;
        clone.run(src.block(0, n, n, n), src.block(n, 0, n, n),
                  got.block(n, n, n, n), accumulate);
        bots_reference(src.block(0, n, n, n), src.block(n, 0, n, n),
                       want.block(n, n, n, n), accumulate);
        EXPECT_TRUE(same_bits(got.view(), want.view()))
            << clone.name << " n=" << n << " accumulate=" << accumulate;
      }
    }
  }
}

// Signed zeros and non-finite operands: every clone must round, sign
// and propagate exactly as the baseline loop. A row of -0.0 in A meets
// a -0.0 C in accumulate mode (-0 + -0 stays -0; 0 + -0 is +0), and
// sparse Inf/NaN entries poison some sums but not others.
TEST(BotsKernel, EveryCloneMatchesBaselineLoopOnSignedZeroInfNan) {
  constexpr std::size_t m = 13, k = 65, n = 40;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a = random_matrix(m, k, 31);
  Matrix b = random_matrix(k, n, 32);
  Matrix c0 = random_matrix(m, n, 33);
  for (std::size_t p = 0; p < k; ++p) {
    a(0, p) = -0.0;
    b(p, 0) = std::abs(b(p, 0));  // keeps row 0's products at -0.0
  }
  for (std::size_t p = 0; p < k; ++p) a(1, p) = 0.0;
  a(2, 5) = inf;
  a(3, 64) = -inf;
  a(4, 7) = nan;
  b(9, 3) = inf;
  b(10, 17) = nan;
  b(64, 33) = -inf;
  for (std::size_t p = 0; p < k; ++p) b(p, 39) = -0.0;
  for (std::size_t j = 0; j < n; ++j) c0(0, j) = -0.0;
  c0(5, 6) = inf;
  for (const detail::BotsClone& clone : detail::bots_clones()) {
    for (bool accumulate : {false, true}) {
      Matrix got = c0, want = c0;
      clone.run(a.view(), b.view(), got.view(), accumulate);
      bots_reference(a.view(), b.view(), want.view(), accumulate);
      EXPECT_TRUE(same_bits(got.view(), want.view()))
          << clone.name << " accumulate=" << accumulate;
      // The case pins what it claims to: the -0.0 row survives only
      // when accumulating into -0.0, and NaN and Inf both appear.
      EXPECT_EQ(std::signbit(want(0, 0)), accumulate);
      EXPECT_TRUE(std::isnan(want(4, 0)));
      EXPECT_TRUE(std::isinf(want(2, 20)));
    }
  }
}

TEST(RecursionLevels, Formula) {
  EXPECT_EQ(recursion_levels(64, 64), 0u);
  EXPECT_EQ(recursion_levels(65, 64), 1u);
  EXPECT_EQ(recursion_levels(128, 64), 1u);
  EXPECT_EQ(recursion_levels(512, 64), 3u);
  EXPECT_EQ(recursion_levels(4096, 64), 6u);
  EXPECT_EQ(recursion_levels(4096, 512), 3u);
  EXPECT_THROW(recursion_levels(64, 0), std::invalid_argument);
}

// peel_dimension: with L = recursion_levels(n, base), m <= n,
// m / 2^L <= base and the border n - m < 2^L; and m halves evenly all
// the way down to its base case.
class PeelDimensionTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PeelDimensionTest, LeavesABorderBelowTwoToTheLevels) {
  const auto [n, base] = GetParam();
  const std::size_t m = peel_dimension(n, base);
  const std::size_t levels = recursion_levels(n, base);
  EXPECT_LE(m, n);
  EXPECT_LE(m >> levels, base) << "m=" << m;
  EXPECT_LT(n - m, std::size_t{1} << levels) << "m=" << m;
  if (n > 0) {
    EXPECT_GT(m, 0u);
  }
  for (std::size_t k = m; k > base; k /= 2) {
    EXPECT_EQ(k % 2, 0u) << "m=" << m;
  }
  if (n <= base) {
    EXPECT_EQ(m, n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeelDimensionTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 64},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{65, 64},
                      std::pair<std::size_t, std::size_t>{100, 64},
                      std::pair<std::size_t, std::size_t>{129, 64},
                      std::pair<std::size_t, std::size_t>{131, 64},
                      std::pair<std::size_t, std::size_t>{520, 64},
                      std::pair<std::size_t, std::size_t>{641, 64},
                      std::pair<std::size_t, std::size_t>{769, 64},
                      std::pair<std::size_t, std::size_t>{1000, 64},
                      std::pair<std::size_t, std::size_t>{4096, 64},
                      std::pair<std::size_t, std::size_t>{100, 16},
                      std::pair<std::size_t, std::size_t>{31, 8},
                      std::pair<std::size_t, std::size_t>{7, 1},
                      std::pair<std::size_t, std::size_t>{3, 1}));

TEST(RecursionLevels, PeelDimensionOfFastRecursionSizes) {
  EXPECT_EQ(peel_dimension(520, 64), 512u);
  EXPECT_EQ(peel_dimension(641, 64), 640u);
  EXPECT_EQ(peel_dimension(769, 64), 768u);
  EXPECT_EQ(peel_dimension(896, 64), 896u);
  EXPECT_EQ(peel_dimension(1024, 64), 1024u);
  EXPECT_THROW(peel_dimension(10, 0), std::invalid_argument);
}

struct StrassenCase {
  std::size_t n;
  std::size_t cutoff;
  bool winograd;
};

class StrassenCorrectnessTest
    : public ::testing::TestWithParam<StrassenCase> {};

TEST_P(StrassenCorrectnessTest, MatchesReference) {
  const auto p = GetParam();
  Matrix a = random_matrix(p.n, p.n, p.n * 7 + 1);
  Matrix b = random_matrix(p.n, p.n, p.n * 7 + 2);
  Matrix expect(p.n, p.n), got(p.n, p.n, -1.0);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  StrassenOptions opts;
  opts.base_cutoff = p.cutoff;
  opts.winograd = p.winograd;
  multiply(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-10, 1e-10))
      << "n=" << p.n << " cutoff=" << p.cutoff << " wino=" << p.winograd
      << " relerr=" << linalg::relative_error(got.view(), expect.view());
}

// A namespace-scope constant has its padding zero-filled, so each case
// prints the same bytes, and so names its test the same, in every build.
constexpr StrassenCase kClassicCases[] = {
    {1, 8, false},    {8, 8, false},    {16, 8, false},   {17, 8, false},
    {30, 8, false},   {64, 16, false},  {96, 16, false},  {100, 16, false},
    {128, 32, false}, {129, 32, false}, {200, 32, false}, {256, 64, false},
    {320, 64, false}};

constexpr StrassenCase kWinogradCases[] = {
    {16, 8, true},   {30, 8, true},   {64, 16, true},
    {100, 16, true}, {128, 32, true}, {256, 64, true}};

INSTANTIATE_TEST_SUITE_P(Classic, StrassenCorrectnessTest,
                         ::testing::ValuesIn(kClassicCases));

INSTANTIATE_TEST_SUITE_P(Winograd, StrassenCorrectnessTest,
                         ::testing::ValuesIn(kWinogradCases));

TEST(Strassen, ParallelMatchesSerialBitwise) {
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix serial(n, n), parallel(n, n);
  StrassenOptions opts;
  opts.base_cutoff = 32;
  multiply(a.view(), b.view(), serial.view(), opts);
  tasking::ThreadPool pool(3);
  multiply(a.view(), b.view(), parallel.view(), opts, &pool);
  // Task scheduling cannot change any arithmetic order.
  EXPECT_TRUE(allclose(parallel.view(), serial.view(), 0.0, 0.0));
}

TEST(Strassen, WinogradParallelMatchesSerial) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 5), b = random_matrix(n, n, 6);
  Matrix serial(n, n), parallel(n, n);
  StrassenOptions opts;
  opts.base_cutoff = 16;
  opts.winograd = true;
  multiply(a.view(), b.view(), serial.view(), opts);
  tasking::ThreadPool pool(2);
  multiply(a.view(), b.view(), parallel.view(), opts, &pool);
  EXPECT_TRUE(allclose(parallel.view(), serial.view(), 0.0, 0.0));
}

TEST(Strassen, NonSquareThrows) {
  Matrix a(4, 6), b(6, 4), c(4, 4);
  EXPECT_THROW(multiply(a.view(), b.view(), c.view()),
               std::invalid_argument);
  Matrix a2(4, 4), b2(4, 4), c2(6, 6);
  EXPECT_THROW(multiply(a2.view(), b2.view(), c2.view()),
               std::invalid_argument);
}

TEST(Strassen, ZeroCutoffThrows) {
  Matrix a(4, 4), b(4, 4), c(4, 4);
  StrassenOptions opts;
  opts.base_cutoff = 0;
  EXPECT_THROW(multiply(a.view(), b.view(), c.view(), opts),
               std::invalid_argument);
}

TEST(Strassen, EmptyMatrixIsNoop) {
  Matrix a, b, c;
  EXPECT_NO_THROW(multiply(a.view(), b.view(), c.view()));
}

class StrassenCountTest : public ::testing::TestWithParam<StrassenCase> {};

// Instrumented flops and logical traffic match the closed forms exactly
// — including dimensions peeled to an evenly halving block plus a
// border.
TEST_P(StrassenCountTest, InstrumentedCountsMatchClosedForm) {
  const auto p = GetParam();
  Matrix a = random_matrix(p.n, p.n, 1), b = random_matrix(p.n, p.n, 2);
  Matrix c(p.n, p.n);
  StrassenOptions opts;
  opts.base_cutoff = p.cutoff;
  opts.winograd = p.winograd;

  trace::Recorder rec;
  {
    trace::RecordingScope scope(rec);
    multiply(a.view(), b.view(), c.view(), opts);
  }
  EXPECT_EQ(static_cast<double>(rec.total().flops),
            strassen_total_flops(p.n, opts));
  EXPECT_EQ(static_cast<double>(rec.total().dram_bytes()),
            strassen_total_traffic_bytes(p.n, opts));
}

constexpr StrassenCase kCountCases[] = {
    {32, 8, false},    // exact power recursion
    {48, 8, false},    // base*2^k with base 6
    {100, 16, false},  // peeled: 96 plus a 4-wide border
    {128, 32, false},
    {64, 64, false},   // pure base case
    {33, 8, false},    // peeled odd: 32 plus a 1-wide border
    {32, 8, true},
    {100, 16, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, StrassenCountTest,
                         ::testing::ValuesIn(kCountCases));

TEST(Strassen, ReducesMultiplicationFlops) {
  // One recursion level: 7/8 of the classical products plus O(n^2) adds.
  StrassenOptions cost;
  cost.base_cutoff = 64;
  const double classical = 2.0 * 128 * 128 * 128;
  const double strassen = strassen_total_flops(128, cost);
  const double adds = 18.0 * 64 * 64;
  EXPECT_DOUBLE_EQ(strassen, classical * 7.0 / 8.0 + adds);
}

TEST(Strassen, WinogradUsesFewerAddFlops) {
  const StrassenOptions classic{.base_cutoff = 32, .winograd = false};
  const StrassenOptions wino{.base_cutoff = 32, .winograd = true};
  EXPECT_LT(strassen_total_flops(256, wino),
            strassen_total_flops(256, classic));
  EXPECT_LT(strassen_total_traffic_bytes(256, wino),
            strassen_total_traffic_bytes(256, classic));
}

TEST(Strassen, StabilityWithinHighamStyleBound) {
  // Strassen's forward error grows with recursion depth but stays
  // well-behaved for moderate depth (Higham 2002, ch. 23). Check the
  // relative error against a generous depth-scaled bound.
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 11), b = random_matrix(n, n, 12);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  StrassenOptions opts;
  opts.base_cutoff = 16;  // 4 levels of recursion
  multiply(a.view(), b.view(), got.view(), opts);
  const double err = linalg::relative_error(got.view(), expect.view());
  // 12^depth * n * eps is the classic growth envelope; depth 4, n 256.
  const double bound = std::pow(12.0, 4) * n * 2.2e-16;
  EXPECT_LT(err, bound);
}

TEST(Strassen, DeeperRecursionStillAccurate) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  for (std::size_t cutoff : {64u, 32u, 16u, 8u}) {
    Matrix got(n, n);
    StrassenOptions opts;
    opts.base_cutoff = cutoff;
    multiply(a.view(), b.view(), got.view(), opts);
    EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-9, 1e-9))
        << "cutoff=" << cutoff;
  }
}

TEST(Strassen, SpawnsSevenTasksPerNode) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  StrassenOptions opts;
  opts.base_cutoff = 32;  // two levels
  tasking::ThreadPool pool(2);
  trace::Recorder rec;
  {
    trace::RecordingScope scope(rec);
    multiply(a.view(), b.view(), c.view(), opts, &pool);
  }
  // Level 0: 7 spawns; level 1: 7 nodes x 7 spawns.
  EXPECT_EQ(rec.total().tasks_spawned, 7u + 49u);
  EXPECT_EQ(rec.total().syncs, 1u + 7u);
}

// A serial node runs its scheme's program in place, leasing only the
// program's temporaries per level: three for the classic scheme, two
// for Winograd, where evaluating the textbook over seven product buffers
// kept nine (Winograd: fifteen). Sizes that do not halve evenly
// (769 = 768 + 1, 520 = 512 + 8) recurse on their leading block in place
// and lease nothing for the border.
TEST(Strassen, SerialFootprintIsThreeQuadrantsPerLevel) {
  if (resolve_base_kernel(std::nullopt) != nullptr) {
    GTEST_SKIP() << "a packed base kernel leases its own packing buffers";
  }
  for (const bool winograd : {false, true}) {
    for (const std::size_t n : {1024u, 769u, 520u}) {
      Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
      Matrix c(n, n);
      blas::WorkspaceArena arena;
      arena.reset_stats();
      StrassenOptions opts;
      opts.arena = &arena;
      opts.winograd = winograd;
      opts.abft.mode = abft::AbftMode::kOff;
      multiply(a.view(), b.view(), c.view(), opts);

      EXPECT_LE(arena.stats().peak_outstanding_bytes,
                footprint::quadrants_per_level(
                    n, opts.base_cutoff,
                    scheme::program(winograd).temporaries()))
          << "n=" << n << " winograd=" << winograd;
    }
  }
}

}  // namespace
}  // namespace capow::strassen
