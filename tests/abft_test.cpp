// Tests for capow::abft: checksum primitives, guard localization, the
// guarded_gemm recovery ladder, and the central acceptance criterion —
// under deterministic mem.flip/compute.flip injection with abft=correct,
// every algorithm's output is bit-identical to its fault-free run, and
// the capow_abft_* counters replay identically across reruns.
//
// The final test prints the process counter totals as
// "capow_abft_<kind> <count>" lines; the CI fault-matrix leg runs this
// binary twice and diffs those lines to assert schedule determinism.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/abft/checksum.hpp"
#include "capow/api/matmul.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/dist/summa.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/random.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::abft {
namespace {

using linalg::Matrix;
using linalg::random_matrix;

bool bits_equal(const Matrix& x, const Matrix& y) {
  if (x.view().rows() != y.view().rows() ||
      x.view().cols() != y.view().cols()) {
    return false;
  }
  for (std::size_t r = 0; r < x.view().rows(); ++r) {
    if (std::memcmp(x.view().row(r), y.view().row(r),
                    x.view().cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(Checksum, NeumaierAccumulatorIsExactOnHarshInput) {
  // 1 + 1e100 - 1e100 loses the 1 in naive summation.
  NeumaierAcc acc;
  acc.add(1.0);
  acc.add(1e100);
  acc.add(-1e100);
  EXPECT_EQ(acc.value(), 1.0);
}

TEST(Checksum, ColAndRowSumsMatchNaive) {
  const Matrix a = random_matrix(17, 23, 3);
  std::vector<double> col(23), col_mag(23);
  std::vector<double> row(17), row_mag(17);
  col_sums(a.view(), col.data(), col_mag.data());
  row_sums(a.view(), row.data(), row_mag.data());
  for (std::size_t j = 0; j < 23; ++j) {
    double s = 0.0, m = 0.0;
    for (std::size_t i = 0; i < 17; ++i) {
      s += a.view()(i, j);
      m += std::fabs(a.view()(i, j));
    }
    EXPECT_NEAR(col[j], s, 1e-12);
    EXPECT_NEAR(col_mag[j], m, 1e-12);
  }
  for (std::size_t i = 0; i < 17; ++i) {
    double s = 0.0, m = 0.0;
    for (std::size_t j = 0; j < 23; ++j) {
      s += a.view()(i, j);
      m += std::fabs(a.view()(i, j));
    }
    EXPECT_NEAR(row[i], s, 1e-12);
    EXPECT_NEAR(row_mag[i], m, 1e-12);
  }
}

// Every output of the five O(n^2) sweeps on one (A, B, C) triple.
struct SweepOutputs {
  std::vector<double> col, col_mag, row, row_mag, ca, camag, rref, rmag,
      cref, cmag, c_rows, c_cols;

  SweepOutputs(std::size_t m, std::size_t k, std::size_t n)
      : col(k), col_mag(k), row(k), row_mag(k), ca(k), camag(k), rref(m),
        rmag(m), cref(n), cmag(n), c_rows(m), c_cols(n) {}

  // "" when every output is memcmp-equal to o's, else the first
  // differing element with both bit patterns.
  std::string first_difference(const SweepOutputs& o) const {
    const std::pair<const char*, const std::vector<double> SweepOutputs::*>
        kFields[] = {{"col", &SweepOutputs::col},
                     {"col_mag", &SweepOutputs::col_mag},
                     {"row", &SweepOutputs::row},
                     {"row_mag", &SweepOutputs::row_mag},
                     {"ca", &SweepOutputs::ca},
                     {"camag", &SweepOutputs::camag},
                     {"rref", &SweepOutputs::rref},
                     {"rmag", &SweepOutputs::rmag},
                     {"cref", &SweepOutputs::cref},
                     {"cmag", &SweepOutputs::cmag},
                     {"c_rows", &SweepOutputs::c_rows},
                     {"c_cols", &SweepOutputs::c_cols}};
    for (const auto& [name, field] : kFields) {
      const std::vector<double>& x = this->*field;
      const std::vector<double>& y = o.*field;
      for (std::size_t i = 0; i < x.size(); ++i) {
        std::uint64_t bx = 0, by = 0;
        std::memcpy(&bx, &x[i], sizeof bx);
        std::memcpy(&by, &y[i], sizeof by);
        if (bx != by) {
          char buf[128];
          std::snprintf(buf, sizeof buf, "%s[%zu]: %016llx vs %016llx", name,
                        i, static_cast<unsigned long long>(bx),
                        static_cast<unsigned long long>(by));
          return buf;
        }
      }
    }
    return "";
  }
};

// Runs the sweeps in the guard's order: column sums of A and row sums of
// B, the fused pass over A against B's row sums, the pass over B against
// A's column sums, then the verification sums of C.
SweepOutputs run_clone(const detail::SweepClone& clone,
                       linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                       linalg::ConstMatrixView c) {
  SweepOutputs o(a.rows(), a.cols(), b.cols());
  clone.col_sums(a, o.col.data(), o.col_mag.data());
  clone.row_sums(b, o.row.data(), o.row_mag.data());
  clone.guard_row_refs(a, o.row.data(), o.row_mag.data(), o.ca.data(),
                       o.camag.data(), o.rref.data(), o.rmag.data());
  clone.guard_col_refs(b, o.ca.data(), o.camag.data(), o.cref.data(),
                       o.cmag.data());
  clone.matrix_sums(c, o.c_rows.data(), o.c_cols.data());
  return o;
}

// The summation order every clone must reproduce, stated as scalar
// loops: column sums run down each column, and a row reduction of
// length len runs 8 lanes (lane l takes the terms at l mod 8 below the
// last full block of 8), folds them as 0.0 + lane 0 + ... + lane 7,
// then adds the remaining terms in order. Each term is rounded before
// it is added (volatile keeps a test build from fusing it).
template <class Term>
double lane_sum(std::size_t len, Term term) {
  constexpr std::size_t kLanes = 8;
  double lanes[kLanes] = {};
  std::size_t j = 0;
  for (; j + kLanes <= len; j += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const volatile double t = term(j + l);
      lanes[l] += t;
    }
  }
  double sum = 0.0;
  for (const double lane : lanes) sum += lane;
  for (; j < len; ++j) {
    const volatile double t = term(j);
    sum += t;
  }
  return sum;
}

// The column-wise order: 0.0 + term 0 + ... + term len-1.
template <class Term>
double serial_sum(std::size_t len, Term term) {
  double sum = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const volatile double t = term(i);
    sum += t;
  }
  return sum;
}

SweepOutputs reference_sweeps(linalg::ConstMatrixView a,
                              linalg::ConstMatrixView b,
                              linalg::ConstMatrixView c) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  SweepOutputs o(m, k, n);
  for (std::size_t t = 0; t < k; ++t) {
    o.col[t] = o.ca[t] = serial_sum(m, [&](std::size_t i) { return a(i, t); });
    o.col_mag[t] = o.camag[t] =
        serial_sum(m, [&](std::size_t i) { return std::fabs(a(i, t)); });
    o.row[t] = lane_sum(n, [&](std::size_t j) { return b(t, j); });
    o.row_mag[t] =
        lane_sum(n, [&](std::size_t j) { return std::fabs(b(t, j)); });
  }
  for (std::size_t i = 0; i < m; ++i) {
    o.rref[i] = lane_sum(k, [&](std::size_t t) { return a(i, t) * o.row[t]; });
    o.rmag[i] = lane_sum(
        k, [&](std::size_t t) { return std::fabs(a(i, t)) * o.row_mag[t]; });
    o.c_rows[i] = lane_sum(n, [&](std::size_t j) { return c(i, j); });
  }
  for (std::size_t j = 0; j < n; ++j) {
    o.cref[j] = serial_sum(k, [&](std::size_t t) { return o.ca[t] * b(t, j); });
    o.cmag[j] = serial_sum(
        k, [&](std::size_t t) { return o.camag[t] * std::fabs(b(t, j)); });
    o.c_cols[j] = serial_sum(m, [&](std::size_t i) { return c(i, j); });
  }
  return o;
}

// Random values with `specials` sprinkled over a fixed pattern, as a
// window of a larger matrix when `strided`.
struct SpecialMatrix {
  Matrix full;
  linalg::MatrixView v;

  SpecialMatrix(std::size_t r, std::size_t c, std::uint64_t seed,
                bool strided, const std::vector<double>& specials)
      : full(random_matrix(r + 2, c + 5, seed)),
        v(full.view().block(strided ? 1 : 0, strided ? 3 : 0, r, c)) {
    std::size_t next = seed;
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        if ((i * 7 + j * 3 + seed) % 23 == 0) {
          v(i, j) = specials[next++ % specials.size()];
        }
      }
    }
  }
};

// Every compiled clone of the ABFT sweeps reproduces the scalar
// summation order bit for bit, including the signs of zeros and the
// propagation of Inf and NaN, on odd, non-square and strided shapes.
// The Inf and NaN cases are kept apart: where two NaNs of opposite sign
// meet in one add, the sign of the result follows the operand order the
// compiler picked, which no summation order pins down. Inf alone only
// ever makes the default NaN (Inf - Inf, Inf * 0), and a NaN input
// alone only its own quiet NaN.
TEST(Checksum, EverySweepCloneMatchesScalarOrderOnSignedZeroInfNan) {
  struct Shape {
    std::size_t m, k, n;
  };
  constexpr Shape kShapes[] = {{1, 1, 1},    {7, 9, 5},    {37, 29, 41},
                               {64, 64, 64}, {17, 100, 3}, {3, 16, 131}};
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> kSpecialSets[] = {
      {-0.0, 0.0, inf, -inf},
      {-0.0, std::numeric_limits<double>::quiet_NaN()},
      {-0.0}};
  const auto clones = detail::sweep_clones();
  ASSERT_GE(clones.size(), 1u);
  EXPECT_STREQ(clones[0].name, "baseline");
  for (const std::vector<double>& specials : kSpecialSets) {
    for (const Shape& sh : kShapes) {
      for (const bool strided : {false, true}) {
        SpecialMatrix a(sh.m, sh.k, 1, strided, specials),
            b(sh.k, sh.n, 2, strided, specials),
            c(sh.m, sh.n, 3, strided, specials);
        const SweepOutputs want = reference_sweeps(a.v, b.v, c.v);
        for (const detail::SweepClone& clone : clones) {
          EXPECT_EQ(run_clone(clone, a.v, b.v, c.v).first_difference(want),
                    "")
              << clone.name << " " << sh.m << "x" << sh.k << "x" << sh.n
              << (strided ? " strided" : "") << " specials "
              << specials.size();
        }
      }
    }
  }
  // All -0.0 operands: every sum starts from +0.0, so each is +0.0.
  const Matrix za(9, 19, -0.0), zb(19, 7, -0.0), zc(9, 7, -0.0);
  const SweepOutputs want = reference_sweeps(za.view(), zb.view(), zc.view());
  const double pos_zero = 0.0;
  EXPECT_EQ(std::memcmp(&want.rref[0], &pos_zero, sizeof(double)), 0);
  for (const detail::SweepClone& clone : clones) {
    EXPECT_EQ(run_clone(clone, za.view(), zb.view(), zc.view())
                  .first_difference(want),
              "")
        << clone.name << " all -0.0";
  }
}

TEST(Checksum, PayloadChecksumIsBitStableAndSensitive) {
  std::vector<double> data(301);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(static_cast<double>(i) * 0.7) * 1e3;
  }
  const double c1 = payload_checksum(data.data(), data.size());
  const double c2 = payload_checksum(data.data(), data.size());
  EXPECT_EQ(std::memcmp(&c1, &c2, sizeof(double)), 0);
  data[150] = fault::flip_value(data[150]);
  const double c3 = payload_checksum(data.data(), data.size());
  EXPECT_NE(std::memcmp(&c1, &c3, sizeof(double)), 0);
}

TEST(AbftMode, ParseAndToStringRoundTrip) {
  for (AbftMode m : {AbftMode::kOff, AbftMode::kDetect, AbftMode::kCorrect}) {
    const auto parsed = parse_mode(to_string(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_mode("verify").has_value());
  EXPECT_FALSE(parse_mode("").has_value());
}

TEST(AbftMode, ResolveModePrecedence) {
  const char* saved = std::getenv("CAPOW_ABFT");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::unsetenv("CAPOW_ABFT");
  EXPECT_EQ(resolve_mode(AbftConfig{}), AbftMode::kOff);

  ::setenv("CAPOW_ABFT", "detect", 1);
  EXPECT_EQ(resolve_mode(AbftConfig{}), AbftMode::kDetect);

  // Explicit config outranks the environment.
  AbftConfig cfg;
  cfg.mode = AbftMode::kCorrect;
  EXPECT_EQ(resolve_mode(cfg), AbftMode::kCorrect);
  cfg.mode = AbftMode::kOff;
  EXPECT_EQ(resolve_mode(cfg), AbftMode::kOff);

  ::setenv("CAPOW_ABFT", "bogus", 1);
  EXPECT_THROW(resolve_mode(AbftConfig{}), std::invalid_argument);
  EXPECT_EQ(resolve_mode(cfg), AbftMode::kOff);  // explicit still wins

  if (saved != nullptr) {
    ::setenv("CAPOW_ABFT", saved_value.c_str(), 1);
  } else {
    ::unsetenv("CAPOW_ABFT");
  }
}

TEST(AbftGuard, CleanProductVerifies) {
  const std::size_t n = 48;
  const Matrix a = random_matrix(n, n, 11);
  const Matrix b = random_matrix(n, n, 12);
  Matrix c(n, n);
  blas::gemm_reference(a.view(), b.view(), c.view());

  const AbftCounters before = counters();
  const AbftGuard guard(a.view(), b.view(),
                        blas::WorkspaceArena::process_arena(), 1e-7);
  const VerifyReport rep = guard.verify(c.view());
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.bad_rows.empty());
  EXPECT_TRUE(rep.bad_cols.empty());
  EXPECT_LT(rep.max_residual, 1.0);
  const AbftCounters after = counters();
  EXPECT_EQ(after.verifications, before.verifications + 1);
  EXPECT_EQ(after.detected, before.detected);
}

TEST(AbftGuard, LocalizesASingleCorruptedElement) {
  const std::size_t n = 40;
  const Matrix a = random_matrix(n, n, 13);
  const Matrix b = random_matrix(n, n, 14);
  Matrix c(n, n);
  blas::gemm_reference(a.view(), b.view(), c.view());

  const AbftGuard guard(a.view(), b.view(),
                        blas::WorkspaceArena::process_arena(), 1e-7);
  c.view()(7, 29) = fault::flip_value(c.view()(7, 29));
  const VerifyReport rep = guard.verify(c.view());
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.bad_rows.size(), 1u);
  ASSERT_EQ(rep.bad_cols.size(), 1u);
  EXPECT_EQ(rep.bad_rows[0], 7u);
  EXPECT_EQ(rep.bad_cols[0], 29u);
  EXPECT_GT(rep.max_residual, 1.0);
}

TEST(AbftGuard, LocalizesANaNInC) {
  // A NaN residual compares false against any tolerance, so the check
  // must be "not within tolerance" rather than "above it".
  const std::size_t n = 40;
  const Matrix a = random_matrix(n, n, 18);
  const Matrix b = random_matrix(n, n, 19);
  Matrix c(n, n);
  blas::gemm_reference(a.view(), b.view(), c.view());

  const AbftGuard guard(a.view(), b.view(),
                        blas::WorkspaceArena::process_arena(), 1e-7);
  c.view()(11, 3) = std::numeric_limits<double>::quiet_NaN();
  const VerifyReport rep = guard.verify(c.view());
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.bad_rows.size(), 1u);
  ASSERT_EQ(rep.bad_cols.size(), 1u);
  EXPECT_EQ(rep.bad_rows[0], 11u);
  EXPECT_EQ(rep.bad_cols[0], 3u);
  EXPECT_GT(rep.max_residual, 1.0);
}

TEST(AbftGuard, NonFiniteInputsPropagateUnflagged) {
  // A NaN in A is the caller's data, not silent corruption: every
  // guarded algorithm completes, leaves NaN in C and detects nothing —
  // including Strassen and CAPS, whose recursions spread a NaN in A22
  // into C11 (through M1 and M4), rows whose reference sums stay finite.
  const std::size_t n = 96;
  Matrix a = random_matrix(n, n, 20);
  const Matrix b = random_matrix(n, n, 21);
  a.view()(70, 70) = std::numeric_limits<double>::quiet_NaN();
  for (auto algorithm :
       {core::AlgorithmId::kOpenBlas, core::AlgorithmId::kStrassen,
        core::AlgorithmId::kCaps}) {
    MatmulOptions opts;
    opts.algorithm = algorithm;
    opts.abft.mode = AbftMode::kCorrect;
    Matrix c(n, n);
    const AbftCounters before = counters();
    EXPECT_NO_THROW(matmul(a.view(), b.view(), c.view(), opts))
        << static_cast<int>(algorithm);
    EXPECT_TRUE(std::isnan(c.view()(70, 0))) << static_cast<int>(algorithm);
    EXPECT_EQ(counters().detected, before.detected)
        << static_cast<int>(algorithm);
  }
}

TEST(AbftGuard, RejectsMismatchedShapes) {
  const Matrix a = random_matrix(8, 6, 15);
  const Matrix b = random_matrix(5, 8, 16);  // inner dim disagrees
  EXPECT_THROW(AbftGuard(a.view(), b.view(),
                         blas::WorkspaceArena::process_arena(), 1e-7),
               std::invalid_argument);

  const Matrix b2 = random_matrix(6, 9, 17);
  const AbftGuard guard(a.view(), b2.view(),
                        blas::WorkspaceArena::process_arena(), 1e-7);
  Matrix wrong(8, 8);
  EXPECT_THROW((void)guard.verify(wrong.view()), std::invalid_argument);
}

TEST(GuardedGemm, CleanRunIsBitIdenticalToPlainGemm) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 21);
  const Matrix b = random_matrix(n, n, 22);
  Matrix plain(n, n), detect(n, n), correct(n, n);
  blas::gemm(a.view(), b.view(), plain.view());

  AbftConfig cfg;
  cfg.mode = AbftMode::kDetect;
  guarded_gemm(a.view(), b.view(), detect.view(), {}, cfg);
  cfg.mode = AbftMode::kCorrect;
  guarded_gemm(a.view(), b.view(), correct.view(), {}, cfg);
  EXPECT_TRUE(bits_equal(plain, detect));
  EXPECT_TRUE(bits_equal(plain, correct));
}

// Deterministic flip plan used by the recovery tests below. The
// probabilities are tuned so each algorithm's top-level run draws a
// handful of flips while the (fresh-salt) recovery re-runs converge.
fault::FaultPlan flip_plan(double mem, double compute, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.mem_flip = mem;
  plan.compute_flip = compute;
  plan.seed = seed;
  return plan;
}

TEST(GuardedGemm, DetectModeThrowsUnderInjectedFlips) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 23);
  const Matrix b = random_matrix(n, n, 24);
  Matrix c(n, n);

  fault::FaultInjector inj(flip_plan(2e-4, 2e-4, 97));
  fault::FaultScope scope(inj);
  AbftConfig cfg;
  cfg.mode = AbftMode::kDetect;
  EXPECT_THROW(guarded_gemm(a.view(), b.view(), c.view(), {}, cfg),
               AbftError);
  EXPECT_GT(inj.count(fault::Event::kMemFlip) +
                inj.count(fault::Event::kComputeFlip),
            0u);
}

TEST(GuardedGemm, CorrectModeMatchesFaultFreeRunBitwise) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 25);
  const Matrix b = random_matrix(n, n, 26);
  Matrix expect(n, n), got(n, n);
  blas::gemm(a.view(), b.view(), expect.view());

  const AbftCounters before = counters();
  fault::FaultInjector inj(flip_plan(5e-5, 5e-5, 3));
  fault::FaultScope scope(inj);
  AbftConfig cfg;
  cfg.mode = AbftMode::kCorrect;
  cfg.max_retries = 6;
  guarded_gemm(a.view(), b.view(), got.view(), {}, cfg);
  const AbftCounters after = counters();

  EXPECT_TRUE(bits_equal(expect, got));
  EXPECT_GT(after.detected, before.detected);
  EXPECT_GT(after.corrected + after.recomputed + after.retried,
            before.corrected + before.recomputed + before.retried);
}

// ---- whole-algorithm recovery through the facade ------------------------

struct AlgoCase {
  core::AlgorithmId algorithm;
  std::size_t n;
  double mem_flip;
  double compute_flip;
  std::uint64_t seed;
  unsigned pool_workers;  // 0 = serial
};

class AbftAlgorithmTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AbftAlgorithmTest, CorrectModeIsBitIdenticalToFaultFreeRun) {
  const AlgoCase p = GetParam();
  const Matrix a = random_matrix(p.n, p.n, 31);
  const Matrix b = random_matrix(p.n, p.n, 32);

  tasking::ThreadPool pool(p.pool_workers);
  MatmulOptions opts;
  opts.algorithm = p.algorithm;
  if (p.pool_workers > 0) opts.pool = &pool;
  opts.abft.mode = AbftMode::kOff;

  Matrix expect(p.n, p.n);
  matmul(a.view(), b.view(), expect.view(), opts);

  const AbftCounters before = counters();
  Matrix got(p.n, p.n);
  {
    fault::FaultInjector inj(flip_plan(p.mem_flip, p.compute_flip, p.seed));
    fault::FaultScope scope(inj);
    opts.abft.mode = AbftMode::kCorrect;
    opts.abft.max_retries = 6;
    matmul(a.view(), b.view(), got.view(), opts);
    EXPECT_GT(inj.count(fault::Event::kMemFlip) +
                  inj.count(fault::Event::kComputeFlip),
              0u)
        << "plan injected nothing — flip probabilities too low";
  }
  const AbftCounters after = counters();

  EXPECT_TRUE(bits_equal(expect, got))
      << "corrected output differs from the fault-free run";
  EXPECT_GT(after.detected, before.detected);
}

// A namespace-scope constant has its padding zero-filled, so each case
// prints the same bytes, and so names its test the same, in every build.
constexpr AlgoCase kAlgoCases[] = {
    {core::AlgorithmId::kOpenBlas, 96, 5e-5, 5e-5, 3, 0},
    {core::AlgorithmId::kOpenBlas, 96, 5e-5, 5e-5, 3, 3},
    {core::AlgorithmId::kStrassen, 96, 5e-5, 5e-5, 1, 0},
    {core::AlgorithmId::kStrassen, 96, 5e-5, 5e-5, 1, 3},
    {core::AlgorithmId::kCaps, 96, 5e-5, 5e-5, 2, 0},
    {core::AlgorithmId::kCaps, 96, 5e-5, 5e-5, 2, 3}};

INSTANTIATE_TEST_SUITE_P(Matrix, AbftAlgorithmTest,
                         ::testing::ValuesIn(kAlgoCases));

TEST(AbftSumma, CorrectModeIsBitIdenticalToFaultFreeRun) {
  const std::size_t n = 64;
  const dist::GridSpec grid{2, 2, 1};
  const Matrix a = random_matrix(n, n, 41);
  const Matrix b = random_matrix(n, n, 42);

  const auto run = [&](Matrix& out, const AbftConfig& cfg) {
    dist::World world(grid.ranks());
    world.run([&](dist::Communicator& comm) {
      Matrix empty;
      const bool root = comm.rank() == 0;
      dist::summa_multiply(comm, grid, root ? a.view() : empty.view(),
                           root ? b.view() : empty.view(),
                           root ? out.view() : empty.view(), cfg);
    });
  };

  AbftConfig cfg;
  cfg.mode = AbftMode::kOff;
  Matrix expect(n, n);
  run(expect, cfg);

  const AbftCounters before = counters();
  Matrix got(n, n);
  {
    fault::FaultInjector inj(flip_plan(5e-5, 5e-5, 1));
    fault::FaultScope scope(inj);
    cfg.mode = AbftMode::kCorrect;
    cfg.max_retries = 6;
    run(got, cfg);
    EXPECT_GT(inj.count(fault::Event::kMemFlip) +
                  inj.count(fault::Event::kComputeFlip),
              0u);
  }
  const AbftCounters after = counters();

  EXPECT_TRUE(bits_equal(expect, got));
  EXPECT_GT(after.detected, before.detected);
}

TEST(AbftSumma, DetectModeSurfacesMessageCorruption) {
  const std::size_t n = 64;
  const dist::GridSpec grid{2, 2, 1};
  const Matrix a = random_matrix(n, n, 43);
  const Matrix b = random_matrix(n, n, 44);
  Matrix got(n, n);

  fault::FaultInjector inj(flip_plan(5e-5, 5e-5, 1));
  fault::FaultScope scope(inj);
  AbftConfig cfg;
  cfg.mode = AbftMode::kDetect;
  dist::World world(grid.ranks());
  EXPECT_THROW(world.run([&](dist::Communicator& comm) {
    Matrix empty;
    const bool root = comm.rank() == 0;
    dist::summa_multiply(comm, grid, root ? a.view() : empty.view(),
                         root ? b.view() : empty.view(),
                         root ? got.view() : empty.view(), cfg);
  }),
               std::exception);
}

TEST(AbftCounters, DeterministicAcrossReruns) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 51);
  const Matrix b = random_matrix(n, n, 52);

  const auto one_run = [&] {
    reset_counters();
    fault::FaultInjector inj(flip_plan(5e-5, 5e-5, 3));
    fault::FaultScope scope(inj);
    MatmulOptions opts;
    opts.abft.mode = AbftMode::kCorrect;
    opts.abft.max_retries = 6;
    for (auto algorithm :
         {core::AlgorithmId::kOpenBlas, core::AlgorithmId::kStrassen,
          core::AlgorithmId::kCaps}) {
      Matrix c(n, n);
      opts.algorithm = algorithm;
      matmul(a.view(), b.view(), c.view(), opts);
    }
    return counters();
  };

  const AbftCounters first = one_run();
  const AbftCounters second = one_run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.verifications, 0u);
}

// Keep last: prints the process totals in the "capow_abft_<kind>
// <count>" form the CI fault-matrix leg greps and diffs across two
// runs of this binary. Runs one seeded correction workload of its own
// (without resetting, so a full-binary run dumps everything the suite
// accumulated) — under ctest's per-test process isolation it would
// otherwise dump all zeros.
TEST(AbftCounters, ZDumpForCiDeterminismDiff) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 51);
  const Matrix b = random_matrix(n, n, 52);
  fault::FaultInjector inj(flip_plan(5e-5, 5e-5, 3));
  fault::FaultScope scope(inj);
  MatmulOptions opts;
  opts.abft.mode = AbftMode::kCorrect;
  opts.abft.max_retries = 6;
  for (auto algorithm :
       {core::AlgorithmId::kOpenBlas, core::AlgorithmId::kStrassen,
        core::AlgorithmId::kCaps}) {
    Matrix c(n, n);
    opts.algorithm = algorithm;
    matmul(a.view(), b.view(), c.view(), opts);
  }

  const AbftCounters c = counters();
  std::printf("capow_abft_verifications %llu\n",
              static_cast<unsigned long long>(c.verifications));
  std::printf("capow_abft_detected %llu\n",
              static_cast<unsigned long long>(c.detected));
  std::printf("capow_abft_corrected %llu\n",
              static_cast<unsigned long long>(c.corrected));
  std::printf("capow_abft_recomputed %llu\n",
              static_cast<unsigned long long>(c.recomputed));
  std::printf("capow_abft_retried %llu\n",
              static_cast<unsigned long long>(c.retried));
  EXPECT_GT(c.verifications, 0u);
}

}  // namespace
}  // namespace capow::abft
