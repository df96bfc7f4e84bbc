// Tests for the capow::matmul() facade, the shared algorithm registry,
// and the backend-pinned equivalence the redesign guarantees.
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/api/matmul.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/core/algorithms.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow {
namespace {

using core::AlgorithmId;
using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

TEST(AlgorithmRegistry, ThreeAlgorithmsWithStableIdsAndKeys) {
  const auto algos = core::algorithm_registry();
  ASSERT_EQ(algos.size(), 3u);
  EXPECT_EQ(algos[0].id, AlgorithmId::kOpenBlas);
  EXPECT_STREQ(algos[0].name, "OpenBLAS");
  EXPECT_STREQ(algos[0].key, "openblas");
  EXPECT_EQ(algos[1].id, AlgorithmId::kStrassen);
  EXPECT_EQ(algos[2].id, AlgorithmId::kCaps);
}

TEST(AlgorithmRegistry, FindByNameOrKey) {
  const core::AlgorithmInfo* byname = core::find_algorithm("Strassen");
  ASSERT_NE(byname, nullptr);
  EXPECT_EQ(byname->id, AlgorithmId::kStrassen);
  const core::AlgorithmInfo* bykey = core::find_algorithm("caps");
  ASSERT_NE(bykey, nullptr);
  EXPECT_EQ(bykey->id, AlgorithmId::kCaps);
  EXPECT_EQ(core::find_algorithm("cannon"), nullptr);
}

TEST(AlgorithmRegistry, NamesMatchLegacySpelling) {
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kOpenBlas), "OpenBLAS");
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kStrassen), "Strassen");
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kCaps), "CAPS");
}

void expect_same_profile(const sim::WorkProfile& got,
                         const sim::WorkProfile& want) {
  EXPECT_EQ(got.name, want.name);
  ASSERT_EQ(got.phases.size(), want.phases.size()) << want.name;
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    const sim::PhaseCost& g = got.phases[i];
    const sim::PhaseCost& w = want.phases[i];
    EXPECT_EQ(g.label, w.label) << want.name << " phase " << i;
    EXPECT_EQ(g.flops, w.flops) << w.label;
    EXPECT_EQ(g.dram_bytes, w.dram_bytes) << w.label;
    EXPECT_EQ(g.cache_bytes, w.cache_bytes) << w.label;
    EXPECT_EQ(g.parallelism, w.parallelism) << w.label;
    EXPECT_EQ(g.efficiency, w.efficiency) << w.label;
    EXPECT_EQ(g.imbalance, w.imbalance) << w.label;
    EXPECT_EQ(g.sync_events, w.sync_events) << w.label;
    EXPECT_EQ(g.spawn_events, w.spawn_events) << w.label;
  }
}

// matmul_profile() is the selected algorithm's own cost model at the
// paper's configuration, equal phase for phase.
TEST(MatmulApi, ProfileIsTheAlgorithmsModel) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  for (const AlgorithmId a : core::kAllAlgorithms) {
    for (const unsigned t : {1u, 4u}) {
      for (const std::size_t n : {520u, 1024u}) {
        MatmulOptions opts;
        opts.algorithm = a;
        const sim::WorkProfile own =
            a == AlgorithmId::kOpenBlas ? blas::blocked_gemm_profile(n, spec, t)
            : a == AlgorithmId::kStrassen
                ? strassen::strassen_profile(n, spec, t)
                : capsalg::caps_profile(n, spec, t);
        expect_same_profile(matmul_profile(n, spec, t, opts), own);
      }
    }
  }
}

// Default options model the default multiply: the blocked GEMM.
TEST(MatmulApi, ProfileDefaultsToBlockedGemm) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  for (const unsigned t : {1u, 4u}) {
    expect_same_profile(matmul_profile(768, spec, t),
                        blas::blocked_gemm_profile(768, spec, t));
  }
}

// What the models leave out (the pool, backend and ABFT the multiply
// runs with) leaves the profile as it is.
TEST(MatmulApi, ProfileIgnoresWhatTheModelsDoNotModel) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  tasking::ThreadPool pool(1);
  for (const AlgorithmId a : core::kAllAlgorithms) {
    MatmulOptions plain;
    plain.algorithm = a;
    MatmulOptions dressed = plain;
    dressed.backend = backend::BackendId::kSimAccel;
    dressed.pool = &pool;
    dressed.abft.mode = abft::AbftMode::kCorrect;
    expect_same_profile(matmul_profile(1024, spec, 4, dressed),
                        matmul_profile(1024, spec, 4, plain));
  }
}

TEST(MatmulFacade, DefaultsToBlockedGemm) {
  const std::size_t n = 96;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  matmul(a.view(), b.view(), got.view());
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-11, 1e-11));
}

TEST(MatmulFacade, ShapeErrorsPropagate) {
  Matrix a(4, 6), b(5, 4), c(4, 4);
  EXPECT_THROW(matmul(a.view(), b.view(), c.view()), std::invalid_argument);
}

TEST(MatmulFacade, MatmulKernelReportsResolution) {
  MatmulOptions opts;
  const blas::MicroKernel* k = matmul_kernel(opts);
  ASSERT_NE(k, nullptr);  // blocked GEMM always runs a microkernel
  EXPECT_TRUE(k->supported());
  EXPECT_EQ(k, &blas::resolve_kernel({}));

  // The Strassen and CAPS base case is the BOTS-style loop kernel (null),
  // unless the CAPOW_KERNEL environment pins one for the whole stack.
  const auto env = blas::env_kernel_override();
  for (const AlgorithmId a : {AlgorithmId::kStrassen, AlgorithmId::kCaps}) {
    opts.algorithm = a;
    const blas::MicroKernel* base = matmul_kernel(opts);
    EXPECT_EQ(base, strassen::resolve_base_kernel(std::nullopt));
    if (env) {
      ASSERT_NE(base, nullptr);
      EXPECT_EQ(base->id, *env);
    } else {
      EXPECT_EQ(base, nullptr);
    }
  }
}

TEST(MatmulFacade, ParallelPoolThreadsThrough) {
  const std::size_t n = 192;
  Matrix a = random_matrix(n, n, 7), b = random_matrix(n, n, 8);
  Matrix serial(n, n), parallel(n, n);
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kStrassen;
  matmul(a.view(), b.view(), serial.view(), opts);
  tasking::ThreadPool pool(3);
  opts.pool = &pool;
  matmul(a.view(), b.view(), parallel.view(), opts);
  EXPECT_TRUE(allclose(parallel.view(), serial.view(), 0.0, 0.0));
}

// ---------------------------------------------------------------------
// Backend-pinned equivalence. Pinning backend=cpu must be bit-identical
// to both the direct per-algorithm entry points and the default facade
// path, on the same shapes/seeds the PR-3 shim-equivalence tests used —
// the device seam adds dispatch, not arithmetic.
// ---------------------------------------------------------------------

TEST(BackendEquivalence, CpuBackendMatchesDirectGemmBitwise) {
  for (std::size_t n : {64u, 512u}) {
    Matrix a = random_matrix(n, n, n), b = random_matrix(n, n, n + 1);
    Matrix direct(n, n), facade(n, n);
    blas::gemm(a.view(), b.view(), direct.view());
    MatmulOptions opts;
    opts.backend = backend::BackendId::kCpu;
    matmul(a.view(), b.view(), facade.view(), opts);
    EXPECT_TRUE(allclose(facade.view(), direct.view(), 0.0, 0.0))
        << "n=" << n;
  }
}

TEST(BackendEquivalence, CpuBackendMatchesStrassenBitwise) {
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 31), b = random_matrix(n, n, 32);
  Matrix direct(n, n), facade(n, n);
  strassen::multiply(a.view(), b.view(), direct.view());
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kStrassen;
  opts.backend = backend::BackendId::kCpu;
  matmul(a.view(), b.view(), facade.view(), opts);
  EXPECT_TRUE(allclose(facade.view(), direct.view(), 0.0, 0.0));
}

TEST(BackendEquivalence, CpuBackendMatchesCapsBitwise) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 41), b = random_matrix(n, n, 42);
  Matrix direct(n, n), facade(n, n);
  capsalg::multiply(a.view(), b.view(), direct.view());
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kCaps;
  opts.backend = backend::BackendId::kCpu;
  matmul(a.view(), b.view(), facade.view(), opts);
  EXPECT_TRUE(allclose(facade.view(), direct.view(), 0.0, 0.0));
}

TEST(BackendEquivalence, ExplicitCpuMatchesDefaultResolutionBitwise) {
  const std::size_t n = 96;
  Matrix a = random_matrix(n, n, 5), b = random_matrix(n, n, 6);
  Matrix by_default(n, n), pinned(n, n);
  matmul(a.view(), b.view(), by_default.view());
  MatmulOptions opts;
  opts.backend = backend::BackendId::kCpu;
  matmul(a.view(), b.view(), pinned.view(), opts);
  EXPECT_TRUE(allclose(pinned.view(), by_default.view(), 0.0, 0.0));
}

// A matmul() is its algorithm's entry point at default options, bit for
// bit: serially and on a 4-worker pool, at the default ABFT level and in
// correct mode, which matmul() forwards to the entry point. n = 520
// peels an 8-wide border off the 512 recursion (strassen::run_frame), so
// the border products are covered too.
class MatmulFacadeEquivalence
    : public ::testing::TestWithParam<
          std::tuple<AlgorithmId, unsigned, std::optional<abft::AbftMode>>> {};

TEST_P(MatmulFacadeEquivalence, MatchesTheEntryPointBitwise) {
  const auto [id, workers, mode] = GetParam();
  const std::size_t n = 520;
  const Matrix a = random_matrix(n, n, 61), b = random_matrix(n, n, 62);
  tasking::ThreadPool four(workers);
  tasking::ThreadPool* pool = workers > 0 ? &four : nullptr;
  const abft::AbftConfig cfg{.mode = mode};

  Matrix facade(n, n), direct(n, n);
  matmul(a.view(), b.view(), facade.view(),
         {.algorithm = id, .pool = pool, .abft = cfg});
  switch (id) {
    case AlgorithmId::kOpenBlas: {
      blas::GemmOptions g;
      g.pool = pool;
      abft::guarded_gemm(a.view(), b.view(), direct.view(), g, cfg);
      break;
    }
    case AlgorithmId::kStrassen:
      strassen::multiply(a.view(), b.view(), direct.view(), {.abft = cfg},
                         pool);
      break;
    case AlgorithmId::kCaps:
      capsalg::multiply(a.view(), b.view(), direct.view(), {.abft = cfg},
                        pool);
      break;
  }
  EXPECT_EQ(
      std::memcmp(facade.data(), direct.data(), n * n * sizeof(double)), 0);
}

std::string equivalence_case_name(
    const ::testing::TestParamInfo<MatmulFacadeEquivalence::ParamType>& info) {
  const auto& [id, workers, mode] = info.param;
  return std::string(core::algorithm_name(id)) +
         (workers > 0 ? "_pool4" : "_serial") +
         (mode ? "_correct" : "_default");
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, MatmulFacadeEquivalence,
    ::testing::Combine(::testing::ValuesIn(core::kAllAlgorithms),
                       ::testing::Values(0u, 4u),
                       ::testing::Values(std::optional<abft::AbftMode>{},
                                         abft::AbftMode::kCorrect)),
    equivalence_case_name);

using Multiply = std::function<void(
    linalg::ConstMatrixView, linalg::ConstMatrixView, linalg::MatrixView)>;

MatmulOptions with_algorithm(AlgorithmId id) {
  MatmulOptions opts;
  opts.algorithm = id;
  return opts;
}

std::vector<std::pair<std::string, Multiply>> multiply_entry_points() {
  std::vector<std::pair<std::string, Multiply>> entries;
  for (AlgorithmId id :
       {AlgorithmId::kOpenBlas, AlgorithmId::kStrassen, AlgorithmId::kCaps}) {
    entries.emplace_back(
        std::string("matmul/") + core::algorithm_info(id).key,
        [id](auto a, auto b, auto c) { matmul(a, b, c, with_algorithm(id)); });
  }
  entries.emplace_back("blas::gemm",
                       [](auto a, auto b, auto c) { blas::gemm(a, b, c); });
  entries.emplace_back("strassen::multiply", [](auto a, auto b, auto c) {
    strassen::multiply(a, b, c);
  });
  entries.emplace_back("capsalg::multiply", [](auto a, auto b, auto c) {
    capsalg::multiply(a, b, c);
  });
  return entries;
}

void expect_alias_rejected(const Multiply& multiply, linalg::ConstMatrixView a,
                           linalg::ConstMatrixView b, linalg::MatrixView c,
                           const std::string& what) {
  try {
    multiply(a, b, c);
    ADD_FAILURE() << what << ": expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shares storage"), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(OutputAliasing, EveryEntryPointRejectsAnOutputSharingAnInput) {
  constexpr std::size_t n = 96;
  for (const auto& [name, multiply] : multiply_entry_points()) {
    Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
    expect_alias_rejected(multiply, a.view(), b.view(), a.view(),
                          name + " C == A");
    expect_alias_rejected(multiply, a.view(), b.view(), b.view(),
                          name + " C == B");
    // C overlaps the bottom-right part of A inside one larger matrix.
    Matrix m = random_matrix(2 * n, 2 * n, 3);
    expect_alias_rejected(multiply, m.block(0, 0, n, n), b.view(),
                          m.block(n / 2, n / 2, n, n),
                          name + " C a block of A");
  }
}

TEST(OutputAliasing, DisjointQuadrantsOfOneMatrixAreAccepted) {
  constexpr std::size_t n = 96;
  for (const auto& [name, multiply] : multiply_entry_points()) {
    Matrix m = random_matrix(2 * n, 2 * n, 4);
    const Matrix before = m;
    Matrix expect(n, n);
    blas::gemm_reference(before.block(0, 0, n, n), before.block(0, n, n, n),
                         expect.view());
    ASSERT_NO_THROW(
        multiply(m.block(0, 0, n, n), m.block(0, n, n, n), m.block(n, 0, n, n)))
        << name;
    EXPECT_TRUE(allclose(m.block(n, 0, n, n), expect.view(), 1e-10, 1e-10))
        << name;
    EXPECT_TRUE(allclose(m.block(0, 0, n, 2 * n), before.block(0, 0, n, 2 * n),
                         0.0, 0.0))
        << name;
    EXPECT_TRUE(allclose(m.block(n, n, n, n), before.block(n, n, n, n), 0.0,
                         0.0))
        << name;
  }
}

}  // namespace
}  // namespace capow
