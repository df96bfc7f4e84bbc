// Tests for the capow::matmul() facade, the shared algorithm registry,
// and the backend-pinned equivalence the redesign guarantees.
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

std::vector<std::string> labels(const sim::WorkProfile& wp) {
  std::vector<std::string> out;
  for (const sim::PhaseCost& ph : wp.phases) out.push_back(ph.label);
  return out;
}

// matmul_profile() is the selected algorithm's own cost model, fed the
// options the multiply reads: equal phase for phase at the defaults, and
// non-default cutoffs, Winograd and BFS depth reach the model.
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

  for (const unsigned t : {1u, 4u}) {
    MatmulOptions s;
    s.algorithm = AlgorithmId::kStrassen;
    s.strassen.base_cutoff = 32;
    s.strassen.winograd = true;
    const sim::WorkProfile tuned = matmul_profile(1024, spec, t, s);
    expect_same_profile(
        tuned, strassen::strassen_profile(
                   1024, spec, t, {.base_cutoff = 32, .winograd = true}));
    EXPECT_EQ(tuned.name, "strassen-winograd");
    EXPECT_NE(labels(tuned),
              labels(matmul_profile(1024, spec, t,
                                    {.algorithm = AlgorithmId::kStrassen})));

    MatmulOptions c;
    c.algorithm = AlgorithmId::kCaps;
    c.caps.bfs_cutoff_depth = 1;
    const sim::WorkProfile shallow = matmul_profile(1024, spec, t, c);
    expect_same_profile(shallow, capsalg::caps_profile(
                                     1024, spec, t, {.bfs_cutoff_depth = 1}));
    EXPECT_NE(labels(shallow),
              labels(matmul_profile(1024, spec, t,
                                    {.algorithm = AlgorithmId::kCaps})));
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

// The Strassen cutoff the multiply reads is the one the model charges:
// halving it adds a recursion level, so the model does 7/8 of the base
// flops again, and the totals follow the same options.
TEST(MatmulApi, ProfileReadsTheStrassenCutoff) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  for (const std::size_t cutoff : {32u, 64u, 128u}) {
    MatmulOptions opts;
    opts.algorithm = AlgorithmId::kStrassen;
    opts.strassen.base_cutoff = cutoff;
    const sim::WorkProfile wp = matmul_profile(1024, spec, 4, opts);
    EXPECT_DOUBLE_EQ(wp.total_flops(),
                     strassen::strassen_total_flops(1024, opts.strassen))
        << "cutoff " << cutoff;
  }
  MatmulOptions deep;
  deep.algorithm = AlgorithmId::kStrassen;
  deep.strassen.base_cutoff = 32;
  EXPECT_GT(labels(matmul_profile(1024, spec, 4, deep)).size(),
            labels(matmul_profile(1024, spec, 4,
                                  {.algorithm = AlgorithmId::kStrassen}))
                .size());
}

// CAPS reads both of its cutoffs: the base cutoff sets the recursion
// depth, the BFS depth how many of those levels fan out breadth-first.
TEST(MatmulApi, ProfileReadsTheCapsCutoffs) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  for (const std::size_t cutoff : {32u, 64u, 128u}) {
    for (const std::size_t depth : {0u, 2u, 4u}) {
      MatmulOptions opts;
      opts.algorithm = AlgorithmId::kCaps;
      opts.caps.base_cutoff = cutoff;
      opts.caps.bfs_cutoff_depth = depth;
      const sim::WorkProfile wp = matmul_profile(1024, spec, 4, opts);
      expect_same_profile(wp, capsalg::caps_profile(1024, spec, 4, opts.caps));
      EXPECT_DOUBLE_EQ(wp.total_flops(),
                       capsalg::caps_total_flops(1024, opts.caps))
          << cutoff << "/" << depth;
    }
  }
}

// What the models leave out (the kernel, arena, ABFT, backend and pool
// the multiply runs with) leaves the profile as it is.
TEST(MatmulApi, ProfileIgnoresWhatTheModelsDoNotModel) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  const blas::MicroKernel* generic =
      blas::find_kernel(blas::MicroKernelId::kGeneric);
  ASSERT_NE(generic, nullptr);
  blas::WorkspaceArena arena;
  tasking::ThreadPool pool(1);
  capsalg::CapsStats stats;
  for (const AlgorithmId a : core::kAllAlgorithms) {
    MatmulOptions plain;
    plain.algorithm = a;
    MatmulOptions dressed = plain;
    dressed.blocking = blas::default_blocking_for(*generic);
    dressed.pool = &pool;
    dressed.strassen.arena = &arena;
    dressed.strassen.base_kernel = blas::MicroKernelId::kGeneric;
    dressed.strassen.abft.mode = abft::AbftMode::kCorrect;
    dressed.caps.arena = &arena;
    dressed.caps.base_kernel = blas::MicroKernelId::kGeneric;
    dressed.caps.abft.mode = abft::AbftMode::kDetect;
    dressed.caps_stats = &stats;
    dressed.abft.mode = abft::AbftMode::kCorrect;
    expect_same_profile(matmul_profile(1024, spec, 4, dressed),
                        matmul_profile(1024, spec, 4, plain));
  }
}

// Each algorithm's model reads only its own options: CAPS tuning leaves
// the Strassen profile alone and Strassen tuning the CAPS one.
TEST(MatmulApi, ProfileIgnoresTheOtherAlgorithmsOptions) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  MatmulOptions tuned;
  tuned.strassen.base_cutoff = 32;
  tuned.strassen.winograd = true;
  tuned.caps.base_cutoff = 128;
  tuned.caps.bfs_cutoff_depth = 1;

  MatmulOptions s = tuned;
  s.algorithm = AlgorithmId::kStrassen;
  s.caps = {};
  tuned.algorithm = AlgorithmId::kStrassen;
  expect_same_profile(matmul_profile(1024, spec, 4, tuned),
                      matmul_profile(1024, spec, 4, s));

  MatmulOptions c = tuned;
  c.algorithm = AlgorithmId::kCaps;
  c.strassen = {};
  tuned.algorithm = AlgorithmId::kCaps;
  expect_same_profile(matmul_profile(1024, spec, 4, tuned),
                      matmul_profile(1024, spec, 4, c));

  tuned.algorithm = AlgorithmId::kOpenBlas;
  expect_same_profile(matmul_profile(1024, spec, 4, tuned),
                      blas::blocked_gemm_profile(1024, spec, 4));
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

TEST(MatmulFacade, ExplicitKernelSelection) {
  const std::size_t n = 80;
  Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  for (const auto& kern : blas::kernel_registry()) {
    if (!kern.supported()) continue;
    Matrix got(n, n);
    MatmulOptions opts;
    opts.blocking = blas::default_blocking_for(kern);
    EXPECT_EQ(matmul_kernel(opts), &kern);
    matmul(a.view(), b.view(), got.view(), opts);
    EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-11, 1e-11))
        << kern.name;
  }
}

TEST(MatmulFacade, MatmulKernelReportsResolution) {
  MatmulOptions opts;
  const blas::MicroKernel* k = matmul_kernel(opts);
  ASSERT_NE(k, nullptr);  // blocked GEMM always runs a microkernel
  EXPECT_TRUE(k->supported());

  opts.algorithm = AlgorithmId::kStrassen;
  // Default Strassen base case is the BOTS-style loop kernel (null),
  // unless the CAPOW_KERNEL environment pins one for the whole stack...
  const auto env = blas::env_kernel_override();
  const blas::MicroKernel* def = matmul_kernel(opts);
  if (env) {
    ASSERT_NE(def, nullptr);
    EXPECT_EQ(def->id, *env);
  } else {
    EXPECT_EQ(def, nullptr);
  }
  // ...until the algorithm option requests one.
  opts.strassen.base_kernel = blas::MicroKernelId::kGeneric;
  const blas::MicroKernel* sk = matmul_kernel(opts);
  ASSERT_NE(sk, nullptr);
  EXPECT_EQ(sk->id, blas::MicroKernelId::kGeneric);
}

TEST(MatmulFacade, CapsBaseKernelFollowsTheStrassenRule) {
  // CAPS resolves caps.base_kernel through the same rule as Strassen
  // (option, else CAPOW_KERNEL, else the BOTS loop) and ignores the
  // Strassen option.
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kCaps;
  EXPECT_EQ(matmul_kernel(opts), strassen::resolve_base_kernel(std::nullopt));
  for (const auto& kern : blas::kernel_registry()) {
    if (!kern.supported()) continue;
    opts.caps.base_kernel = kern.id;
    opts.strassen.base_kernel = blas::MicroKernelId::kGeneric;
    const blas::MicroKernel* k = matmul_kernel(opts);
    ASSERT_NE(k, nullptr) << kern.name;
    EXPECT_EQ(k, &kern);
    EXPECT_EQ(k, strassen::resolve_base_kernel(kern.id));
  }
}

TEST(MatmulFacade, CapsStatsFlowThrough) {
  const std::size_t n = 64;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix c(n, n);
  capsalg::CapsStats stats;
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kCaps;
  opts.caps.base_cutoff = 8;
  opts.caps.bfs_cutoff_depth = 2;
  opts.caps_stats = &stats;
  matmul(a.view(), b.view(), c.view(), opts);
  EXPECT_GT(stats.base_products, 0u);
  EXPECT_GT(stats.peak_buffer_bytes, 0u);
}

TEST(MatmulFacade, ParallelPoolThreadsThrough) {
  const std::size_t n = 192;
  Matrix a = random_matrix(n, n, 7), b = random_matrix(n, n, 8);
  Matrix serial(n, n), parallel(n, n);
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kStrassen;
  opts.strassen.base_cutoff = 32;
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
  strassen::StrassenOptions sopts;
  sopts.base_cutoff = 32;
  strassen::multiply(a.view(), b.view(), direct.view(), sopts);
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kStrassen;
  opts.strassen = sopts;
  opts.backend = backend::BackendId::kCpu;
  matmul(a.view(), b.view(), facade.view(), opts);
  EXPECT_TRUE(allclose(facade.view(), direct.view(), 0.0, 0.0));
}

TEST(BackendEquivalence, CpuBackendMatchesCapsBitwise) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 41), b = random_matrix(n, n, 42);
  Matrix direct(n, n), facade(n, n);
  capsalg::CapsOptions copts;
  copts.base_cutoff = 16;
  copts.bfs_cutoff_depth = 1;
  capsalg::multiply(a.view(), b.view(), direct.view(), copts);
  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kCaps;
  opts.caps = copts;
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

// ---------------------------------------------------------------------
// Resolve-time options validation: inconsistent kernel/blocking
// requests fail up front with the valid combinations in the message.
// ---------------------------------------------------------------------

TEST(MatmulValidation, UnknownBlockingTileRejectedWithListing) {
  MatmulOptions opts;
  opts.blocking = blas::BlockingParams{};
  opts.blocking->mr = 5;
  opts.blocking->nr = 3;
  try {
    Matrix a(8, 8), b(8, 8), c(8, 8);
    matmul(a.view(), b.view(), c.view(), opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5x3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("generic=4x4"), std::string::npos) << msg;
  }
}

TEST(MatmulValidation, ConsistentPinnedTileAccepted) {
  const blas::MicroKernel* generic =
      blas::find_kernel(blas::MicroKernelId::kGeneric);
  ASSERT_NE(generic, nullptr);
  MatmulOptions opts;
  opts.blocking = blas::default_blocking_for(*generic);
  EXPECT_NO_THROW(validate_options(opts));
  EXPECT_EQ(matmul_kernel(opts), generic);

  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 9), b = random_matrix(n, n, 10);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  matmul(a.view(), b.view(), got.view(), opts);
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-11, 1e-11));
}

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
