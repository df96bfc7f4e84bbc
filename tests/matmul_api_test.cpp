// Tests for the capow::matmul() facade, the shared algorithm registry,
// and the facade's bit-identity with each algorithm's entry point.
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/api/matmul.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/core/algorithms.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/serve/server.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/telemetry/tracer.hpp"

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

// What the models leave out (the pool and ABFT the multiply runs with)
// leaves the profile as it is.
TEST(MatmulApi, ProfileIgnoresWhatTheModelsDoNotModel) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  tasking::ThreadPool pool(1);
  for (const AlgorithmId a : core::kAllAlgorithms) {
    MatmulOptions plain;
    plain.algorithm = a;
    MatmulOptions dressed = plain;
    dressed.pool = &pool;
    dressed.abft.mode = abft::AbftMode::kCorrect;
    expect_same_profile(matmul_profile(1024, spec, 4, dressed),
                        matmul_profile(1024, spec, 4, plain));
  }
}

// The structured binding compiles only while MatmulOptions holds
// exactly these three members.
TEST(MatmulApi, OptionsHoldOnlyAlgorithmPoolAndAbft) {
  const MatmulOptions opts;
  const auto& [algorithm, pool, abft_cfg] = opts;
  EXPECT_EQ(algorithm, AlgorithmId::kOpenBlas);
  EXPECT_EQ(pool, nullptr);
  EXPECT_FALSE(abft_cfg.mode.has_value());
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

// matmul() runs on the host: it leases every buffer from the process
// arena (as many leases as its entry point takes from a private arena)
// and returns each before it returns.
TEST(MatmulFacade, LeasesOnlyFromTheProcessArenaAndReturnsEveryLease) {
  const std::size_t n = 192;
  Matrix a = random_matrix(n, n, 61), b = random_matrix(n, n, 62);
  Matrix c(n, n);
  blas::WorkspaceArena& process = blas::WorkspaceArena::process_arena();
  const abft::AbftConfig off{.mode = abft::AbftMode::kOff};
  for (const AlgorithmId id : core::kAllAlgorithms) {
    blas::WorkspaceArena own;
    if (id == AlgorithmId::kOpenBlas) {
      blas::GemmOptions g;
      g.arena = &own;
      blas::gemm(a.view(), b.view(), c.view(), g);
    } else if (id == AlgorithmId::kStrassen) {
      strassen::multiply(a.view(), b.view(), c.view(),
                         {.arena = &own, .abft = off});
    } else {
      capsalg::multiply(a.view(), b.view(), c.view(),
                        {.arena = &own, .abft = off});
    }
    const blas::ArenaStats before = process.stats();
    matmul(a.view(), b.view(), c.view(), {.algorithm = id, .abft = off});
    const blas::ArenaStats after = process.stats();
    EXPECT_GT(own.stats().acquires, 0u) << core::algorithm_name(id);
    EXPECT_EQ(after.acquires - before.acquires, own.stats().acquires)
        << core::algorithm_name(id);
    EXPECT_EQ(after.outstanding_bytes, 0u) << core::algorithm_name(id);
  }
}

// Concurrent matmul() calls share the process arena: each thread gets
// the serial result bit for bit, and no lease outlives the calls.
TEST(MatmulFacade, ConcurrentCallsReturnEveryLease) {
  const std::size_t n = 128;
  const Matrix a = random_matrix(n, n, 71), b = random_matrix(n, n, 72);
  const abft::AbftConfig off{.mode = abft::AbftMode::kOff};
  std::vector<Matrix> expect;
  for (const AlgorithmId id : core::kAllAlgorithms) {
    expect.emplace_back(n, n);
    matmul(a.view(), b.view(), expect.back().view(),
           {.algorithm = id, .abft = off});
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<Matrix>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const AlgorithmId id : core::kAllAlgorithms) {
        got[t].emplace_back(n, n);
        matmul(a.view(), b.view(), got[t].back().view(),
               {.algorithm = id, .abft = off});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(blas::WorkspaceArena::process_arena().stats().outstanding_bytes,
            0u);
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(std::memcmp(got[t][i].data(), expect[i].data(),
                            n * n * sizeof(double)),
                0)
          << "thread " << t << ", "
          << core::algorithm_name(core::kAllAlgorithms[i]);
    }
  }
}

// The matmul span carries the algorithm and the resolved kernel, and
// nothing else.
TEST(MatmulFacade, SpanCarriesTheAlgorithmAndKernelOnly) {
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, n, 73), b = random_matrix(n, n, 74);
  Matrix c(n, n);
  const MatmulOptions opts{.algorithm = AlgorithmId::kStrassen};
  telemetry::Tracer tracer;
  {
    telemetry::TracingScope scope(tracer);
    matmul(a.view(), b.view(), c.view(), opts);
  }
  const blas::MicroKernel* kern = matmul_kernel(opts);
  int spans = 0;
  for (const telemetry::TraceEvent& e : tracer.collect()) {
    if (std::string(e.rec.name) != "matmul") continue;
    ++spans;
    ASSERT_STREQ(e.rec.arg_name[0], "algorithm");
    EXPECT_EQ(e.rec.arg[0], static_cast<int>(AlgorithmId::kStrassen));
    ASSERT_STREQ(e.rec.arg_name[1], "kernel");
    EXPECT_EQ(e.rec.arg[1], kern != nullptr ? static_cast<int>(kern->id) : -1);
    EXPECT_EQ(e.rec.arg_name[2], nullptr);
  }
  EXPECT_EQ(spans, 1);
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
  entries.emplace_back("abft::guarded_gemm", [](auto a, auto b, auto c) {
    abft::guarded_gemm(a, b, c, {}, {.mode = abft::AbftMode::kCorrect});
  });
  entries.emplace_back("blas::gemm_reference", [](auto a, auto b, auto c) {
    blas::gemm_reference(a, b, c);
  });
  // serve_one prices an n x n request, so the wrapper asks for A's rows.
  // Operands that are not that product are rejected (kOversized) rather
  // than thrown on; the wrapper surfaces any rejection as the
  // std::invalid_argument the other entry points throw.
  entries.emplace_back("serve::Server::serve_one", [](auto a, auto b, auto c) {
    serve::Server server{serve::ServeOptions{}};
    serve::Request req;
    req.n = a.rows();
    req.tier = serve::QosTier::kGuaranteed;
    if (server.serve_one(req, a, b, c) != serve::Outcome::kCompleted) {
      throw std::invalid_argument(
          std::string("serve_one rejected: ") +
          serve::reject_reason_name(server.last_reject_reason()));
    }
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

// Each bad operand set is rejected before any work: std::invalid_argument,
// C's bytes untouched, and every arena lease returned.
TEST(OperandContract, EveryEntryPointRejectsBadShapesBeforeAnyWork) {
  constexpr std::size_t n = 96;
  struct Case {
    const char* what;
    std::size_t a_rows, a_cols, b_rows, b_cols, c_rows, c_cols;
    bool square_only;  // rejected only by the square-only entry points
  };
  const Case cases[] = {
      {"inner dimension mismatch", n, n, n - 16, n, n, n, false},
      {"wrong C shape", n, n, n, n, n, n - 16, false},
      {"non-square operands", n, n - 16, n - 16, n, n, n, true},
  };
  // The entry points that take square operands only; the others run any
  // m x k by k x n product.
  const std::set<std::string> square_only_entries{
      "matmul/strassen", "matmul/caps", "strassen::multiply",
      "capsalg::multiply", "serve::Server::serve_one"};
  const blas::WorkspaceArena& arena = blas::WorkspaceArena::process_arena();
  for (const auto& [name, multiply] : multiply_entry_points()) {
    const bool square_only = square_only_entries.count(name) > 0;
    for (const Case& k : cases) {
      const Matrix a = random_matrix(k.a_rows, k.a_cols, 5);
      const Matrix b = random_matrix(k.b_rows, k.b_cols, 6);
      Matrix c = random_matrix(k.c_rows, k.c_cols, 7);
      const Matrix c_before = c;
      if (k.square_only && !square_only) {
        ASSERT_NO_THROW(multiply(a.view(), b.view(), c.view()))
            << name << ": " << k.what;
        Matrix expect(k.c_rows, k.c_cols);
        blas::gemm_reference(a.view(), b.view(), expect.view());
        EXPECT_TRUE(allclose(c.view(), expect.view(), 1e-10, 1e-10)) << name;
        continue;
      }
      EXPECT_THROW(multiply(a.view(), b.view(), c.view()),
                   std::invalid_argument)
          << name << ": " << k.what;
      EXPECT_EQ(std::memcmp(c.data(), c_before.data(),
                            c.size() * sizeof(double)),
                0)
          << name << ": " << k.what;
      EXPECT_EQ(arena.stats().outstanding_bytes, 0u)
          << name << ": " << k.what;
    }
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
