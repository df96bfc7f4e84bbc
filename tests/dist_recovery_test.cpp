// Tests for elastic recovery: rank.kill scheduling, the three
// RecoveryPolicy modes, failed-set agreement, conservation with
// discard accounting, and determinism of the recovered surface.
#include <cstring>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "capow/abft/abft.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/dist/summa.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"

namespace capow::dist {
namespace {

using linalg::Matrix;
using linalg::random_matrix;

bool bit_identical(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     x.rows() * x.cols() * sizeof(double)) == 0;
}

struct SummaRun {
  Matrix c;
  RecoveryReport report;
  CommMatrix cumulative;
  CommMatrix final_generation;
  /// ctx.failed_ranks each physical rank observed in its last recovered
  /// generation (empty for ranks that never ran a recovered generation).
  std::vector<std::vector<int>> observed_failed;
};

/// Elastic SUMMA under `policy`, optionally with a fault spec armed.
SummaRun run_summa(int ranks, std::size_t n, RecoveryPolicy policy,
                   const std::string& faults, const Matrix& a,
                   const Matrix& b) {
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> scope;
  if (!faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(faults));
    scope = std::make_unique<fault::FaultScope>(*injector);
  }
  SummaRun out;
  out.c = Matrix(n, n);
  out.observed_failed.resize(static_cast<std::size_t>(ranks));
  std::mutex observed_mutex;

  World world(ranks);
  RecoveryOptions opts;
  opts.policy = policy;
  PanelCacheSet cache(ranks);
  abft::AbftConfig cfg;
  cfg.mode = abft::AbftMode::kCorrect;

  out.report = world.run_elastic(
      opts, [&](Communicator& comm, const RecoveryContext& ctx) {
        if (ctx.recovered()) {
          const std::lock_guard<std::mutex> lock(observed_mutex);
          out.observed_failed[static_cast<std::size_t>(comm.phys())] =
              ctx.failed_ranks;
        }
        Matrix empty;
        const bool root = comm.rank() == 0;
        summa_multiply(comm, GridSpec::largest_square(n, comm.size()),
                       root ? a.view() : empty.view(),
                       root ? b.view() : empty.view(),
                       root ? out.c.view() : empty.view(), cfg, ctx, &cache);
      });
  out.cumulative = world.comm_stats();
  out.final_generation = world.final_generation_stats();
  return out;
}

Matrix run_dist_caps(int ranks, std::size_t n, RecoveryPolicy policy,
                     const std::string& faults, const Matrix& a,
                     const Matrix& b, RecoveryReport* report = nullptr) {
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> scope;
  if (!faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(faults));
    scope = std::make_unique<fault::FaultScope>(*injector);
  }
  Matrix c(n, n);
  World world(ranks);
  RecoveryOptions opts;
  opts.policy = policy;
  DistCapsOptions copts;
  copts.local.base_cutoff = 16;
  const RecoveryReport rep = world.run_elastic(
      opts, [&](Communicator& comm, const RecoveryContext&) {
        Matrix empty;
        const bool root = comm.rank() == 0;
        dist_caps_multiply(comm, root ? a.view() : empty.view(),
                           root ? b.view() : empty.view(),
                           root ? c.view() : empty.view(), copts);
      });
  if (report != nullptr) *report = rep;
  return c;
}

// --- WorldOptions validation (constructor-time policy checks) --------

TEST(WorldOptions, RejectsNonPositiveKnobs) {
  WorldOptions bad_timeout;
  bad_timeout.recv_timeout_seconds = 0.0;
  EXPECT_THROW(World(2, bad_timeout), std::invalid_argument);
  bad_timeout.recv_timeout_seconds = -1.0;
  EXPECT_THROW(World(2, bad_timeout), std::invalid_argument);

  WorldOptions bad_attempts;
  bad_attempts.max_send_attempts = 0;
  EXPECT_THROW(World(2, bad_attempts), std::invalid_argument);
  bad_attempts.max_send_attempts = -3;
  EXPECT_THROW(World(2, bad_attempts), std::invalid_argument);

  WorldOptions bad_backoff;
  bad_backoff.retry_backoff_us = 0.0;
  EXPECT_THROW(World(2, bad_backoff), std::invalid_argument);
  bad_backoff.retry_backoff_us = -50.0;
  EXPECT_THROW(World(2, bad_backoff), std::invalid_argument);

  EXPECT_NO_THROW(World(2, WorldOptions{}));
}

// --- abort: run() semantics are preserved ----------------------------

TEST(RankKill, PlainRunSurfacesRankKilledAsRootCause) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("rank.kill=1/3@2,seed=5"));
  fault::FaultScope scope(injector);
  World world(3);
  try {
    world.run([](Communicator& comm) {
      comm.barrier();  // epoch 1 everywhere
      comm.barrier();  // rank 1 dies here; peers get CommError
    });
    FAIL() << "expected RankKilled";
  } catch (const RankKilled& e) {
    // The kill is the root cause; the secondary CommErrors it triggered
    // in the blocked peers must not shadow it.
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos);
  }
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{1});
  EXPECT_EQ(injector.count(fault::Event::kRankKill), 1u);
}

TEST(RankKill, AbortPolicyRethrowsLikeRun) {
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  EXPECT_THROW(
      run_summa(4, n, RecoveryPolicy::kAbort, "rank.kill=2/4@5,seed=42", a, b),
      RankKilled);
}

TEST(RankKill, MultiVictimAbortPicksLowestRankRootCause) {
  // Two ranks die at the same epoch; the rethrown root cause must be
  // rank 1's (lowest physical rank), deterministically — not whichever
  // thread lost the race.
  fault::FaultInjector injector(fault::FaultPlan::parse(
      "rank.kill=1/4@2,rank.kill=2/4@2,seed=5"));
  fault::FaultScope scope(injector);
  for (int attempt = 0; attempt < 5; ++attempt) {
    World world(4);
    try {
      world.run([](Communicator& comm) {
        comm.barrier();
        comm.barrier();
      });
      FAIL() << "expected RankKilled";
    } catch (const RankKilled& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(world.failed_ranks(), (std::vector<int>{1, 2}));
  }
}

// --- respawn: bit-identical recovery ---------------------------------

TEST(Respawn, SummaRecoversBitIdenticalToFaultFree) {
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  const SummaRun baseline =
      run_summa(4, n, RecoveryPolicy::kRespawn, "", a, b);
  ASSERT_FALSE(baseline.report.recovered);

  reset_recovery_counters();
  const SummaRun chaos = run_summa(4, n, RecoveryPolicy::kRespawn,
                                   "rank.kill=2/4@5,seed=42", a, b);
  EXPECT_TRUE(chaos.report.recovered);
  EXPECT_EQ(chaos.report.recoveries, 1);
  EXPECT_EQ(chaos.report.failed_ranks, std::vector<int>{2});
  EXPECT_TRUE(bit_identical(chaos.c, baseline.c));
  EXPECT_TRUE(chaos.cumulative.conserved());
  EXPECT_EQ(rank_failures_total(), 1u);
  EXPECT_EQ(recoveries_total(), 1u);
  // Every survivor (and the respawned rank) agreed on the same failed
  // set through the in-band bitmap round.
  for (const auto& observed : chaos.observed_failed) {
    EXPECT_EQ(observed, std::vector<int>{2});
  }
}

TEST(Respawn, DistCapsRecoversBitIdenticalEvenWhenRootDies) {
  const std::size_t n = 64;
  Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  const Matrix baseline =
      run_dist_caps(4, n, RecoveryPolicy::kRespawn, "", a, b);
  RecoveryReport report;
  const Matrix chaos = run_dist_caps(4, n, RecoveryPolicy::kRespawn,
                                     "rank.kill=0/4@3,seed=7", a, b, &report);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.failed_ranks, std::vector<int>{0});
  EXPECT_TRUE(bit_identical(chaos, baseline));
}

TEST(Respawn, AdjacentVictimsFallBackToRescatterAndStayBitIdentical) {
  // Victims 1 and 2 are buddies (1's replica lives on 2), so the panel
  // cache cannot cover the failed set; the elastic kernel must fall
  // back to a full re-scatter — and still recompute bit-identically.
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  const SummaRun baseline =
      run_summa(4, n, RecoveryPolicy::kRespawn, "", a, b);
  const SummaRun chaos =
      run_summa(4, n, RecoveryPolicy::kRespawn,
                "rank.kill=1/4@5,rank.kill=2/4@5,seed=42", a, b);
  EXPECT_TRUE(chaos.report.recovered);
  EXPECT_EQ(chaos.report.failed_ranks, (std::vector<int>{1, 2}));
  EXPECT_TRUE(bit_identical(chaos.c, baseline.c));
  EXPECT_TRUE(chaos.cumulative.conserved());
}

// --- shrink: correct on the survivors --------------------------------

TEST(Shrink, SummaCorrectOnSurvivors) {
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());

  const SummaRun chaos = run_summa(4, n, RecoveryPolicy::kShrink,
                                   "rank.kill=1/4@5,seed=42", a, b);
  EXPECT_TRUE(chaos.report.recovered);
  EXPECT_EQ(chaos.report.failed_ranks, std::vector<int>{1});
  EXPECT_TRUE(linalg::allclose(chaos.c.view(), expect.view(), 1e-9, 1e-9));
  EXPECT_TRUE(chaos.cumulative.conserved());
  // The dead rank never observes a recovered generation; the survivors
  // all agreed on {1}.
  EXPECT_TRUE(chaos.observed_failed[1].empty());
  for (int phys : {0, 2, 3}) {
    EXPECT_EQ(chaos.observed_failed[static_cast<std::size_t>(phys)],
              std::vector<int>{1})
        << "phys " << phys;
  }
}

TEST(Shrink, DistCapsRecoversWhenRootDies) {
  const std::size_t n = 64;
  Matrix a = random_matrix(n, n, 3), b = random_matrix(n, n, 4);
  Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  RecoveryReport report;
  const Matrix chaos = run_dist_caps(4, n, RecoveryPolicy::kShrink,
                                     "rank.kill=0/4@3,seed=7", a, b, &report);
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.failed_ranks, std::vector<int>{0});
  EXPECT_TRUE(linalg::allclose(chaos.view(), expect.view(), 1e-9, 1e-9));
}

TEST(Shrink, MultiVictimFailedSetAndFinalSurfaceAreDeterministic) {
  // Satellite 4: fixed seed, two independent executions -> identical
  // agreed failed set, identical final-generation comm matrix, and
  // bit-identical output.
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  const auto execute = [&] {
    return run_summa(4, n, RecoveryPolicy::kShrink,
                     "rank.kill=1/4@5,rank.kill=3/4@5,seed=42", a, b);
  };
  const SummaRun first = execute();
  const SummaRun second = execute();
  EXPECT_EQ(first.report.failed_ranks, (std::vector<int>{1, 3}));
  EXPECT_EQ(second.report.failed_ranks, first.report.failed_ranks);
  EXPECT_TRUE(bit_identical(first.c, second.c));
  EXPECT_TRUE(
      first.final_generation.deterministic_equal(second.final_generation));
  EXPECT_EQ(first.observed_failed, second.observed_failed);
}

// --- conservation with discard accounting ----------------------------

TEST(Recovery, FlushedStaleTrafficKeepsConservation) {
  // Rank 1 delivers one message to rank 0 (who never receives it) and
  // dies at its second operation. The recovery flush must account the
  // orphaned delivery as discarded so the cumulative matrix still
  // closes: delivered == received + discarded, dead rank's row retained.
  fault::FaultInjector injector(
      fault::FaultPlan::parse("rank.kill=1/4@2,seed=5"));
  fault::FaultScope scope(injector);
  World world(4);
  RecoveryOptions opts;
  opts.policy = RecoveryPolicy::kShrink;
  world.run_elastic(opts, [](Communicator& comm, const RecoveryContext& ctx) {
    if (ctx.recovered()) return;
    if (comm.rank() == 1) {
      comm.send(0, 77, std::vector<double>{1.0, 2.0, 3.0});  // epoch 1
    }
    comm.barrier();  // rank 1 dies at epoch 2; rank 0 never recvs 77
  });
  const CommMatrix& m = world.comm_stats();
  EXPECT_EQ(m.edge(1, 0).messages, 1u);
  EXPECT_EQ(m.edge(1, 0).recv_messages, 0u);
  EXPECT_EQ(m.edge(1, 0).discarded_messages, 1u);
  EXPECT_EQ(m.edge(1, 0).discarded_bytes, 3u * sizeof(double));
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{1});
}

// --- satellite 2: send backoff aborts on world death -----------------

TEST(Recovery, SendBackoffAbortsWhenWorldDies) {
  // Every delivery drops, so the send enters its retry ladder — with
  // this backoff the full schedule would sleep for minutes. Rank 1
  // fails immediately; the sender must observe the poisoned world
  // during its backoff sleep and abort in ~milliseconds, not sleep the
  // ladder out.
  fault::FaultInjector injector(
      fault::FaultPlan::parse("comm.drop=1,seed=3"));
  fault::FaultScope scope(injector);
  WorldOptions options;
  options.retry_backoff_us = 500000.0;  // 0.5 s first step, doubling
  World world(2, options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 9, std::vector<double>{1.0});
                 } else {
                   throw std::runtime_error("rank1 dies");
                 }
               }),
               std::runtime_error);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 5.0) << "sender slept out its backoff ladder";
}

// --- clean elastic runs ----------------------------------------------

TEST(Recovery, CleanElasticRunReportsNoRecovery) {
  const std::size_t n = 48;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  const SummaRun run = run_summa(4, n, RecoveryPolicy::kRespawn, "", a, b);
  EXPECT_FALSE(run.report.recovered);
  EXPECT_EQ(run.report.recoveries, 0);
  EXPECT_TRUE(run.report.failed_ranks.empty());
  EXPECT_EQ(run.report.recovery_ns, 0u);

  Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  EXPECT_TRUE(linalg::allclose(run.c.view(), expect.view(), 1e-9, 1e-9));
}

TEST(RecoveryPolicy, NamesRoundTrip) {
  for (RecoveryPolicy p : {RecoveryPolicy::kAbort, RecoveryPolicy::kShrink,
                           RecoveryPolicy::kRespawn}) {
    EXPECT_EQ(parse_recovery_policy(recovery_policy_name(p)), p);
  }
  EXPECT_THROW(parse_recovery_policy("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace capow::dist
