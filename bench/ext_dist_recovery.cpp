// EXT — elastic recovery: what surviving a rank death costs. The
// recovery-latency lane times the full respawn pipeline (detect the
// kill, flush stale traffic, agree on the failed set, restore the dead
// rank's panels from its buddy, recompute) against the fault-free
// baseline of the identical elastic kernel call; the degraded-throughput
// lane measures what a shrink recovery's smaller survivor set does to
// sustained multiply throughput. Counters land in the bench JSONL so
// capow-bench-diff gates recovery-latency regressions like any other
// lane.
#include <chrono>
#include <memory>

#include "bench_common.hpp"
#include "capow/abft/abft.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/dist/summa.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"

namespace {

using namespace capow;

struct ElasticRun {
  dist::RecoveryReport report;
  double seconds = 0.0;
  bool correct = false;
};

/// One elastic SUMMA execution under `policy`; when `faults` is
/// non-empty the spec is armed for the run (a fresh World each call, so
/// the generation-0 kill fires every time).
ElasticRun run_summa_elastic(int ranks, std::size_t n,
                             dist::RecoveryPolicy policy,
                             const std::string& faults,
                             const linalg::Matrix& a, const linalg::Matrix& b,
                             const linalg::Matrix& expect) {
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> scope;
  if (!faults.empty()) {
    injector =
        std::make_unique<fault::FaultInjector>(fault::FaultPlan::parse(faults));
    scope = std::make_unique<fault::FaultScope>(*injector);
  }
  linalg::Matrix c(n, n);
  dist::World world(ranks);
  dist::RecoveryOptions opts;
  opts.policy = policy;
  dist::PanelCacheSet cache(ranks);
  abft::AbftConfig cfg;
  cfg.mode = abft::AbftMode::kCorrect;

  ElasticRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.report = world.run_elastic(
      opts, [&](dist::Communicator& comm, const dist::RecoveryContext& ctx) {
        linalg::Matrix empty;
        const bool root = comm.rank() == 0;
        dist::summa_multiply(
            comm, dist::GridSpec::largest_square(n, comm.size()),
            root ? a.view() : empty.view(), root ? b.view() : empty.view(),
            root ? c.view() : empty.view(), cfg, ctx, &cache);
      });
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.correct = linalg::allclose(c.view(), expect.view(), 1e-9, 1e-9);
  return out;
}

void print_reproduction() {
  bench::banner("EXT (robustness)",
                "elastic recovery: surviving rank death online");
  const int ranks = 4;
  const std::size_t n = 96;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  std::printf("\nworkload: elastic SUMMA, %d ranks, n=%zu, victim rank 2\n\n",
              ranks, n);

  harness::TextTable table({"scenario", "policy", "recoveries", "failed",
                            "recovery (ms)", "total (ms)", "correct"});
  const auto add = [&](const char* scenario, dist::RecoveryPolicy policy,
                       const std::string& faults) {
    const ElasticRun run =
        run_summa_elastic(ranks, n, policy, faults, a, b, expect);
    std::string failed;
    for (int r : run.report.failed_ranks) {
      if (!failed.empty()) failed += ",";
      failed += std::to_string(r);
    }
    table.add_row({scenario, dist::recovery_policy_name(policy),
                   std::to_string(run.report.recoveries),
                   failed.empty() ? "-" : failed,
                   harness::fmt(static_cast<double>(run.report.recovery_ns) /
                                    1e6,
                                3),
                   harness::fmt(run.seconds * 1e3, 2),
                   run.correct ? "yes" : "NO"});
  };
  add("fault-free", dist::RecoveryPolicy::kRespawn, "");
  add("kill rank 2", dist::RecoveryPolicy::kRespawn,
      "rank.kill=2/4@5,seed=42");
  add("kill rank 2", dist::RecoveryPolicy::kShrink, "rank.kill=2/4@5,seed=42");
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nreading: respawn pays one detection + panel-restore round and\n"
      "recomputes on the full grid (bit-identical output); shrink skips\n"
      "the restore but recomputes on fewer ranks — the degraded-\n"
      "throughput lane below prices that loss per multiply.\n");
}

// Recovery latency: full respawn pipeline per iteration. The JSONL
// counters are the regression surface — recovery_ms is the span from
// the generation-0 abort to the start of the recomputation.
void BM_RecoveryLatency(benchmark::State& state) {
  const int ranks = 4;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  std::uint64_t recovery_ns = 0, recoveries = 0;
  for (auto _ : state) {
    const ElasticRun run = run_summa_elastic(
        ranks, n, dist::RecoveryPolicy::kRespawn, "rank.kill=2/4@5,seed=42",
        a, b, expect);
    if (!run.correct || run.report.recoveries != 1) {
      state.SkipWithError("recovery did not complete correctly");
      break;
    }
    recovery_ns += run.report.recovery_ns;
    recoveries += static_cast<std::uint64_t>(run.report.recoveries);
  }
  state.counters["recovery_ms"] = benchmark::Counter(
      static_cast<double>(recovery_ns) / 1e6, benchmark::Counter::kAvgIterations);
  state.counters["recoveries"] = benchmark::Counter(
      static_cast<double>(recoveries), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RecoveryLatency)->Arg(48)->Arg(96)
    ->Unit(benchmark::kMillisecond);

// Degraded throughput: sustained multiply rate on the membership a
// shrink recovery leaves behind (range(0) = surviving ranks) vs the
// full world. Runs the elastic SUMMA call fault-free on a world of
// that size — exactly the steady state after the recovery transition.
void BM_ShrinkDegradedThroughput(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t n = 96;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix expect(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  for (auto _ : state) {
    const ElasticRun run = run_summa_elastic(
        ranks, n, dist::RecoveryPolicy::kShrink, "", a, b, expect);
    if (!run.correct) {
      state.SkipWithError("multiply incorrect");
      break;
    }
  }
  state.counters["ranks"] =
      benchmark::Counter(static_cast<double>(ranks));
  state.counters["multiplies_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShrinkDegradedThroughput)->Arg(4)->Arg(3)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
