// Tests for capowd, the overload-safe matmul service (src/capow/serve):
// the joules token bucket and degradation ladder, the bounded two-tier
// queue, the memoized cost predictor, the seeded load generator, and
// the serve engine's determinism / deadline / fault-injection contracts.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capow/api/matmul.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/linalg/random.hpp"
#include "capow/serve/server.hpp"
#include "capow/sim/executor.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/telemetry/export.hpp"

namespace capow::serve {
namespace {

// ---------------------------------------------------------------------------
// EnergyBudget: the joules token bucket

EnergyBudgetOptions bucket_opts() {
  EnergyBudgetOptions o;
  o.budget_w = 10.0;  // capacity defaults to 2 s of budget = 20 J
  return o;
}

TEST(EnergyBudget, DisabledBucketAdmitsEverything) {
  EnergyBudget b(EnergyBudgetOptions{});  // budget_w == 0
  EXPECT_FALSE(b.enabled());
  EXPECT_TRUE(b.try_debit(1e9, QosTier::kBestEffort));
  EXPECT_DOUBLE_EQ(b.fill_ratio(), 1.0);
  EXPECT_EQ(b.level(), DegradeLevel::kNone);
}

TEST(EnergyBudget, RefillsAtBudgetRateUpToCapacity) {
  EnergyBudget b(bucket_opts());
  EXPECT_DOUBLE_EQ(b.capacity_j(), 20.0);
  ASSERT_TRUE(b.try_debit(10.0, QosTier::kGuaranteed));
  EXPECT_DOUBLE_EQ(b.fill_j(), 10.0);
  b.advance(0.5);  // +5 J
  EXPECT_DOUBLE_EQ(b.fill_j(), 15.0);
  b.advance(0.3);  // earlier than the bucket clock: ignored
  EXPECT_DOUBLE_EQ(b.fill_j(), 15.0);
  b.advance(10.0);  // refill saturates at capacity
  EXPECT_DOUBLE_EQ(b.fill_j(), 20.0);
}

TEST(EnergyBudget, ReserveIsReadableOnlyByGuaranteedTraffic) {
  EnergyBudget b(bucket_opts());
  EXPECT_DOUBLE_EQ(b.reserve_j(), 5.0);  // 0.25 * 20 J
  // Best-effort may not take the fill below the reserve...
  EXPECT_FALSE(b.try_debit(16.0, QosTier::kBestEffort));
  EXPECT_DOUBLE_EQ(b.fill_j(), 20.0);  // refused debit leaves no trace
  EXPECT_TRUE(b.try_debit(15.0, QosTier::kBestEffort));
  EXPECT_DOUBLE_EQ(b.fill_j(), 5.0);
  // ...while guaranteed draws straight through it.
  EXPECT_TRUE(b.try_debit(8.0, QosTier::kGuaranteed));
  EXPECT_DOUBLE_EQ(b.fill_j(), -3.0);
}

TEST(EnergyBudget, GuaranteedOverdraftIsBoundedAtMinusCapacity) {
  EnergyBudget b(bucket_opts());
  ASSERT_TRUE(b.try_debit(23.0, QosTier::kGuaranteed));
  EXPECT_DOUBLE_EQ(b.fill_j(), -3.0);
  EXPECT_FALSE(b.try_debit(18.0, QosTier::kGuaranteed));  // -21 < -20
  EXPECT_TRUE(b.try_debit(17.0, QosTier::kGuaranteed));   // lands on -20
  EXPECT_DOUBLE_EQ(b.fill_j(), -20.0);
  EXPECT_DOUBLE_EQ(b.fill_ratio(), 0.0);
  EXPECT_EQ(b.level(), DegradeLevel::kShed);
}

TEST(EnergyBudget, LadderEscalatesImmediatelyAndRecoversWithHysteresis) {
  EnergyBudget b(bucket_opts());  // thresholds 0.60 / 0.40 / 0.20, h 0.05
  ASSERT_TRUE(b.try_debit(9.0, QosTier::kGuaranteed));  // ratio 0.55
  EXPECT_EQ(b.level(), DegradeLevel::kEco);
  ASSERT_TRUE(b.try_debit(3.5, QosTier::kGuaranteed));  // ratio 0.375
  EXPECT_EQ(b.level(), DegradeLevel::kAbftRelax);
  ASSERT_TRUE(b.try_debit(4.5, QosTier::kGuaranteed));  // ratio 0.15
  EXPECT_EQ(b.level(), DegradeLevel::kShed);
  // De-escalation re-arms only past threshold + hysteresis, one rung at
  // a time: 0.255 clears shed's 0.25 gate but not abft_relax's 0.45.
  b.refund(2.1);
  EXPECT_EQ(b.level(), DegradeLevel::kAbftRelax);
  b.refund(4.0);  // ratio 0.455 > 0.45
  EXPECT_EQ(b.level(), DegradeLevel::kEco);
  b.refund(4.0);  // ratio 0.655 > 0.65
  EXPECT_EQ(b.level(), DegradeLevel::kNone);
  // Escalation skips rungs when the drop is deep enough.
  EnergyBudget b2(bucket_opts());
  ASSERT_TRUE(b2.try_debit(17.0, QosTier::kGuaranteed));  // ratio 0.15
  EXPECT_EQ(b2.level(), DegradeLevel::kShed);
}

TEST(EnergyBudget, RejectsInconsistentOptions) {
  EnergyBudgetOptions bad = bucket_opts();
  bad.reserve_fraction = 1.0;
  EXPECT_THROW(EnergyBudget{bad}, std::invalid_argument);
  bad = bucket_opts();
  bad.shed_below = 0.5;  // above abft_relax_below
  EXPECT_THROW(EnergyBudget{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TierQueue: bounded, guaranteed-first

QueuedRequest queued(std::uint64_t id, QosTier tier, double arrival_s = 0.0,
                     double deadline_s = 0.0) {
  QueuedRequest qr;
  qr.request.id = id;
  qr.request.tier = tier;
  qr.request.arrival_s = arrival_s;
  qr.request.deadline_s = deadline_s;
  return qr;
}

TEST(TierQueue, EachTierIsBoundedIndependently) {
  TierQueue q(2);
  EXPECT_TRUE(q.push(queued(1, QosTier::kBestEffort)));
  EXPECT_TRUE(q.push(queued(2, QosTier::kBestEffort)));
  EXPECT_FALSE(q.push(queued(3, QosTier::kBestEffort)));
  // The guaranteed lane still has room.
  EXPECT_TRUE(q.push(queued(4, QosTier::kGuaranteed)));
  EXPECT_EQ(q.total_size(), 3u);
}

TEST(TierQueue, PopIsGuaranteedFirstThenFifo) {
  TierQueue q(8);
  q.push(queued(1, QosTier::kBestEffort));
  q.push(queued(2, QosTier::kGuaranteed));
  q.push(queued(3, QosTier::kBestEffort));
  q.push(queued(4, QosTier::kGuaranteed));
  std::vector<std::uint64_t> order;
  while (auto qr = q.pop()) order.push_back(qr->request.id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 1, 3}));
}

TEST(TierQueue, TakeExpiredRemovesOnlyDueEntries) {
  TierQueue q(8);
  q.push(queued(1, QosTier::kBestEffort, 0.0, 1.0));  // due at t=1
  q.push(queued(2, QosTier::kBestEffort, 0.0, 5.0));  // due at t=5
  q.push(queued(3, QosTier::kGuaranteed, 0.0, 0.0));  // no deadline
  const auto expired = q.take_expired(2.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.id, 1u);
  EXPECT_EQ(q.total_size(), 2u);
}

// ---------------------------------------------------------------------------
// CostPredictor: Eq (9) gate and eco objective

TEST(CostPredictor, NormalChoiceAppliesTheCrossoverGate) {
  CostPredictor p(machine::haswell_e3_1225(), 4);
  ASSERT_GT(p.crossover_n(), 96.0);
  // Below the Eq (9) crossover the recursive algorithms are gated out.
  EXPECT_EQ(p.choose(96, /*eco=*/false).algorithm,
            core::AlgorithmId::kOpenBlas);
}

TEST(CostPredictor, EcoChoiceMinimizesPredictedJoules) {
  CostPredictor p(machine::haswell_e3_1225(), 4);
  for (const std::size_t n : {96u, 224u, 1024u}) {
    const AlgorithmChoice c = p.choose(n, /*eco=*/true);
    for (const auto& info : core::algorithm_registry()) {
      EXPECT_LE(c.prediction.package_j, p.predict(info.id, n).package_j)
          << "n=" << n;
    }
  }
}

TEST(CostPredictor, PredictionsAreMemoizedAndValidated) {
  CostPredictor p(machine::haswell_e3_1225(), 4);
  const Prediction& a = p.predict(core::AlgorithmId::kStrassen, 224);
  EXPECT_GT(a.seconds, 0.0);
  EXPECT_GT(a.package_j, 0.0);
  // Memoized: the second lookup is the same cache entry.
  EXPECT_EQ(&a, &p.predict(core::AlgorithmId::kStrassen, 224));
  EXPECT_THROW(p.predict(core::AlgorithmId::kOpenBlas, 0),
               std::invalid_argument);
}

// A prediction is the simulator run on the model matmul() publishes for
// the same algorithm, threads and machine: the serve path has no cost
// model of its own.
TEST(CostPredictor, PredictsTheSimulatedMatmulProfile) {
  const machine::MachineSpec spec = machine::haswell_e3_1225();
  for (const unsigned threads : {1u, 4u}) {
    CostPredictor p(spec, threads);
    for (const auto& info : core::algorithm_registry()) {
      for (const std::size_t n : {96u, 224u, 1024u}) {
        const sim::RunResult run = sim::simulate(
            spec, matmul_profile(n, spec, threads, {.algorithm = info.id}),
            threads);
        const Prediction& got = p.predict(info.id, n);
        EXPECT_EQ(got.seconds, run.seconds) << info.name << " n=" << n;
        EXPECT_EQ(got.package_j, run.energy(machine::PowerPlane::kPackage))
            << info.name << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Load generator: the seeded trace

TEST(LoadGen, SplitMix64MatchesTheReferenceStream) {
  // Published splitmix64 test vector for seed 0 — pins the exact
  // constants the decision-log determinism chain starts from.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454fULL);
}

TEST(LoadGen, TraceIsDeterministicAndWellFormed) {
  LoadGenOptions opts;
  opts.seed = 7;
  const auto a = generate_trace(opts);
  const auto b = generate_trace(opts);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].tier, b[i].tier);
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    // ids 1..N in arrival order; arrivals sorted within the horizon.
    EXPECT_EQ(a[i].id, i + 1);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    EXPECT_LT(a[i].arrival_s, opts.duration_s);
    const bool known_shape =
        std::find(opts.shapes.begin(), opts.shapes.end(), a[i].n) !=
        opts.shapes.end();
    EXPECT_TRUE(known_shape) << "n=" << a[i].n;
    if (a[i].tier == QosTier::kGuaranteed) {
      EXPECT_DOUBLE_EQ(a[i].deadline_s, opts.guaranteed_deadline_s);
      EXPECT_EQ(a[i].abft, opts.guaranteed_abft);
    } else {
      EXPECT_DOUBLE_EQ(a[i].deadline_s, opts.best_effort_deadline_s);
      EXPECT_EQ(a[i].abft, abft::AbftMode::kOff);
    }
  }
}

TEST(LoadGen, BurstWindowMultipliesTheArrivalRate) {
  LoadGenOptions opts;  // burst x6 over [8, 12)
  opts.seed = 3;
  std::size_t in_burst = 0, before_burst = 0;
  for (const auto& r : generate_trace(opts)) {
    if (r.arrival_s >= opts.burst_start_s &&
        r.arrival_s < opts.burst_start_s + opts.burst_len_s) {
      ++in_burst;
    } else if (r.arrival_s < opts.burst_start_s) {
      ++before_burst;
    }
  }
  const double burst_rate = static_cast<double>(in_burst) / opts.burst_len_s;
  const double base_rate =
      static_cast<double>(before_burst) / opts.burst_start_s;
  EXPECT_GT(base_rate, 0.0);
  EXPECT_GT(burst_rate, 2.0 * base_rate);
}

TEST(LoadGen, RejectsInvalidOptions) {
  LoadGenOptions bad;
  bad.rate_hz = 0.0;
  EXPECT_THROW(generate_trace(bad), std::invalid_argument);
  bad = LoadGenOptions{};
  bad.shapes.clear();
  EXPECT_THROW(generate_trace(bad), std::invalid_argument);
  bad = LoadGenOptions{};
  bad.guaranteed_fraction = 1.5;
  EXPECT_THROW(generate_trace(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server: the ISSUE's overload study as an executable assertion

TEST(Server, OverloadedRunProtectsGuaranteedAndHoldsTheBudget) {
  LoadGenOptions lg;
  lg.seed = 7;
  ServeOptions so;
  so.budget.budget_w = 0.05;  // a few-watt trace vs a 50 mW contract
  Server server(so);
  const ServeReport report = server.run(generate_trace(lg));

  const TierStats& g = report.tier(QosTier::kGuaranteed);
  const TierStats& be = report.tier(QosTier::kBestEffort);
  ASSERT_GT(g.submitted, 0u);
  ASSERT_GT(be.submitted, 0u);
  // The ladder engaged all the way to shedding...
  EXPECT_GT(report.degrade_entries[static_cast<std::size_t>(
                DegradeLevel::kShed)],
            0u);
  EXPECT_GT(report.degrade_transitions, 0u);
  // ...only best-effort traffic paid for it...
  EXPECT_EQ(g.rejected_for(RejectReason::kShedding), 0u);
  EXPECT_EQ(g.expired, 0u);
  EXPECT_EQ(g.cancelled, 0u);
  EXPECT_GT(be.rejected_for(RejectReason::kShedding), 0u);
  // ...the SLO and the energy contract both held...
  EXPECT_TRUE(report.slo_met);
  EXPECT_TRUE(report.budget_met);
  EXPECT_LE(report.achieved_w,
            so.budget.budget_w * (1.0 + so.budget_tolerance));
  // ...and the predicted spend reconciles with the RAPL read-back.
  EXPECT_GT(report.predicted_joules, 0.0);
  EXPECT_NEAR(report.measured_joules, report.predicted_joules, 1e-2);
  EXPECT_FALSE(report.rapl_degraded);
}

TEST(Server, DecisionLogIsByteReproducible) {
  LoadGenOptions lg;
  lg.seed = 7;
  const auto trace = generate_trace(lg);
  ServeOptions so;
  so.budget.budget_w = 0.05;
  Server server(so);
  const std::string first = server.run(trace).decision_log();
  ASSERT_FALSE(first.empty());
  // Same Server re-run (exercises reset) and a fresh instance both
  // reproduce the exact bytes the serve-smoke CI job diffs.
  EXPECT_EQ(server.run(trace).decision_log(), first);
  Server other(so);
  EXPECT_EQ(other.run(trace).decision_log(), first);
}

TEST(Server, QueuedDeadlinesExpireAndRefundTheirJoules) {
  ServeOptions so;
  so.slots = 1;
  so.budget.budget_w = 100.0;
  CostPredictor model(so.machine, so.threads);
  const std::size_t n = 224;
  const double service_s =
      model.predict(core::AlgorithmId::kOpenBlas, n).seconds;
  std::vector<Request> trace;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    Request r;
    r.id = id;
    r.arrival_s = 0.0;
    r.n = n;
    r.tier = QosTier::kBestEffort;
    // Shorter than one service time: whatever queues behind the single
    // slot is already dead when the first completion advances the clock.
    r.deadline_s = 0.5 * service_s;
    trace.push_back(r);
  }
  Server server(so);
  const ServeReport report = server.run(trace);
  const TierStats& be = report.tier(QosTier::kBestEffort);
  EXPECT_EQ(be.completed, 1u);
  EXPECT_EQ(be.expired, 5u);
  std::size_t expire_decisions = 0;
  for (const auto& d : report.decisions) {
    if (d.kind != Decision::Kind::kExpire) continue;
    ++expire_decisions;
    EXPECT_GT(d.joules, 0.0);  // the admission debit came back
  }
  EXPECT_EQ(expire_decisions, 5u);
  // Refunds restored the bucket: barely one request's energy is gone.
  EXPECT_GT(report.final_fill_ratio, 0.99);
}

std::vector<Request> spaced_trace(std::size_t count, std::size_t n,
                                  double spacing_s) {
  std::vector<Request> trace;
  for (std::uint64_t id = 1; id <= count; ++id) {
    Request r;
    r.id = id;
    r.arrival_s = static_cast<double>(id - 1) * spacing_s;
    r.n = n;
    r.tier = (id % 2 == 1) ? QosTier::kGuaranteed : QosTier::kBestEffort;
    trace.push_back(r);
  }
  return trace;
}

TEST(Server, StallPastTheWatchdogIsCancelledAndAccounted) {
  fault::FaultInjector inj(
      fault::FaultPlan::parse("serve.stall=1,serve.stall_ms=400,seed=1"));
  fault::FaultScope scope(inj);
  ServeOptions so;  // watchdog_s = 0.25 < 0.4 s stall
  Server server(so);
  const ServeReport report = server.run(spaced_trace(4, 96, 1.0));
  EXPECT_EQ(report.stalls, 4u);
  const TierStats& g = report.tier(QosTier::kGuaranteed);
  const TierStats& be = report.tier(QosTier::kBestEffort);
  EXPECT_EQ(g.cancelled, 2u);
  EXPECT_EQ(be.cancelled, 2u);
  EXPECT_EQ(g.completed + be.completed, 0u);
  // Cancelled work is spent energy, not forgiven energy.
  EXPECT_GT(report.predicted_joules, 0.0);
  EXPECT_FALSE(report.slo_met);  // guaranteed cancellations break the SLO
  std::size_t cancels = 0;
  for (const auto& d : report.decisions) {
    cancels += d.kind == Decision::Kind::kCancel ? 1 : 0;
  }
  EXPECT_EQ(cancels, 4u);
}

TEST(Server, StallWithinTheGraceWindowOnlyDelays) {
  fault::FaultInjector inj(
      fault::FaultPlan::parse("serve.stall=1,serve.stall_ms=100,seed=1"));
  fault::FaultScope scope(inj);
  ServeOptions so;  // 0.1 s stall < 0.25 s watchdog
  Server server(so);
  const ServeReport report = server.run(spaced_trace(4, 96, 1.0));
  EXPECT_EQ(report.stalls, 4u);
  const TierStats& g = report.tier(QosTier::kGuaranteed);
  const TierStats& be = report.tier(QosTier::kBestEffort);
  EXPECT_EQ(g.cancelled + be.cancelled, 0u);
  EXPECT_EQ(g.completed + be.completed, 4u);
  // The stall shows up as latency instead.
  EXPECT_GE(g.p50_s, 0.1);
  EXPECT_GE(be.p50_s, 0.1);
}

TEST(Server, BurstFaultAmplifiesArrivalsWithCloneIds) {
  fault::FaultInjector inj(
      fault::FaultPlan::parse("serve.burst=1,seed=2"));  // 3 copies default
  fault::FaultScope scope(inj);
  ServeOptions so;
  so.queue_capacity = 32;
  so.slots = 4;
  Server server(so);
  const ServeReport report = server.run(spaced_trace(3, 96, 2.0));
  EXPECT_EQ(report.bursts, 3u);
  const std::uint64_t submitted =
      report.tier(QosTier::kGuaranteed).submitted +
      report.tier(QosTier::kBestEffort).submitted;
  EXPECT_EQ(submitted, 12u);  // each arrival plus three clones
  bool saw_clone = false;
  for (const auto& d : report.decisions) {
    saw_clone = saw_clone || d.request_id == 1000001u;
  }
  EXPECT_TRUE(saw_clone);
}

TEST(Server, ExecuteModeNeverPerturbsTheDecisionLog) {
  LoadGenOptions lg;
  lg.seed = 5;
  lg.duration_s = 3.0;
  lg.rate_hz = 2.0;
  lg.burst_factor = 1.0;
  lg.shapes = {64};
  const auto trace = generate_trace(lg);
  ASSERT_FALSE(trace.empty());

  ServeOptions virtual_only;
  Server a(virtual_only);
  const ServeReport ra = a.run(trace);

  tasking::ThreadPool pool(2);
  ServeOptions real = virtual_only;
  real.execute = true;
  real.pool = &pool;
  Server b(real);
  const ServeReport rb = b.run(trace);

  EXPECT_EQ(ra.executed, 0u);
  EXPECT_EQ(rb.executed, rb.tier(QosTier::kGuaranteed).completed +
                             rb.tier(QosTier::kBestEffort).completed);
  EXPECT_GT(rb.executed, 0u);
  // Wall-clock execution is one-way decoupled from virtual decisions.
  EXPECT_EQ(rb.decision_log(), ra.decision_log());
}

TEST(Server, ExecuteModeDrivesTheRealCancelPath) {
  fault::FaultInjector inj(
      fault::FaultPlan::parse("serve.stall=1,serve.stall_ms=400,seed=1"));
  fault::FaultScope scope(inj);
  tasking::ThreadPool pool(2);
  ServeOptions so;
  so.execute = true;
  so.pool = &pool;
  Server server(so);
  const ServeReport report = server.run(spaced_trace(2, 64, 1.0));
  EXPECT_EQ(report.tier(QosTier::kGuaranteed).cancelled +
                report.tier(QosTier::kBestEffort).cancelled,
            2u);
  EXPECT_EQ(report.cancel_drills, 2u);
}

TEST(Server, RaplFailureDegradesTheBudgetReadback) {
  fault::FaultInjector inj(fault::FaultPlan::parse("rapl.fail=1,seed=3"));
  fault::FaultScope scope(inj);
  ServeOptions so;
  Server server(so);
  const ServeReport report = server.run(spaced_trace(2, 96, 1.0));
  EXPECT_TRUE(report.rapl_degraded);
  EXPECT_DOUBLE_EQ(report.measured_joules, 0.0);
  // The virtual accounting is untouched by the read-back failure.
  EXPECT_GT(report.predicted_joules, 0.0);
}

// ---------------------------------------------------------------------------
// serve_one: the unloaded synchronous path

Request one_request(std::size_t n) {
  Request r;
  r.id = 1;
  r.n = n;
  r.tier = QosTier::kGuaranteed;
  r.algorithm = core::AlgorithmId::kOpenBlas;
  return r;
}

TEST(ServeOne, UnloadedServiceIsBitIdenticalToDirectMatmul) {
  const std::size_t n = 64;
  const linalg::Matrix a = linalg::random_matrix(n, n, 11);
  const linalg::Matrix b = linalg::random_matrix(n, n, 12);
  linalg::Matrix via_service(n, n);
  linalg::Matrix direct(n, n);

  Server server(ServeOptions{});
  ASSERT_EQ(server.serve_one(one_request(n), a.view(), b.view(),
                             via_service.view()),
            Outcome::kCompleted);

  MatmulOptions mo;
  mo.algorithm = core::AlgorithmId::kOpenBlas;
  mo.abft.mode = abft::AbftMode::kOff;
  matmul(a.view(), b.view(), direct.view(), mo);

  EXPECT_EQ(std::memcmp(via_service.data(), direct.data(),
                        n * n * sizeof(double)),
            0);
}

TEST(ServeOne, RejectsOversizedAndMismatchedRequests) {
  Server server(ServeOptions{});
  const linalg::Matrix a = linalg::random_matrix(32, 32, 1);
  const linalg::Matrix b = linalg::random_matrix(32, 32, 2);
  linalg::Matrix c(32, 32);

  Request too_big = one_request(server.options().max_n + 1);
  EXPECT_EQ(server.serve_one(too_big, a.view(), b.view(), c.view()),
            Outcome::kRejected);
  EXPECT_EQ(server.last_reject_reason(), RejectReason::kOversized);

  Request mismatched = one_request(64);  // views are 32x32
  EXPECT_EQ(server.serve_one(mismatched, a.view(), b.view(), c.view()),
            Outcome::kRejected);
  EXPECT_EQ(server.last_reject_reason(), RejectReason::kOversized);
}

TEST(ServeOne, BudgetShortfallAndSheddingAreTypedRejections) {
  const std::size_t n = 128;
  CostPredictor model(machine::haswell_e3_1225(), 4);
  const double request_j =
      model.predict(core::AlgorithmId::kOpenBlas, n).package_j;
  const linalg::Matrix a = linalg::random_matrix(n, n, 1);
  const linalg::Matrix b = linalg::random_matrix(n, n, 2);
  linalg::Matrix c(n, n);
  const double sentinel = -7.25;
  c.view().data()[0] = sentinel;

  // A bucket holding half a request: best-effort bounces on the budget,
  // and a rejected request leaves the output untouched.
  ServeOptions starved;
  starved.budget.budget_w = 1e-6;
  starved.budget.capacity_j = 0.5 * request_j;
  Server scarce(starved);
  Request be = one_request(n);
  be.tier = QosTier::kBestEffort;
  EXPECT_EQ(scarce.serve_one(be, a.view(), b.view(), c.view()),
            Outcome::kRejected);
  EXPECT_EQ(scarce.last_reject_reason(), RejectReason::kEnergyBudget);
  EXPECT_DOUBLE_EQ(c.view().data()[0], sentinel);

  // A guaranteed request that drains the bucket below the shed rung
  // pulls the ladder down; the next best-effort request is shed.
  ServeOptions tight;
  tight.budget.budget_w = 1e-6;
  tight.budget.capacity_j = 1.2 * request_j;
  Server shedding(tight);
  Request g = one_request(n);
  EXPECT_EQ(shedding.serve_one(g, a.view(), b.view(), c.view()),
            Outcome::kCompleted);
  EXPECT_EQ(shedding.serve_one(be, a.view(), b.view(), c.view()),
            Outcome::kRejected);
  EXPECT_EQ(shedding.last_reject_reason(), RejectReason::kShedding);
}

// A B or C that does not match req.n is rejected before the energy
// debit, so the budget a throwing matmul() would have taken stays for
// the next valid call.
TEST(ServeOne, MismatchedOperandsSpendNoBudget) {
  const std::size_t n = 128;
  CostPredictor model(machine::haswell_e3_1225(), 4);
  const double request_j =
      model.predict(core::AlgorithmId::kOpenBlas, n).package_j;
  const linalg::Matrix a = linalg::random_matrix(n, n, 1);
  const linalg::Matrix b = linalg::random_matrix(n, n, 2);
  const linalg::Matrix wide_b = linalg::random_matrix(n + 1, n + 1, 3);
  linalg::Matrix c(n, n);
  linalg::Matrix wide_c(n + 1, n + 1);

  // The bucket fits exactly one best-effort call above the reserve.
  ServeOptions one_call;
  one_call.budget.budget_w = 1e-6;
  one_call.budget.capacity_j = request_j / 0.70;
  Request be = one_request(n);
  be.tier = QosTier::kBestEffort;
  {
    Server fresh(one_call);
    ASSERT_EQ(fresh.serve_one(be, a.view(), b.view(), c.view()),
              Outcome::kCompleted);
    ASSERT_EQ(fresh.serve_one(be, a.view(), b.view(), c.view()),
              Outcome::kRejected);
  }

  Server server(one_call);
  EXPECT_EQ(server.serve_one(be, a.view(), wide_b.view(), c.view()),
            Outcome::kRejected);
  EXPECT_EQ(server.last_reject_reason(), RejectReason::kOversized);
  EXPECT_EQ(server.serve_one(be, a.view(), b.view(), wide_c.view()),
            Outcome::kRejected);
  EXPECT_EQ(server.last_reject_reason(), RejectReason::kOversized);
  EXPECT_EQ(server.serve_one(be, a.view(), b.view(), c.view()),
            Outcome::kCompleted);
}

// Operands must be n x n, not merely conformable: an n x (n+1) B and C
// make a valid product, but not the one req.n prices, so they are
// rejected before the debit too.
TEST(ServeOne, NonSquareOperandsAreRejectedAsOversized) {
  const std::size_t n = 128;
  CostPredictor model(machine::haswell_e3_1225(), 4);
  const double request_j =
      model.predict(core::AlgorithmId::kOpenBlas, n).package_j;
  const linalg::Matrix a = linalg::random_matrix(n, n, 1);
  const linalg::Matrix b = linalg::random_matrix(n, n, 2);
  const linalg::Matrix tall_b = linalg::random_matrix(n, n + 1, 3);
  linalg::Matrix c(n, n);
  linalg::Matrix tall_c(n, n + 1);

  ServeOptions one_call;
  one_call.budget.budget_w = 1e-6;
  one_call.budget.capacity_j = request_j / 0.70;
  Request be = one_request(n);
  be.tier = QosTier::kBestEffort;

  Server server(one_call);
  EXPECT_EQ(server.serve_one(be, a.view(), tall_b.view(), tall_c.view()),
            Outcome::kRejected);
  EXPECT_EQ(server.last_reject_reason(), RejectReason::kOversized);
  EXPECT_EQ(server.serve_one(be, a.view(), b.view(), c.view()),
            Outcome::kCompleted);
}

// A C that shares storage with A or B throws before the energy debit,
// as matmul() would, so the budget stays for the next valid call.
TEST(ServeOne, AliasedOutputSpendsNoBudget) {
  const std::size_t n = 128;
  CostPredictor model(machine::haswell_e3_1225(), 4);
  const double request_j =
      model.predict(core::AlgorithmId::kOpenBlas, n).package_j;
  linalg::Matrix a = linalg::random_matrix(n, n, 1);
  linalg::Matrix b = linalg::random_matrix(n, n, 2);
  const linalg::Matrix a_before = a;
  linalg::Matrix c(n, n);

  ServeOptions one_call;
  one_call.budget.budget_w = 1e-6;
  one_call.budget.capacity_j = request_j / 0.70;
  Request be = one_request(n);
  be.tier = QosTier::kBestEffort;

  Server server(one_call);
  EXPECT_THROW(server.serve_one(be, a.view(), b.view(), a.view()),
               std::invalid_argument);
  EXPECT_THROW(server.serve_one(be, a.view(), b.view(), b.view()),
               std::invalid_argument);
  EXPECT_EQ(std::memcmp(a.data(), a_before.data(), n * n * sizeof(double)),
            0);
  EXPECT_EQ(server.serve_one(be, a.view(), b.view(), c.view()),
            Outcome::kCompleted);
}

// ---------------------------------------------------------------------------
// ServeOptions::from_env: the strict CAPOW_SERVE_* grammar

/// Scoped setenv so a failing assertion can't leak the variable into
/// later tests.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvVar() { ::unsetenv(name_); }
  EnvVar(const EnvVar&) = delete;
  EnvVar& operator=(const EnvVar&) = delete;

 private:
  const char* name_;
};

TEST(ServeOptionsEnv, AppliesNumericOverridesOnTopOfDefaults) {
  EnvVar budget("CAPOW_SERVE_BUDGET_W", "7.5");
  EnvVar cap("CAPOW_SERVE_QUEUE_CAP", "32");
  EnvVar slots("CAPOW_SERVE_SLOTS", "3");
  EnvVar watchdog("CAPOW_SERVE_WATCHDOG_MS", "500");
  const ServeOptions opts = ServeOptions::from_env();
  EXPECT_DOUBLE_EQ(opts.budget.budget_w, 7.5);
  EXPECT_EQ(opts.queue_capacity, 32u);
  EXPECT_EQ(opts.slots, 3u);
  EXPECT_DOUBLE_EQ(opts.watchdog_s, 0.5);
}

TEST(ServeOptionsEnv, UnsetVariablesLeaveTheBaseUntouched) {
  ServeOptions base;
  base.slots = 9;
  const ServeOptions opts = ServeOptions::from_env(base);
  EXPECT_EQ(opts.slots, 9u);
  EXPECT_DOUBLE_EQ(opts.budget.budget_w, base.budget.budget_w);
}

TEST(ServeOptionsEnv, MalformedValueNamesTheVariable) {
  EnvVar budget("CAPOW_SERVE_BUDGET_W", "fast");
  try {
    (void)ServeOptions::from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("CAPOW_SERVE_BUDGET_W"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Telemetry export and the decision-log rendering contract

TEST(ServeMetrics, ExportEmitsTheServeFamilies) {
  LoadGenOptions lg;
  lg.seed = 7;
  ServeOptions so;
  so.budget.budget_w = 0.05;
  Server server(so);
  const ServeReport report = server.run(generate_trace(lg));

  telemetry::MetricsRegistry registry;
  export_serve_metrics(report, registry);
  std::ostringstream os;
  registry.write(os);
  const std::string text = os.str();
  for (const char* needle :
       {"capow_serve_requests_total", "capow_serve_rejected_total",
        "capow_serve_shed_total", "capow_serve_degraded_total",
        "capow_serve_latency_seconds{tier=\"guaranteed\",quantile=\"0.99\"}",
        "capow_serve_energy_joules{kind=\"predicted\"}",
        "capow_serve_budget_watts", "capow_serve_rapl_degraded"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(DecisionFormat, RendersStableBytes) {
  Decision admit;
  admit.kind = Decision::Kind::kAdmit;
  admit.t_s = 1.5;
  admit.request_id = 42;
  admit.tier = QosTier::kGuaranteed;
  admit.level = DegradeLevel::kEco;
  admit.algorithm = core::AlgorithmId::kOpenBlas;
  admit.joules = 0.25;
  EXPECT_EQ(format_decision(admit),
            "t=1.500000 admit id=42 tier=guaranteed level=eco "
            "alg=openblas j=0.250");

  Decision reject;
  reject.kind = Decision::Kind::kReject;
  reject.request_id = 7;
  reject.tier = QosTier::kBestEffort;
  reject.level = DegradeLevel::kShed;
  reject.reason = RejectReason::kShedding;
  EXPECT_EQ(format_decision(reject),
            "t=0.000000 reject id=7 tier=best_effort level=shed "
            "reason=shedding");

  Decision degrade;
  degrade.kind = Decision::Kind::kDegrade;
  degrade.t_s = 2.0;
  degrade.level = DegradeLevel::kShed;
  EXPECT_EQ(format_decision(degrade), "t=2.000000 degrade level=shed");
}

}  // namespace
}  // namespace capow::serve
