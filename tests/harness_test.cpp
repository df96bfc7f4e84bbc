// Tests for the experiment runner and table formatting — including the
// paper's qualitative claims as executable assertions, and the harness's
// fault-tolerance envelope (retry/degrade/fail statuses, watchdog,
// checkpoint/resume).
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capow/fault/fault.hpp"
#include "capow/harness/checkpoint.hpp"
#include "capow/harness/comm_audit.hpp"
#include "capow/harness/experiment.hpp"
#include "capow/harness/jsonl.hpp"
#include "capow/harness/table.hpp"
#include "capow/telemetry/export.hpp"

namespace capow::harness {
namespace {

using core::AlgorithmId;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.sizes = {256, 512};
  cfg.thread_counts = {1, 2, 4};
  cfg.quiesce_seconds = 1.0;
  return cfg;
}

TEST(Experiment, ProducesFullMatrix) {
  ExperimentRunner runner(small_config());
  const auto& results = runner.run();
  EXPECT_EQ(results.size(), 3u * 2u * 3u);
  // Idempotent.
  EXPECT_EQ(&runner.run(), &results);
}

TEST(Experiment, FindLocatesAndThrows) {
  ExperimentRunner runner(small_config());
  runner.run();
  const auto& r = runner.find(AlgorithmId::kCaps, 512, 4);
  EXPECT_EQ(r.n, 512u);
  EXPECT_EQ(r.threads, 4u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_THROW(runner.find(AlgorithmId::kCaps, 999, 4), std::out_of_range);
}

TEST(Experiment, RejectsEmptyConfig) {
  ExperimentConfig cfg = small_config();
  cfg.sizes.clear();
  EXPECT_THROW(ExperimentRunner{cfg}, std::invalid_argument);
}

TEST(Experiment, EpFollowsEq1) {
  ExperimentRunner runner(small_config());
  runner.run();
  for (const auto& r : runner.run()) {
    EXPECT_NEAR(r.ep, r.package_watts / r.seconds, 1e-9);
    EXPECT_GT(r.package_watts, r.pp0_watts);
    EXPECT_GT(r.pp0_watts, 0.0);
  }
}

TEST(Experiment, QuiesceDoesNotPolluteMeasurement) {
  ExperimentConfig with = small_config();
  ExperimentConfig without = small_config();
  without.quiesce_seconds = 0.0;
  ExperimentRunner a(with), b(without);
  a.run();
  b.run();
  const auto& ra = a.find(AlgorithmId::kOpenBlas, 512, 2);
  const auto& rb = b.find(AlgorithmId::kOpenBlas, 512, 2);
  // The event set baselines after the idle period, so energy/power are
  // unchanged (up to MSR count quantization over a short run).
  EXPECT_NEAR(ra.package_watts, rb.package_watts, 0.05);
}

TEST(Experiment, AveragesMatchManualComputation) {
  ExperimentRunner runner(small_config());
  runner.run();
  double sum = 0.0;
  for (unsigned t : {1u, 2u, 4u}) {
    sum += runner.find(AlgorithmId::kStrassen, 256, t).seconds /
           runner.find(AlgorithmId::kOpenBlas, 256, t).seconds;
  }
  EXPECT_NEAR(runner.average_slowdown(AlgorithmId::kStrassen, 256), sum / 3.0,
              1e-12);

  double power = 0.0;
  for (std::size_t n : {256u, 512u}) {
    power += runner.find(AlgorithmId::kCaps, n, 2).package_watts;
  }
  EXPECT_NEAR(runner.average_power(AlgorithmId::kCaps, 2), power / 2.0, 1e-12);
}

// ---- The paper's qualitative claims, as assertions on the full matrix.
class PaperClaimsTest : public ::testing::Test {
 protected:
  static ExperimentRunner& runner() {
    static ExperimentRunner r{ExperimentConfig{}};
    r.run();
    return r;
  }
};

TEST_F(PaperClaimsTest, OpenBlasIsFastestEverywhere) {
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    for (unsigned t = 1; t <= 4; ++t) {
      const double blas = runner().find(AlgorithmId::kOpenBlas, n, t).seconds;
      EXPECT_LT(blas, runner().find(AlgorithmId::kStrassen, n, t).seconds);
      EXPECT_LT(blas, runner().find(AlgorithmId::kCaps, n, t).seconds);
    }
  }
}

TEST_F(PaperClaimsTest, SlowdownsInPaperBand) {
  // Table II: Strassen averages 2.965x, CAPS 2.788x across the matrix.
  // Require the reproduction to land within ~20% of those averages.
  double strassen = 0.0, caps = 0.0;
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    strassen += runner().average_slowdown(AlgorithmId::kStrassen, n);
    caps += runner().average_slowdown(AlgorithmId::kCaps, n);
  }
  strassen /= 4.0;
  caps /= 4.0;
  EXPECT_NEAR(strassen, 2.965, 0.6);
  EXPECT_NEAR(caps, 2.788, 0.6);
}

TEST_F(PaperClaimsTest, CapsFasterThanStrassenOnAverage) {
  // "The CAPS implementation performed better than the traditional
  // Strassen test in nearly all cases" — on average per size here.
  for (std::size_t n : {2048u, 4096u}) {
    EXPECT_LT(runner().average_slowdown(AlgorithmId::kCaps, n),
              runner().average_slowdown(AlgorithmId::kStrassen, n))
        << "n=" << n;
  }
}

TEST_F(PaperClaimsTest, OpenBlasDrawsTheMostPower) {
  // Section VI-C: "the OpenBLAS implementation recorded the highest
  // power utilization on all variations of all tests" (multi-threaded).
  for (unsigned t = 2; t <= 4; ++t) {
    const double blas = runner().average_power(AlgorithmId::kOpenBlas, t);
    EXPECT_GT(blas, runner().average_power(AlgorithmId::kStrassen, t));
    EXPECT_GT(blas, runner().average_power(AlgorithmId::kCaps, t));
  }
}

TEST_F(PaperClaimsTest, StrassenPowerSaturates) {
  // Fig 5: sublinear power growth. The 3->4 thread increment must be
  // clearly smaller than the 1->2 increment.
  const double p1 = runner().average_power(AlgorithmId::kStrassen, 1);
  const double p2 = runner().average_power(AlgorithmId::kStrassen, 2);
  const double p3 = runner().average_power(AlgorithmId::kStrassen, 3);
  const double p4 = runner().average_power(AlgorithmId::kStrassen, 4);
  EXPECT_LT(p4 - p3, p2 - p1);
}

TEST_F(PaperClaimsTest, OpenBlasPowerNearLinear) {
  // Fig 4: each added thread costs roughly the same increment.
  const double p1 = runner().average_power(AlgorithmId::kOpenBlas, 1);
  const double p2 = runner().average_power(AlgorithmId::kOpenBlas, 2);
  const double p4 = runner().average_power(AlgorithmId::kOpenBlas, 4);
  const double inc12 = p2 - p1;
  const double inc24 = (p4 - p2) / 2.0;
  EXPECT_NEAR(inc24 / inc12, 1.0, 0.25);
}

TEST_F(PaperClaimsTest, EpOrderingMatchesTableIV) {
  // Table IV: OpenBLAS EP >> Strassen/CAPS EP at every size, and EP
  // decreases steeply with problem size.
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    const double blas = runner().average_ep(AlgorithmId::kOpenBlas, n);
    EXPECT_GT(blas, 2.0 * runner().average_ep(AlgorithmId::kStrassen, n));
    EXPECT_GT(blas, 2.0 * runner().average_ep(AlgorithmId::kCaps, n));
  }
  EXPECT_GT(runner().average_ep(AlgorithmId::kOpenBlas, 512),
            runner().average_ep(AlgorithmId::kOpenBlas, 4096) * 100.0);
}

TEST_F(PaperClaimsTest, Fig7OpenBlasSuperlinearStrassenFamilyNearLinear) {
  for (std::size_t n : {1024u, 4096u}) {
    const auto blas = runner().ep_scaling(AlgorithmId::kOpenBlas, n);
    const auto strassen = runner().ep_scaling(AlgorithmId::kStrassen, n);
    const auto caps = runner().ep_scaling(AlgorithmId::kCaps, n);
    // OpenBLAS is strongly superlinear: S(4) at least 1.5x the threshold.
    EXPECT_GT(blas.back().s, 6.0);
    // The Strassen family stays far below OpenBLAS.
    EXPECT_LT(strassen.back().s, 0.7 * blas.back().s);
    EXPECT_LT(caps.back().s, 0.8 * blas.back().s);
  }
  // At the largest size classic Strassen sits within ~15% of the ideal
  // line (the paper's "ideal or nearly ideal scaling curves").
  EXPECT_LT(runner().ep_scaling(AlgorithmId::kStrassen, 4096).back().s,
            4.0 * 1.15);
  EXPECT_EQ(runner().scaling_class(AlgorithmId::kOpenBlas, 4096),
            core::ScalingClass::kSuperlinear);
}

// ---- Fault-tolerance envelope: statuses, watchdog, determinism.

ExperimentConfig fault_config() {
  ExperimentConfig cfg;
  cfg.sizes = {256};
  cfg.thread_counts = {1, 2};
  cfg.quiesce_seconds = 0.0;
  return cfg;
}

TEST(ExperimentFault, CleanRunDefaultsToOkStatus) {
  ExperimentRunner runner(fault_config());
  for (const auto& r : runner.run()) {
    EXPECT_EQ(r.status, RunStatus::kOk);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_TRUE(r.error.empty());
  }
}

TEST(ExperimentFault, EmptyPlanInjectorLeavesResultsBitIdentical) {
  ExperimentRunner clean(fault_config());
  clean.run();
  fault::FaultInjector inj{fault::FaultPlan{}};
  fault::FaultScope scope(inj);
  ExperimentRunner gated(fault_config());
  gated.run();
  ASSERT_EQ(clean.run().size(), gated.run().size());
  for (std::size_t i = 0; i < clean.run().size(); ++i) {
    const auto& a = clean.run()[i];
    const auto& b = gated.run()[i];
    EXPECT_EQ(a.seconds, b.seconds);            // bitwise: same simulation
    EXPECT_EQ(a.package_watts, b.package_watts);
    EXPECT_EQ(a.pp0_watts, b.pp0_watts);
    EXPECT_EQ(a.ep, b.ep);
    EXPECT_EQ(a.status, b.status);
  }
  EXPECT_EQ(inj.counters().total(), 0u);
}

TEST(ExperimentFault, TransientRunFailuresAreRetried) {
  fault::FaultPlan plan = fault::FaultPlan::parse("run.fail=0.3,seed=42");
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);
  ExperimentRunner runner(fault_config());
  int ok = 0, retried = 0;
  for (const auto& r : runner.run()) {
    if (r.status == RunStatus::kOk) ++ok;
    if (r.status == RunStatus::kRetried) {
      ++retried;
      EXPECT_GT(r.attempts, 1);
      EXPECT_GT(r.seconds, 0.0);  // retried runs still carry real data
      EXPECT_TRUE(r.error.empty());
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(retried, 0);
  EXPECT_GT(inj.count(fault::Event::kRunRetry), 0u);
}

TEST(ExperimentFault, ExhaustedAttemptsYieldFailedRecordNotThrow) {
  fault::FaultPlan plan = fault::FaultPlan::parse("run.fail=1,seed=1");
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);
  ExperimentConfig cfg = fault_config();
  cfg.max_run_attempts = 2;
  ExperimentRunner runner(cfg);
  for (const auto& r : runner.run()) {
    EXPECT_EQ(r.status, RunStatus::kFailed);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.seconds, 0.0);  // failed records carry zeroed metrics
    EXPECT_EQ(r.package_watts, 0.0);
  }
  EXPECT_EQ(inj.count(fault::Event::kRunFailure), runner.run().size());
  // Aggregation must survive an all-failed matrix: NaN, not a crash.
  EXPECT_TRUE(std::isnan(runner.average_power(AlgorithmId::kOpenBlas, 1)));
  EXPECT_TRUE(std::isnan(runner.average_ep(AlgorithmId::kCaps, 256)));
  EXPECT_TRUE(runner.ep_scaling(AlgorithmId::kStrassen, 256).empty());
}

TEST(ExperimentFault, DegradedRaplReadsDowngradeStatus) {
  fault::FaultPlan plan = fault::FaultPlan::parse("rapl.fail=1,seed=3");
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);
  ExperimentRunner runner(fault_config());
  for (const auto& r : runner.run()) {
    // The measurement completes (degraded beats discarded) but the
    // record is honest about its quality.
    EXPECT_EQ(r.status, RunStatus::kDegraded);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_TRUE(r.error.empty());
  }
  EXPECT_GT(inj.count(fault::Event::kRaplDegradedRead), 0u);
  EXPECT_EQ(inj.count(fault::Event::kRunDegraded), runner.run().size());
}

TEST(ExperimentFault, WatchdogTurnsStallsIntoFailedRecords) {
  fault::FaultPlan plan =
      fault::FaultPlan::parse("run.stall=1,run.stall_ms=400,seed=5");
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);
  ExperimentConfig cfg = fault_config();
  cfg.sizes = {256};
  cfg.thread_counts = {1};
  cfg.max_run_attempts = 2;
  cfg.run_timeout_seconds = 0.05;
  ExperimentRunner runner(cfg);
  for (const auto& r : runner.run()) {
    EXPECT_EQ(r.status, RunStatus::kFailed);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  }
  // 3 algorithms x 2 attempts, every attempt stalled past the budget.
  EXPECT_EQ(inj.count(fault::Event::kRunTimeout), 6u);
}

TEST(ExperimentFault, WrapInjectionPreservesMeasurements) {
  ExperimentRunner clean(fault_config());
  clean.run();
  fault::FaultPlan plan = fault::FaultPlan::parse("rapl.wrap=1,seed=9");
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);
  ExperimentRunner wrapped(fault_config());
  wrapped.run();
  ASSERT_EQ(clean.run().size(), wrapped.run().size());
  EXPECT_GT(inj.count(fault::Event::kRaplWrap), 0u);
  for (std::size_t i = 0; i < clean.run().size(); ++i) {
    const auto& a = clean.run()[i];
    const auto& b = wrapped.run()[i];
    EXPECT_EQ(b.status, RunStatus::kOk);
    EXPECT_EQ(a.seconds, b.seconds);
    // Wrap-corrected energy matches the clean run up to MSR count
    // quantization (the pre-wrap deposit realigns counter phase).
    EXPECT_NEAR(a.package_watts, b.package_watts, 0.05);
    EXPECT_NEAR(a.pp0_watts, b.pp0_watts, 0.05);
  }
}

TEST(ExperimentFault, InjectedMatrixIsDeterministicForFixedSeed) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("run.fail=0.3,rapl.fail=0.5,seed=11");
  const auto run_once = [&plan](fault::FaultCounters* out) {
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    ExperimentRunner runner(fault_config());
    runner.run();
    *out = inj.counters();
    return runner.run();
  };
  fault::FaultCounters ca, cb;
  const std::vector<ResultRecord> a = run_once(&ca);
  const std::vector<ResultRecord> b = run_once(&cb);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].seconds, b[i].seconds);
    EXPECT_EQ(a[i].package_watts, b[i].package_watts);
    EXPECT_EQ(a[i].ep, b[i].ep);
    EXPECT_EQ(a[i].error, b[i].error);
  }
  for (std::size_t i = 0; i < fault::kEventCount; ++i) {
    EXPECT_EQ(ca.by_event[i], cb.by_event[i]);
  }
}

// ---- Checkpoint/resume.

ResultRecord sample_record() {
  ResultRecord r;
  r.algorithm = AlgorithmId::kStrassen;
  r.n = 1024;
  r.threads = 3;
  r.seconds = 1.0 / 3.0;           // not representable in decimal
  r.package_watts = 0.1 + 0.2;     // classic round-trip trap
  r.pp0_watts = 17.25;
  r.package_energy_j = 6.0221408e23;
  r.ep = 2.2250738585072014e-308;  // smallest normal double
  r.status = RunStatus::kDegraded;
  r.attempts = 2;
  return r;
}

TEST(Checkpoint, LineRoundTripsEveryFieldExactly) {
  const ResultRecord r = sample_record();
  const auto parsed = parse_checkpoint_line(checkpoint_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->algorithm, r.algorithm);
  EXPECT_EQ(parsed->n, r.n);
  EXPECT_EQ(parsed->threads, r.threads);
  EXPECT_EQ(parsed->seconds, r.seconds);  // %.17g: bitwise round-trip
  EXPECT_EQ(parsed->package_watts, r.package_watts);
  EXPECT_EQ(parsed->pp0_watts, r.pp0_watts);
  EXPECT_EQ(parsed->package_energy_j, r.package_energy_j);
  EXPECT_EQ(parsed->ep, r.ep);
  EXPECT_EQ(parsed->status, r.status);
  EXPECT_EQ(parsed->attempts, r.attempts);
  EXPECT_EQ(parsed->error, r.error);
}

TEST(Checkpoint, CorrectedStatusRoundTrips) {
  EXPECT_STREQ(to_string(RunStatus::kCorrected), "corrected");
  ResultRecord r = sample_record();
  r.status = RunStatus::kCorrected;
  const auto parsed = parse_checkpoint_line(checkpoint_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, RunStatus::kCorrected);
}

TEST(Checkpoint, ErrorStringsSurviveJsonEscaping) {
  ResultRecord r = sample_record();
  r.status = RunStatus::kFailed;
  r.error = "say \"hi\"\\path\nnewline\ttab";
  const auto parsed = parse_checkpoint_line(checkpoint_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->error, r.error);
}

// One of each escape class the JSONL writers emit: a quote, a
// backslash, a newline and a bare control byte (\u0001).
const std::string kEscapedError =
    std::string("bad \"rank\" \\ 1\nnext") + '\x01' + "end";

TEST(Checkpoint, LineBytesArePinned) {
  ResultRecord r = sample_record();
  r.status = RunStatus::kFailed;
  r.error = kEscapedError;
  const std::string line = checkpoint_line(r);
  EXPECT_EQ(line,
            "{\"algorithm\":\"Strassen\",\"n\":1024,\"threads\":3,"
            "\"seconds\":0.33333333333333331,"
            "\"package_watts\":0.30000000000000004,\"pp0_watts\":17.25,"
            "\"package_energy_j\":6.0221408e+23,"
            "\"ep\":2.2250738585072014e-308,\"status\":\"failed\","
            "\"attempts\":2,"
            "\"error\":\"bad \\\"rank\\\" \\\\ 1\\nnext\\u0001end\"}");
  const auto parsed = parse_checkpoint_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->error, kEscapedError);
  EXPECT_EQ(checkpoint_line(*parsed), line);
}

TEST(Checkpoint, TornAndCorruptLinesAreRejected) {
  const std::string line = checkpoint_line(sample_record());
  EXPECT_FALSE(parse_checkpoint_line("").has_value());
  EXPECT_FALSE(parse_checkpoint_line("garbage").has_value());
  EXPECT_FALSE(parse_checkpoint_line(line.substr(0, line.size() / 2))
                   .has_value());
  EXPECT_FALSE(
      parse_checkpoint_line("{\"algorithm\":\"NoSuchAlgo\",\"n\":4}")
          .has_value());
}

TEST(Checkpoint, AlgorithmNamesRoundTrip) {
  for (AlgorithmId a : core::kAllAlgorithms) {
    const auto back = algorithm_from_name(core::algorithm_name(a));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
  EXPECT_FALSE(algorithm_from_name("DGEMM").has_value());
}

TEST(Checkpoint, LoadDedupsByConfigAndSkipsTornTail) {
  const std::string path =
      ::testing::TempDir() + "capow_ckpt_dedup.jsonl";
  std::remove(path.c_str());
  ResultRecord first = sample_record();
  ResultRecord second = sample_record();
  second.algorithm = AlgorithmId::kCaps;
  ResultRecord rerun = sample_record();  // same config as `first`
  rerun.seconds = 9.5;
  rerun.status = RunStatus::kOk;
  {
    CheckpointWriter w(path, /*append=*/false);
    ASSERT_TRUE(w.active());
    w.append(first);
    w.append(second);
    w.append(rerun);
  }
  {
    // Simulate a crash mid-write: torn final line with no newline.
    std::ofstream os(path, std::ios::app);
    os << "{\"algorithm\":\"CAPS\",\"n\":51";
  }
  const auto records = load_checkpoint(path);
  ASSERT_EQ(records.size(), 2u);  // last-wins dedup, torn line skipped
  bool saw_rerun = false;
  for (const auto& r : records) {
    if (r.algorithm == first.algorithm && r.n == first.n &&
        r.threads == first.threads) {
      EXPECT_EQ(r.seconds, 9.5);
      EXPECT_EQ(r.status, RunStatus::kOk);
      saw_rerun = true;
    }
  }
  EXPECT_TRUE(saw_rerun);
  EXPECT_TRUE(load_checkpoint(path + ".missing").empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadCountsTheCorruptLinesItSkips) {
  const std::string path =
      ::testing::TempDir() + "capow_ckpt_corrupt.jsonl";
  std::remove(path.c_str());
  ResultRecord first = sample_record();
  ResultRecord second = sample_record();
  second.algorithm = AlgorithmId::kCaps;
  {
    std::ofstream os(path, std::ios::trunc);
    os << checkpoint_line(first) << '\n';
    os << "{\"algorithm\":\"Strassen\",\"n\":garbage}" << '\n';
    os << checkpoint_line(second) << '\n';
    // A status no run produces ("recovered") is unknown like any
    // other: skipped and counted.
    std::string retired = checkpoint_line(second);
    const std::string status =
        std::string("\"status\":\"") + to_string(second.status) + "\"";
    ASSERT_NE(retired.find(status), std::string::npos);
    retired.replace(retired.find(status), status.size(),
                    "\"status\":\"recovered\"");
    os << retired << '\n';
    os << "{\"algorithm\":\"CAPS\",\"n\":51";  // torn tail, no newline
  }
  std::size_t skipped = 0;
  const auto records = load_checkpoint(path, &skipped);
  EXPECT_EQ(records.size(), 2u);  // the intact records still load
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(load_checkpoint(path).size(), 2u);  // count is optional
  std::remove(path.c_str());
}

TEST(CommAudit, LineRoundTripsEveryFieldExactly) {
  const CommAuditRecord original =
      run_comm_audit({"summa", 64, 4}, CommAuditOptions{});
  ASSERT_TRUE(original.completed());

  CommAuditRecord parsed;
  ASSERT_TRUE(parse_comm_audit_line(comm_audit_line(original), parsed));
  EXPECT_EQ(parsed.algorithm, original.algorithm);
  EXPECT_EQ(parsed.n, original.n);
  EXPECT_EQ(parsed.ranks, original.ranks);
  EXPECT_EQ(parsed.m_words, original.m_words);
  EXPECT_EQ(parsed.strassen_bound_words, original.strassen_bound_words);
  EXPECT_EQ(parsed.classical_bound_words, original.classical_bound_words);
  EXPECT_EQ(parsed.measured_max_rank_words, original.measured_max_rank_words);
  EXPECT_EQ(parsed.ratio_to_bound, original.ratio_to_bound);
  EXPECT_EQ(parsed.bound_kind, original.bound_kind);
  EXPECT_EQ(parsed.error, original.error);
  // The matrix round-trips in full — counters and clocks — so a
  // resumed report (matrix, critical path, bound tables) is
  // bit-identical to the live one.
  EXPECT_TRUE(parsed.matrix.deterministic_equal(original.matrix));
  for (int src = 0; src < 4; ++src) {
    EXPECT_EQ(parsed.matrix.rank(src).recv_wait_ns,
              original.matrix.rank(src).recv_wait_ns);
    EXPECT_EQ(parsed.matrix.rank(src).active_ns,
              original.matrix.rank(src).active_ns);
    for (int dst = 0; dst < 4; ++dst) {
      EXPECT_EQ(parsed.matrix.edge(src, dst).send_block_ns,
                original.matrix.edge(src, dst).send_block_ns);
    }
  }

  EXPECT_FALSE(parse_comm_audit_line("", parsed));
  EXPECT_FALSE(parse_comm_audit_line("garbage", parsed));
  const std::string line = comm_audit_line(original);
  EXPECT_FALSE(parse_comm_audit_line(line.substr(0, line.size() / 2), parsed));
  // Experiment records are a different kind, not a comm audit.
  EXPECT_FALSE(parse_comm_audit_line(checkpoint_line(sample_record()), parsed));
}

TEST(CommAudit, LineBytesArePinned) {
  CommAuditRecord r;
  r.algorithm = "summa";
  r.n = 8;
  r.ranks = 2;
  r.m_words = 1.0 / 3.0;
  r.strassen_bound_words = 12.5;
  r.classical_bound_words = 0.1 + 0.2;
  r.measured_max_rank_words = 48.0;
  r.ratio_to_bound = 1.5;
  r.bound_kind = "classical";
  r.error = kEscapedError;
  r.matrix = dist::CommMatrix(2);
  dist::EdgeStats& e = r.matrix.edge(0, 1);
  e.messages = 3;
  e.payload_bytes = 256;
  e.retransmits = 1;
  e.corruptions = 2;
  e.recv_messages = 3;
  e.recv_bytes = 256;
  e.send_block_ns = 77;
  dist::RankStats& s = r.matrix.rank(1);
  s.recv_wait_ns = 10;
  s.barrier_wait_ns = 20;
  s.barriers = 4;
  s.send_failures = 5;
  s.active_ns = 1000;

  const std::string line = comm_audit_line(r);
  EXPECT_EQ(line,
            "{\"kind\":\"comm_audit\",\"algorithm\":\"summa\",\"n\":8,"
            "\"ranks\":2,\"m_words\":0.33333333333333331,"
            "\"strassen_bound_words\":12.5,"
            "\"classical_bound_words\":0.30000000000000004,"
            "\"measured_max_rank_words\":48,\"ratio_to_bound\":1.5,"
            "\"bound_kind\":\"classical\","
            "\"error\":\"bad \\\"rank\\\" \\\\ 1\\nnext\\u0001end\","
            "\"edges\":[[0,0,0,0,0,0,0],[3,256,1,2,3,256,77],"
            "[0,0,0,0,0,0,0],[0,0,0,0,0,0,0]],"
            "\"rank_stats\":[[0,0,0,0,0],[10,20,4,5,1000]]}");
  CommAuditRecord parsed;
  ASSERT_TRUE(parse_comm_audit_line(line, parsed));
  EXPECT_EQ(parsed.error, kEscapedError);
  EXPECT_EQ(comm_audit_line(parsed), line);
}

TEST(JsonlCodec, DoublesRoundTripBitForBit) {
  EXPECT_EQ(jsonl::json_double(48.0), "48");
  EXPECT_EQ(jsonl::json_double(0.1), "0.10000000000000001");
  for (const double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 5e-324, DBL_MIN, DBL_MAX,
                         -2.5e300, 123456789.0}) {
    double back = 1.0;
    ASSERT_TRUE(jsonl::parse_double(jsonl::json_double(v), back)) << v;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << jsonl::json_double(v);
  }
}

TEST(JsonlCodec, UnescapeInvertsJsonEscapeForEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  const std::string escaped = telemetry::json_escape(all);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(jsonl::json_unescape(escaped), all);
  EXPECT_EQ(jsonl::json_unescape("a\\u0001b"), std::string("a\x01" "b"));
  EXPECT_EQ(jsonl::json_unescape("q\\\"\\\\"), "q\"\\");
}

TEST(JsonlCodec, FindValueSkipsSpacesAndStopsScalarsAtDelimiters) {
  const std::string line =
      "{\"a\": 12,\"b\":  \"x \\\"y\\\" z\",\"c\":-0.5}";
  std::string v;
  ASSERT_TRUE(jsonl::find_value(line, "a", v));
  EXPECT_EQ(v, "12");
  ASSERT_TRUE(jsonl::find_value(line, "b", v));
  EXPECT_EQ(v, "x \\\"y\\\" z");  // string contents stay escaped
  ASSERT_TRUE(jsonl::find_value(line, "c", v));
  EXPECT_EQ(v, "-0.5");
  ASSERT_TRUE(jsonl::find_value("[{\"k\":7]", "k", v));
  EXPECT_EQ(v, "7");
}

TEST(JsonlCodec, FindValueReportsMissingKeysAndTornValues) {
  std::string v = "untouched";
  EXPECT_FALSE(jsonl::find_value("{\"a\":1}", "b", v));
  EXPECT_FALSE(jsonl::find_value("{\"ab\":1}", "b", v));
  EXPECT_FALSE(jsonl::find_value("{\"a\":}", "a", v));
  EXPECT_FALSE(jsonl::find_value("{\"a\":", "a", v));
  EXPECT_FALSE(jsonl::find_value("{\"a\":   ", "a", v));
  EXPECT_FALSE(jsonl::find_value("{\"a\":\"torn", "a", v));
  EXPECT_FALSE(jsonl::find_value("{\"a\":\"torn\\\"", "a", v));
  EXPECT_EQ(v, "untouched");
}

TEST(JsonlCodec, NumericParsesNeedTheWholeToken) {
  double d = 0.0;
  EXPECT_TRUE(jsonl::parse_double("1e-3", d));
  EXPECT_EQ(d, 1e-3);
  EXPECT_FALSE(jsonl::parse_double("", d));
  EXPECT_FALSE(jsonl::parse_double("1.5.2", d));
  EXPECT_FALSE(jsonl::parse_double("2x", d));
  unsigned long long u = 0;
  EXPECT_TRUE(jsonl::parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_FALSE(jsonl::parse_u64("", u));
  EXPECT_FALSE(jsonl::parse_u64("12x", u));
  EXPECT_FALSE(jsonl::parse_u64("1.0", u));
}

TEST(JsonlCodec, ForEachLineSkipsEmptyLinesAndPassesTornTail) {
  const std::string path = ::testing::TempDir() + "capow_jsonl_lines.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"a\":1}\n\n{\"a\":2}\n\n{\"a\":3";
  }
  std::vector<std::string> lines;
  jsonl::for_each_line(path,
                       [&](const std::string& l) { lines.push_back(l); });
  EXPECT_EQ(lines, (std::vector<std::string>{"{\"a\":1}", "{\"a\":2}",
                                             "{\"a\":3"}));
  std::remove(path.c_str());

  lines.clear();
  jsonl::for_each_line(::testing::TempDir() + "capow_jsonl_missing.jsonl",
                       [&](const std::string& l) { lines.push_back(l); });
  EXPECT_TRUE(lines.empty());
}

TEST(CommAudit, SharesCheckpointFilesWithExperimentRecords) {
  // The two record kinds coexist in one JSONL file: each loader takes
  // its own lines and skips the other's without counting them corrupt.
  const std::string path = ::testing::TempDir() + "capow_ckpt_mixed.jsonl";
  std::remove(path.c_str());
  const CommAuditRecord audit =
      run_comm_audit({"dist_caps", 128, 2}, CommAuditOptions{});
  {
    std::ofstream os(path, std::ios::trunc);
    os << checkpoint_line(sample_record()) << '\n';
    os << comm_audit_line(audit) << '\n';
  }
  std::size_t skipped = 0;
  EXPECT_EQ(load_checkpoint(path, &skipped).size(), 1u);
  EXPECT_EQ(skipped, 0u);
  const auto audits = load_comm_audits(path);
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_TRUE(audits[0].matrix.deterministic_equal(audit.matrix));
  std::remove(path.c_str());
}

TEST(CommAudit, LoadDedupsByPointLastWins) {
  const std::string path = ::testing::TempDir() + "capow_ckpt_comm_dedup.jsonl";
  std::remove(path.c_str());
  CommAuditRecord first = run_comm_audit({"summa", 64, 4}, CommAuditOptions{});
  CommAuditRecord rerun = first;
  rerun.error = "poisoned on the second pass";
  {
    std::ofstream os(path, std::ios::trunc);
    os << comm_audit_line(first) << '\n';
    os << comm_audit_line(rerun) << '\n';
  }
  const auto audits = load_comm_audits(path);
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_EQ(audits[0].error, rerun.error);
  EXPECT_TRUE(load_comm_audits(path + ".missing").empty());
  std::remove(path.c_str());
}

TEST(CommAudit, RejectsUnsupportedPoints) {
  EXPECT_THROW(run_comm_audit({"cannon", 64, 4}, CommAuditOptions{}),
               std::invalid_argument);
  EXPECT_THROW(run_comm_audit({"summa", 64, 3}, CommAuditOptions{}),
               std::invalid_argument);  // 3 is not a square grid
  EXPECT_THROW(run_comm_audit({"summa", 0, 4}, CommAuditOptions{}),
               std::invalid_argument);
}

TEST(CommAudit, DefaultPointsBeatTheirBoundsAndScrapeDeterministically) {
  // The acceptance bar of the audit feature itself: every default
  // point's busiest rank measures at or above its algorithm's lower
  // bound, and the Prometheus exposition — deterministic fields only —
  // is identical across two independent runs (the CI determinism gate
  // diffs exactly this).
  std::vector<CommAuditRecord> first, second;
  for (const auto& point : default_comm_audit_points()) {
    first.push_back(run_comm_audit(point, CommAuditOptions{}));
    second.push_back(run_comm_audit(point, CommAuditOptions{}));
  }
  for (const auto& r : first) {
    EXPECT_TRUE(r.completed()) << r.algorithm << " n=" << r.n;
    EXPECT_GE(r.ratio_to_bound, 1.0) << r.algorithm << " n=" << r.n;
    EXPECT_TRUE(r.matrix.conserved()) << r.algorithm << " n=" << r.n;
  }
  telemetry::MetricsRegistry a, b;
  export_comm_metrics(a, first);
  export_comm_metrics(b, second);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_NE(a.to_text().find("capow_comm_bound_ratio"), std::string::npos);
}

TEST(CommAudit, TraceHasOneLanePerRankAndFlowArrows) {
  CommAuditOptions opts;
  opts.collect_trace = true;
  std::vector<telemetry::TraceEvent> events;
  std::uint64_t start_ns = 0;
  const CommAuditRecord rec =
      run_comm_audit({"summa", 64, 4}, opts, &events, &start_ns);
  ASSERT_TRUE(rec.completed());
  ASSERT_FALSE(events.empty());

  std::ostringstream os;
  export_comm_trace(events, rec.ranks, start_ns, os);
  const std::string json = os.str();
  // One lane (tid) per rank, named via thread_name metadata.
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(json.find("rank " + std::to_string(r)), std::string::npos);
  }
  // Matched send/recv pairs become flow arrows: starts and finishes
  // both present, and at least one arrow per posted message.
  const auto count = [&](const std::string& needle) {
    std::size_t hits = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++hits;
    }
    return hits;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));
  EXPECT_GE(count("\"ph\":\"s\""), rec.matrix.total_messages());
}

// Truncates `src` into `dst`, keeping `lines` complete lines plus a torn
// fragment of the next — the on-disk state a kill -9 leaves behind.
void truncate_checkpoint(const std::string& src, const std::string& dst,
                         std::size_t lines) {
  std::ifstream in(src);
  std::ofstream out(dst, std::ios::trunc);
  std::string line;
  std::size_t kept = 0;
  while (kept < lines && std::getline(in, line)) {
    out << line << '\n';
    ++kept;
  }
  if (std::getline(in, line)) {
    out << line.substr(0, line.size() / 2);  // torn, no newline
  }
}

TEST(Checkpoint, ResumeCompletesOnlyMissingConfigsIdentically) {
  const std::string full_path =
      ::testing::TempDir() + "capow_ckpt_full.jsonl";
  const std::string torn_path =
      ::testing::TempDir() + "capow_ckpt_torn.jsonl";
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());

  ExperimentConfig cfg = fault_config();
  cfg.checkpoint_path = full_path;
  ExperimentRunner uninterrupted(cfg);
  uninterrupted.run();

  truncate_checkpoint(full_path, torn_path, 3);
  ExperimentConfig rcfg = fault_config();
  rcfg.checkpoint_path = torn_path;
  rcfg.resume = true;
  ExperimentRunner resumed(rcfg);
  resumed.run();

  ASSERT_EQ(resumed.run().size(), uninterrupted.run().size());
  for (std::size_t i = 0; i < resumed.run().size(); ++i) {
    const auto& a = uninterrupted.run()[i];
    const auto& b = resumed.run()[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.seconds, b.seconds);  // replay + rerun, both bitwise
    EXPECT_EQ(a.package_watts, b.package_watts);
    EXPECT_EQ(a.pp0_watts, b.pp0_watts);
    EXPECT_EQ(a.package_energy_j, b.package_energy_j);
    EXPECT_EQ(a.ep, b.ep);
    EXPECT_EQ(a.status, b.status);
  }
  // The resumed run's checkpoint is itself complete and loadable, and
  // the runner reports the torn line it skipped (capow-report surfaces
  // this count so a damaged checkpoint never goes unnoticed).
  EXPECT_EQ(load_checkpoint(torn_path).size(), resumed.run().size());
  EXPECT_EQ(resumed.skipped_checkpoint_lines(), 1u);
  EXPECT_EQ(uninterrupted.skipped_checkpoint_lines(), 0u);
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

TEST(Checkpoint, FaultedResumeReproducesTheOriginalSchedule) {
  const std::string full_path =
      ::testing::TempDir() + "capow_ckpt_fault_full.jsonl";
  const std::string torn_path =
      ::testing::TempDir() + "capow_ckpt_fault_torn.jsonl";
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("run.fail=0.3,rapl.fail=0.5,seed=13");

  ExperimentConfig cfg = fault_config();
  cfg.checkpoint_path = full_path;
  std::vector<ResultRecord> original;
  {
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    ExperimentRunner runner(cfg);
    original = runner.run();
  }

  truncate_checkpoint(full_path, torn_path, 2);
  ExperimentConfig rcfg = fault_config();
  rcfg.checkpoint_path = torn_path;
  rcfg.resume = true;
  std::vector<ResultRecord> resumed;
  {
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    ExperimentRunner runner(rcfg);
    resumed = runner.run();
  }

  // Fault draws are keyed by matrix position, not execution history, so
  // the rerun configurations see the exact schedule the original saw.
  ASSERT_EQ(resumed.size(), original.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(original[i].status, resumed[i].status);
    EXPECT_EQ(original[i].attempts, resumed[i].attempts);
    EXPECT_EQ(original[i].seconds, resumed[i].seconds);
    EXPECT_EQ(original[i].package_watts, resumed[i].package_watts);
    EXPECT_EQ(original[i].error, resumed[i].error);
  }
  std::remove(full_path.c_str());
  std::remove(torn_path.c_str());
}

// ---- Table formatting.

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Algorithm", "N", "Watts"});
  t.add_row({"OpenBLAS", "512", "20.20"});
  t.add_row({"CAPS", "4096", "33.18"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Algorithm"), std::string::npos);
  EXPECT_NE(s.find("OpenBLAS"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Format, FixedAndSi) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_si(12.8e9, 1), "12.8G");
  EXPECT_EQ(fmt_si(0.000061, 1), "61.0u");
  EXPECT_EQ(fmt_si(0.0, 1), "0.0");
  EXPECT_EQ(fmt_si(1536.0, 2), "1.54k");
}

TEST(AlgorithmNames, AllNamed) {
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kOpenBlas), "OpenBLAS");
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kStrassen), "Strassen");
  EXPECT_STREQ(core::algorithm_name(AlgorithmId::kCaps), "CAPS");
}

}  // namespace
}  // namespace capow::harness
