// capowd: a long-running, overload-safe matmul service over
// capow::matmul().
//
// The paper measures matmuls one at a time; a service has to survive
// *many at once, forever, under a power budget*. capowd composes the
// repo's existing pieces into that shape:
//
//   * admission control — a token bucket denominated in predicted
//     joules (admission.hpp) fed by the validated cost models
//     (predictor.hpp); overload produces typed rejections, never an
//     unbounded queue (queue.hpp),
//   * per-request deadlines — queued requests past their deadline are
//     expired (joules refunded), and a dispatched request that stalls
//     beyond its watchdog grace is cooperatively cancelled
//     (tasking::TaskGroup::cancel), with the cancelled work accounted,
//   * graceful degradation — the bucket's fill ratio drives a ladder:
//     eco algorithm choice (Eq 9 model, minimum predicted joules) ->
//     ABFT correct relaxed to detect -> best-effort traffic shed; every
//     transition is a logged, counted decision.
//
// Determinism contract: the engine runs queueing dynamics on a
// *virtual* clock — arrivals come from a seeded trace (loadgen.hpp),
// service times are model predictions, and fault draws (serve.burst,
// serve.stall) are keyed on request ids. The decision sequence is
// therefore a pure function of (trace, options, fault plan): the
// serve-smoke CI job runs the same seed twice and byte-diffs
// ServeReport::decision_log(). Real matmul execution (execute mode) is
// one-way decoupled: wall-clock behaviour of the worker pool never
// feeds back into a decision. With no load and no degradation the
// service is transparent — serve_one() forwards to capow::matmul()
// with pass-through options, bit-identical to a direct call.
//
// Tie-breaks, documented because byte-diffs depend on them: events at
// equal virtual time process completions before arrivals; queued
// expiry is evaluated at event times (the decision timestamps the
// event, not the exact deadline instant); burst clones of an arrival
// are admitted immediately after their original, in copy order.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "capow/api/matmul.hpp"
#include "capow/rapl/msr.hpp"
#include "capow/serve/admission.hpp"
#include "capow/serve/loadgen.hpp"
#include "capow/serve/predictor.hpp"
#include "capow/serve/queue.hpp"
#include "capow/serve/request.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/telemetry/export.hpp"

namespace capow::serve {

/// Service configuration. Numeric CAPOW_SERVE_* environment overrides
/// are applied by from_env() using the shared strict grammar
/// (core/env.hpp): a malformed value stops the run with an error that
/// names the variable — a service must not start under a typo'd budget.
struct ServeOptions {
  /// Machine model the cost predictor runs against.
  machine::MachineSpec machine = machine::haswell_e3_1225();
  /// Modeled worker threads per executor slot.
  unsigned threads = 4;
  /// Concurrent executor slots (CAPOW_SERVE_SLOTS).
  unsigned slots = 2;
  /// Per-tier queue bound (CAPOW_SERVE_QUEUE_CAP).
  std::size_t queue_capacity = 8;
  /// Requests above this dimension are rejected kOversized.
  std::size_t max_n = 4096;
  /// Energy budget and ladder thresholds; budget.budget_w is the
  /// service's power contract (CAPOW_SERVE_BUDGET_W; <= 0 disables).
  EnergyBudgetOptions budget;
  /// Stall grace: a dispatched request is cancelled once its runtime
  /// exceeds prediction + watchdog_s (CAPOW_SERVE_WATCHDOG_MS; <= 0
  /// disables cancellation).
  double watchdog_s = 0.25;
  /// SLO: guaranteed-tier p99 completion latency target.
  double guaranteed_p99_slo_s = 1.5;
  /// Budget verdict headroom: achieved watts may exceed budget by this
  /// relative tolerance before budget_met flips false.
  double budget_tolerance = 0.10;
  /// When true, dispatched requests also execute real matmuls on
  /// `pool` (results discarded; virtual accounting unaffected), and
  /// virtually-cancelled requests drive the real cooperative-cancel
  /// path through a TaskGroup.
  bool execute = false;
  /// Worker pool for execute mode and serve_one(); null serves inline.
  tasking::ThreadPool* pool = nullptr;

  /// Applies CAPOW_SERVE_BUDGET_W / CAPOW_SERVE_QUEUE_CAP /
  /// CAPOW_SERVE_SLOTS / CAPOW_SERVE_WATCHDOG_MS on top of `base`
  /// (defaults when omitted). Throws std::invalid_argument naming the
  /// offending variable.
  static ServeOptions from_env(ServeOptions base);
  static ServeOptions from_env();
};

/// Per-tier outcome accounting (virtual latencies, predicted joules).
struct TierStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::array<std::uint64_t, 4> rejected{};  ///< by RejectReason
  double joules = 0.0;  ///< predicted joules spent (completed+cancelled)
  double p50_s = 0.0;   ///< completion latency percentiles (virtual)
  double p99_s = 0.0;
  double max_s = 0.0;

  std::uint64_t rejected_total() const noexcept;
  std::uint64_t rejected_for(RejectReason r) const noexcept {
    return rejected[static_cast<std::size_t>(r)];
  }
};

/// Everything one service run produced. The decision log is the
/// determinism surface; the verdicts are what CI asserts.
struct ServeReport {
  std::array<TierStats, kTierCount> tiers{};
  std::vector<Decision> decisions;
  /// Entries into each ladder level (index by DegradeLevel).
  std::array<std::uint64_t, kDegradeLevelCount> degrade_entries{};
  std::uint64_t degrade_transitions = 0;
  std::uint64_t bursts = 0;        ///< serve.burst amplifications
  std::uint64_t stalls = 0;        ///< serve.stall injections
  double duration_s = 0.0;         ///< virtual makespan
  double predicted_joules = 0.0;   ///< spent (completed + cancelled)
  double measured_joules = 0.0;    ///< read back through RaplReader
  double achieved_w = 0.0;         ///< predicted_joules / duration
  double budget_w = 0.0;
  double final_fill_ratio = 1.0;
  bool rapl_degraded = false;      ///< budget reads degraded (rapl.fail)
  std::uint64_t rapl_wraps = 0;
  bool slo_met = false;     ///< guaranteed p99 <= target, none expired
  bool budget_met = false;  ///< achieved_w <= budget * (1 + tolerance)
  /// Execute-mode observability (not part of the determinism surface).
  std::uint64_t executed = 0;       ///< real matmuls run
  std::uint64_t cancel_drills = 0;  ///< real TaskGroup cancels driven

  const TierStats& tier(QosTier t) const noexcept {
    return tiers[static_cast<std::size_t>(t)];
  }
  /// All decision lines joined with '\n' (trailing newline included) —
  /// the exact bytes the serve-smoke job diffs.
  std::string decision_log() const;
};

/// The service engine. Owns the predictor, bucket, queue and the
/// simulated RAPL device its energy accounting reconciles through.
class Server {
 public:
  /// Throws std::invalid_argument for slots/threads/queue_capacity of 0
  /// or inconsistent budget options.
  explicit Server(ServeOptions opts);

  const ServeOptions& options() const noexcept { return opts_; }

  /// Runs the trace to completion (all arrivals processed, queue and
  /// slots drained) and returns the report. Resets all state first, so
  /// a Server can run several traces; decisions restart at t=0.
  ServeReport run(const std::vector<Request>& trace);

  /// Synchronous unloaded path: full admission (oversized check,
  /// energy debit, algorithm choice at the current ladder level), then
  /// the matmul executes inline via capow::matmul() with pass-through
  /// options — bit-identical to a direct call with the same options.
  /// Returns kCompleted or kRejected (c untouched when rejected). Before
  /// the debit, operands not n x n for req.n are rejected kOversized and
  /// linalg::check_product throws on the rest as matmul() would.
  Outcome serve_one(const Request& req, linalg::ConstMatrixView a,
                    linalg::ConstMatrixView b, linalg::MatrixView c);

  /// Rejection details for the last serve_one() that returned
  /// kRejected.
  RejectReason last_reject_reason() const noexcept { return last_reject_; }

 private:
  struct Running {
    QueuedRequest qr;
    double finish_t_s = 0.0;
    bool cancelled = false;
    bool stalled = false;
  };

  void reset_run_state();
  void sync_level(double t_s, ServeReport& report);
  void admit(const Request& req, double t_s, ServeReport& report);
  void expire_due(double t_s, ServeReport& report);
  void dispatch_ready(double t_s, ServeReport& report);
  void complete(const Running& r, ServeReport& report);
  void execute_request(const Running& r, ServeReport& report);
  core::AlgorithmId choose_algorithm(const Request& req);
  abft::AbftMode effective_abft(const Request& req) const;
  void finalize(ServeReport& report);

  ServeOptions opts_;
  CostPredictor predictor_;
  EnergyBudget bucket_;
  TierQueue queue_;
  std::vector<Running> running_;
  DegradeLevel logged_level_ = DegradeLevel::kNone;
  rapl::SimulatedMsrDevice msr_;
  /// Lives across the whole run: RaplReader latches its baseline at
  /// construction/reset(), so a reader created only at finalize() time
  /// would read an energy delta of zero.
  rapl::RaplReader rapl_reader_;
  RejectReason last_reject_ = RejectReason::kQueueFull;
  double serve_one_clock_s_ = 0.0;
};

/// Exports a report as Prometheus families (capow_serve_*) — the
/// telemetry surface the ISSUE's overload studies scrape: per-tier
/// outcome/rejection counters, shed and degrade totals, per-tier
/// latency quantiles, predicted vs measured joules, budget vs achieved
/// watts, and the RAPL health of the budget read-back path.
void export_serve_metrics(const ServeReport& report,
                          telemetry::MetricsRegistry& registry);

}  // namespace capow::serve
