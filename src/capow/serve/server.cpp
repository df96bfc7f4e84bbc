#include "capow/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "capow/core/env.hpp"
#include "capow/fault/fault.hpp"
#include "capow/tasking/task_group.hpp"

namespace capow::serve {

namespace {

/// Burst clones get ids in a disjoint decade above the trace ids
/// (clone k of request r is r + k * kBurstIdStride), keeping log lines
/// readable while staying collision-free for any realistic trace.
constexpr std::uint64_t kBurstIdStride = 1000000;

/// Real-time grace before a cancel drill fires in execute mode. Only
/// pacing for the *real* cooperative-cancel exercise; never consulted
/// by virtual accounting.
constexpr auto kCancelDrillDelay = std::chrono::milliseconds(5);

/// Nearest-rank percentile of an unsorted latency sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Deterministic operand fill for execute mode, keyed on the shape so
/// repeated shapes reuse cached operands.
void fill_operand(std::vector<double>& m, std::uint64_t salt) {
  std::uint64_t state = 0x5eedULL + salt;
  for (auto& x : m) {
    x = (static_cast<double>(splitmix64(state) >> 11) * 0x1p-53) * 2.0 - 1.0;
  }
}

}  // namespace

std::uint64_t TierStats::rejected_total() const noexcept {
  std::uint64_t n = 0;
  for (const auto r : rejected) n += r;
  return n;
}

std::string ServeReport::decision_log() const {
  std::string out;
  for (const auto& d : decisions) {
    out += format_decision(d);
    out += '\n';
  }
  return out;
}

ServeOptions ServeOptions::from_env() { return from_env(ServeOptions{}); }

ServeOptions ServeOptions::from_env(ServeOptions base) {
  if (const auto w =
          core::env_double_in("CAPOW_SERVE_BUDGET_W", 0.0, 1e9)) {
    base.budget.budget_w = *w;
  }
  if (const auto cap =
          core::env_integer_in("CAPOW_SERVE_QUEUE_CAP", 1, 1 << 20)) {
    base.queue_capacity = static_cast<std::size_t>(*cap);
  }
  if (const auto slots = core::env_integer_in("CAPOW_SERVE_SLOTS", 1, 4096)) {
    base.slots = static_cast<unsigned>(*slots);
  }
  if (const auto ms =
          core::env_integer_in("CAPOW_SERVE_WATCHDOG_MS", 0, 86400000)) {
    base.watchdog_s = static_cast<double>(*ms) * 1e-3;
  }
  return base;
}

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      predictor_(opts_.machine, opts_.threads),
      bucket_(opts_.budget),
      queue_(opts_.queue_capacity),
      rapl_reader_(msr_) {
  if (opts_.slots == 0) {
    throw std::invalid_argument("Server: slots must be >= 1");
  }
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument("Server: queue_capacity must be >= 1");
  }
  if (opts_.max_n == 0) {
    throw std::invalid_argument("Server: max_n must be >= 1");
  }
}

void Server::reset_run_state() {
  bucket_ = EnergyBudget(opts_.budget);
  queue_ = TierQueue(opts_.queue_capacity);
  running_.clear();
  logged_level_ = DegradeLevel::kNone;
  msr_.reset();
  rapl_reader_.reset();
  serve_one_clock_s_ = 0.0;
}

void Server::sync_level(double t_s, ServeReport& report) {
  const DegradeLevel level = bucket_.level();
  if (level == logged_level_) return;
  logged_level_ = level;
  Decision d;
  d.kind = Decision::Kind::kDegrade;
  d.t_s = t_s;
  d.level = level;
  report.decisions.push_back(d);
  report.degrade_transitions += 1;
  report.degrade_entries[static_cast<std::size_t>(level)] += 1;
}

core::AlgorithmId Server::choose_algorithm(const Request& req) {
  if (req.algorithm) return *req.algorithm;
  return predictor_.choose(req.n, bucket_.level() >= DegradeLevel::kEco)
      .algorithm;
}

abft::AbftMode Server::effective_abft(const Request& req) const {
  if (bucket_.level() >= DegradeLevel::kAbftRelax &&
      req.abft == abft::AbftMode::kCorrect) {
    return abft::AbftMode::kDetect;
  }
  return req.abft;
}

void Server::admit(const Request& req, double t_s, ServeReport& report) {
  auto& stats = report.tiers[static_cast<std::size_t>(req.tier)];
  stats.submitted += 1;

  const auto reject = [&](RejectReason reason) {
    stats.rejected[static_cast<std::size_t>(reason)] += 1;
    last_reject_ = reason;
    Decision d;
    d.kind = Decision::Kind::kReject;
    d.t_s = t_s;
    d.request_id = req.id;
    d.tier = req.tier;
    d.level = bucket_.level();
    d.reason = reason;
    report.decisions.push_back(d);
  };

  if (req.n == 0 || req.n > opts_.max_n) {
    reject(RejectReason::kOversized);
    return;
  }
  if (bucket_.level() >= DegradeLevel::kShed &&
      req.tier == QosTier::kBestEffort) {
    reject(RejectReason::kShedding);
    return;
  }
  if (queue_.full(req.tier)) {
    reject(RejectReason::kQueueFull);
    return;
  }

  QueuedRequest qr;
  qr.request = req;
  qr.algorithm = choose_algorithm(req);
  qr.abft = effective_abft(req);
  qr.prediction = predictor_.predict(qr.algorithm, req.n);
  qr.admit_t_s = t_s;
  qr.admit_level = bucket_.level();

  if (!bucket_.try_debit(qr.prediction.package_j, req.tier)) {
    reject(RejectReason::kEnergyBudget);
    return;
  }
  sync_level(t_s, report);  // the debit itself may escalate the ladder

  stats.admitted += 1;
  Decision d;
  d.kind = Decision::Kind::kAdmit;
  d.t_s = t_s;
  d.request_id = req.id;
  d.tier = req.tier;
  d.level = qr.admit_level;
  d.algorithm = qr.algorithm;
  d.joules = qr.prediction.package_j;
  report.decisions.push_back(d);
  queue_.push(std::move(qr));  // cannot fail: full() checked above
}

void Server::expire_due(double t_s, ServeReport& report) {
  for (auto& qr : queue_.take_expired(t_s)) {
    bucket_.refund(qr.prediction.package_j);
    auto& stats =
        report.tiers[static_cast<std::size_t>(qr.request.tier)];
    stats.expired += 1;
    Decision d;
    d.kind = Decision::Kind::kExpire;
    d.t_s = t_s;
    d.request_id = qr.request.id;
    d.tier = qr.request.tier;
    d.level = bucket_.level();
    d.joules = qr.prediction.package_j;
    report.decisions.push_back(d);
  }
  sync_level(t_s, report);  // refunds may step the ladder back down
}

void Server::dispatch_ready(double t_s, ServeReport& report) {
  auto* inj = fault::FaultInjector::active();
  while (running_.size() < opts_.slots) {
    auto qr = queue_.pop();
    if (!qr) break;

    Running r;
    r.qr = std::move(*qr);
    double service_s = r.qr.prediction.seconds;
    if (inj != nullptr &&
        inj->fire(fault::Site::kServeStall, fault::key(r.qr.request.id))) {
      inj->record(fault::Event::kServeStall);
      report.stalls += 1;
      r.stalled = true;
      const double stall_s = inj->plan().serve_stall_ms * 1e-3;
      // The watchdog grants prediction + watchdog_s of runtime; a
      // stall that overruns the grace gets the request cancelled at
      // exactly the grace deadline (work up to that point accounted).
      if (opts_.watchdog_s > 0.0 && stall_s > opts_.watchdog_s) {
        r.cancelled = true;
        service_s += opts_.watchdog_s;
      } else {
        service_s += stall_s;
      }
    }
    r.finish_t_s = t_s + service_s;

    Decision d;
    d.kind = Decision::Kind::kDispatch;
    d.t_s = t_s;
    d.request_id = r.qr.request.id;
    d.tier = r.qr.request.tier;
    d.level = bucket_.level();
    d.algorithm = r.qr.algorithm;
    report.decisions.push_back(d);
    running_.push_back(std::move(r));
  }
}

void Server::complete(const Running& r, ServeReport& report) {
  auto& stats =
      report.tiers[static_cast<std::size_t>(r.qr.request.tier)];
  stats.joules += r.qr.prediction.package_j;
  // Predicted energy becomes "measured" energy by depositing into the
  // simulated RAPL device; finalize() reads it back through a
  // RaplReader, so injected rapl.fail faults degrade the budget
  // read-back exactly as they would a real power-capped service.
  msr_.deposit(machine::PowerPlane::kPackage, r.qr.prediction.package_j);

  Decision d;
  d.t_s = r.finish_t_s;
  d.request_id = r.qr.request.id;
  d.tier = r.qr.request.tier;
  d.level = bucket_.level();
  d.algorithm = r.qr.algorithm;
  if (r.cancelled) {
    stats.cancelled += 1;
    d.kind = Decision::Kind::kCancel;
  } else {
    stats.completed += 1;
    d.kind = Decision::Kind::kComplete;
    d.joules = r.qr.prediction.package_j;
  }
  report.decisions.push_back(d);
}

void Server::execute_request(const Running& r, ServeReport& report) {
  const std::size_t n = r.qr.request.n;
  static thread_local std::unordered_map<std::size_t,
                                         std::vector<double>> a_cache;
  auto& a = a_cache[n];
  std::vector<double> b(n * n), c(n * n, 0.0);
  if (a.size() != n * n) {
    a.assign(n * n, 0.0);
    fill_operand(a, n);
  }
  fill_operand(b, n + 1);

  MatmulOptions mo;
  mo.algorithm = r.qr.algorithm;
  mo.pool = opts_.pool;
  mo.abft.mode = r.qr.abft;

  if (r.cancelled && opts_.pool != nullptr &&
      opts_.pool->concurrency() > 0) {
    // Drive the *real* cooperative-cancel path: the worker stalls in
    // small slices polling TaskGroup::cancelled(), the engine thread
    // plays watchdog and cancels it. The matmul never runs — exactly
    // what the virtual accounting already charged as cancelled work.
    tasking::TaskGroup tg(*opts_.pool);
    tg.run([&tg] {
      for (int i = 0; i < 1000 && !tg.cancelled(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::this_thread::sleep_for(kCancelDrillDelay);
    tg.cancel();
    tg.wait();
    report.cancel_drills += 1;
    return;
  }
  if (r.cancelled) return;  // no pool to drill against

  linalg::ConstMatrixView av{a.data(), n, n, n};
  linalg::ConstMatrixView bv{b.data(), n, n, n};
  linalg::MatrixView cv{c.data(), n, n, n};
  matmul(av, bv, cv, mo);
  report.executed += 1;
}

ServeReport Server::run(const std::vector<Request>& trace) {
  reset_run_state();
  ServeReport report;
  report.budget_w = opts_.budget.budget_w;

  std::vector<Request> arrivals = trace;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Request& x, const Request& y) {
                     return x.arrival_s < y.arrival_s ||
                            (x.arrival_s == y.arrival_s && x.id < y.id);
                   });

  auto* inj = fault::FaultInjector::active();
  std::size_t next_arrival = 0;
  double now = 0.0;

  while (next_arrival < arrivals.size() || !running_.empty() ||
         !queue_.empty()) {
    // Earliest completion, if any.
    std::size_t done_idx = running_.size();
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (done_idx == running_.size() ||
          running_[i].finish_t_s < running_[done_idx].finish_t_s) {
        done_idx = i;
      }
    }
    const bool have_done = done_idx < running_.size();
    const bool have_arrival = next_arrival < arrivals.size();

    // Completions win virtual-time ties against arrivals (documented
    // tie-break: a freed slot is visible to a same-instant arrival).
    if (have_done &&
        (!have_arrival ||
         running_[done_idx].finish_t_s <=
             arrivals[next_arrival].arrival_s)) {
      Running r = std::move(running_[done_idx]);
      running_.erase(running_.begin() +
                     static_cast<std::ptrdiff_t>(done_idx));
      now = r.finish_t_s;
      bucket_.advance(now);
      sync_level(now, report);
      complete(r, report);
      if (opts_.execute) execute_request(r, report);
      expire_due(now, report);
      dispatch_ready(now, report);
      continue;
    }
    if (have_arrival) {
      const Request req = arrivals[next_arrival++];
      now = req.arrival_s;
      bucket_.advance(now);
      sync_level(now, report);
      expire_due(now, report);
      admit(req, now, report);
      if (inj != nullptr &&
          inj->fire(fault::Site::kServeBurst, fault::key(req.id))) {
        inj->record(fault::Event::kServeBurst);
        report.bursts += 1;
        const auto copies = static_cast<std::uint64_t>(
            inj->plan().serve_burst_copies);
        for (std::uint64_t k = 1; k <= copies; ++k) {
          Request clone = req;
          clone.id = req.id + k * kBurstIdStride;
          admit(clone, now, report);
        }
      }
      dispatch_ready(now, report);
      continue;
    }
    // No completions pending and no arrivals left, yet the queue holds
    // work: every slot must be free (dispatch_ready fills them), so
    // this is unreachable unless a deadline blocked dispatch — drain
    // defensively by expiring everything left.
    expire_due(now + 1e9, report);
  }

  report.duration_s = now;
  finalize(report);
  return report;
}

void Server::finalize(ServeReport& report) {
  for (const auto& t : report.tiers) report.predicted_joules += t.joules;

  // Per-tier latency percentiles from the completion decisions (virtual
  // completion time minus virtual arrival).
  std::vector<double> lat[kTierCount];
  std::unordered_map<std::uint64_t, double> arrival_by_id;
  for (const auto& d : report.decisions) {
    if (d.kind == Decision::Kind::kAdmit) {
      // Admission time is not arrival time for burst clones, but both
      // carry the original's arrival instant, so admit t == arrival t.
      arrival_by_id.emplace(d.request_id, d.t_s);
    } else if (d.kind == Decision::Kind::kComplete) {
      const auto it = arrival_by_id.find(d.request_id);
      if (it != arrival_by_id.end()) {
        lat[static_cast<std::size_t>(d.tier)].push_back(d.t_s -
                                                        it->second);
      }
    }
  }
  for (std::size_t i = 0; i < kTierCount; ++i) {
    auto& stats = report.tiers[i];
    stats.p50_s = percentile(lat[i], 0.50);
    stats.p99_s = percentile(lat[i], 0.99);
    stats.max_s =
        lat[i].empty() ? 0.0 : *std::max_element(lat[i].begin(),
                                                 lat[i].end());
  }

  // Reconcile predicted energy against the RAPL read-back path: what a
  // deployed capowd would actually see when it audits its own budget.
  report.measured_joules =
      rapl_reader_.energy_joules(machine::PowerPlane::kPackage);
  report.rapl_degraded = rapl_reader_.degraded();
  report.rapl_wraps = rapl_reader_.wraps();
  report.final_fill_ratio = bucket_.fill_ratio();
  report.achieved_w = report.duration_s > 0.0
                          ? report.predicted_joules / report.duration_s
                          : 0.0;

  const auto& g = report.tier(QosTier::kGuaranteed);
  report.slo_met = g.expired == 0 && g.cancelled == 0 &&
                   g.rejected_for(RejectReason::kShedding) == 0 &&
                   (g.completed == 0 ||
                    g.p99_s <= opts_.guaranteed_p99_slo_s);
  report.budget_met =
      report.budget_w <= 0.0 ||
      report.achieved_w <=
          report.budget_w * (1.0 + opts_.budget_tolerance);
}

Outcome Server::serve_one(const Request& req, linalg::ConstMatrixView a,
                          linalg::ConstMatrixView b, linalg::MatrixView c) {
  // The synchronous path shares admission (oversized gate + energy
  // debit at the running serve_one clock) but executes inline: with an
  // idle service and a full bucket this is a pass-through to
  // capow::matmul() — the unloaded bit-identity contract. All three
  // operands are checked before the debit, so a shape matmul() would
  // throw on never spends budget.
  serve_one_clock_s_ += 1e-6;
  bucket_.advance(serve_one_clock_s_);
  const auto n_by_n = [n = req.n](const auto& v) {
    return v.rows() == n && v.cols() == n;
  };
  if (req.n == 0 || req.n > opts_.max_n || !n_by_n(a) || !n_by_n(b) ||
      !n_by_n(c)) {
    last_reject_ = RejectReason::kOversized;
    return Outcome::kRejected;
  }
  if (bucket_.level() >= DegradeLevel::kShed &&
      req.tier == QosTier::kBestEffort) {
    last_reject_ = RejectReason::kShedding;
    return Outcome::kRejected;
  }
  const core::AlgorithmId algorithm = choose_algorithm(req);
  const Prediction& p = predictor_.predict(algorithm, req.n);
  if (!bucket_.try_debit(p.package_j, req.tier)) {
    last_reject_ = RejectReason::kEnergyBudget;
    return Outcome::kRejected;
  }
  MatmulOptions mo;
  mo.algorithm = algorithm;
  mo.pool = opts_.pool;
  mo.abft.mode = effective_abft(req);
  matmul(a, b, c, mo);
  msr_.deposit(machine::PowerPlane::kPackage, p.package_j);
  return Outcome::kCompleted;
}

void export_serve_metrics(const ServeReport& report,
                          telemetry::MetricsRegistry& registry) {
  registry.family("capow_serve_requests_total",
                  "Requests by tier and terminal outcome", "counter");
  std::uint64_t shed_total = 0;
  for (std::size_t i = 0; i < kTierCount; ++i) {
    const auto tier = static_cast<QosTier>(i);
    const auto& t = report.tiers[i];
    const std::string name = tier_name(tier);
    registry.sample({{"tier", name}, {"outcome", "completed"}},
                    static_cast<double>(t.completed));
    registry.sample({{"tier", name}, {"outcome", "rejected"}},
                    static_cast<double>(t.rejected_total()));
    registry.sample({{"tier", name}, {"outcome", "expired"}},
                    static_cast<double>(t.expired));
    registry.sample({{"tier", name}, {"outcome", "cancelled"}},
                    static_cast<double>(t.cancelled));
    shed_total += t.rejected_for(RejectReason::kShedding);
  }

  bool any_reject = false;
  for (const auto& t : report.tiers) {
    any_reject = any_reject || t.rejected_total() > 0;
  }
  if (any_reject) {
    registry.family("capow_serve_rejected_total",
                    "Admission rejections by tier and reason", "counter");
    for (std::size_t i = 0; i < kTierCount; ++i) {
      const auto& t = report.tiers[i];
      for (std::size_t r = 0; r < t.rejected.size(); ++r) {
        if (t.rejected[r] == 0) continue;
        registry.sample(
            {{"tier", tier_name(static_cast<QosTier>(i))},
             {"reason",
              reject_reason_name(static_cast<RejectReason>(r))}},
            static_cast<double>(t.rejected[r]));
      }
    }
  }

  registry.set("capow_serve_shed_total",
               "Best-effort requests turned away by the shed rung", {},
               static_cast<double>(shed_total), "counter");
  registry.family("capow_serve_degraded_total",
                  "Entries into each degradation ladder level",
                  "counter");
  for (std::size_t l = 1; l < kDegradeLevelCount; ++l) {
    registry.sample(
        {{"level", degrade_level_name(static_cast<DegradeLevel>(l))}},
        static_cast<double>(report.degrade_entries[l]));
  }

  registry.family("capow_serve_latency_seconds",
                  "Virtual completion latency quantiles by tier");
  for (std::size_t i = 0; i < kTierCount; ++i) {
    const auto& t = report.tiers[i];
    const std::string name = tier_name(static_cast<QosTier>(i));
    registry.sample({{"tier", name}, {"quantile", "0.5"}}, t.p50_s);
    registry.sample({{"tier", name}, {"quantile", "0.99"}}, t.p99_s);
  }

  registry.family("capow_serve_energy_joules",
                  "Energy spent serving (predicted vs RAPL read-back)");
  registry.sample({{"kind", "predicted"}}, report.predicted_joules);
  registry.sample({{"kind", "measured"}}, report.measured_joules);
  registry.set("capow_serve_budget_watts",
               "Configured power budget (0 = unlimited)", {},
               report.budget_w);
  registry.set("capow_serve_achieved_watts",
               "Predicted joules per virtual second over the run", {},
               report.achieved_w);
  registry.set("capow_serve_rapl_degraded",
               "1 when the budget's RAPL read-back path degraded", {},
               report.rapl_degraded ? 1.0 : 0.0);
  if (report.rapl_wraps > 0) {
    registry.set("capow_serve_rapl_wraps_total",
                 "Energy-counter wraps folded by the budget reader", {},
                 static_cast<double>(report.rapl_wraps), "counter");
  }
}

}  // namespace capow::serve
