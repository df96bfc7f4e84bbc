#include "capow/harness/experiment.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "capow/abft/abft.hpp"
#include "capow/api/matmul.hpp"
#include "capow/fault/fault.hpp"
#include "capow/harness/checkpoint.hpp"
#include "capow/harness/telemetry_export.hpp"
#include "capow/rapl/papi.hpp"
#include "capow/sim/executor.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::harness {

const char* to_string(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kRetried:
      return "retried";
    case RunStatus::kCorrected:
      return "corrected";
    case RunStatus::kDegraded:
      return "degraded";
    case RunStatus::kFailed:
      return "failed";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {
  config_.machine.validate();
  if (config_.sizes.empty() || config_.thread_counts.empty()) {
    throw std::invalid_argument(
        "ExperimentRunner: empty size or thread list");
  }
}

const std::vector<ResultRecord>& ExperimentRunner::run() {
  if (ran_) return results_;

  std::vector<ResultRecord> resumed;
  if (config_.resume && !config_.checkpoint_path.empty()) {
    resumed =
        load_checkpoint(config_.checkpoint_path, &skipped_checkpoint_lines_);
  }
  CheckpointWriter writer;
  if (!config_.checkpoint_path.empty()) {
    // Resume appends (replayed records are already on disk); a fresh
    // run truncates any stale checkpoint.
    writer = CheckpointWriter(config_.checkpoint_path, config_.resume);
  }

  const auto replayable = [&resumed](core::AlgorithmId a, std::size_t n,
                                     unsigned t) -> const ResultRecord* {
    for (const auto& r : resumed) {
      if (r.algorithm == a && r.n == n && r.threads == t &&
          r.status != RunStatus::kFailed) {
        return &r;
      }
    }
    return nullptr;
  };

  results_.reserve(3 * config_.sizes.size() * config_.thread_counts.size());
  // run_index follows fixed matrix order so each configuration draws
  // the same fault schedule whether reached fresh or via --resume.
  std::uint64_t run_index = 0;
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (std::size_t n : config_.sizes) {
      for (unsigned t : config_.thread_counts) {
        if (const ResultRecord* prior = replayable(a, n, t)) {
          results_.push_back(*prior);
        } else {
          results_.push_back(run_one(a, n, t, run_index));
          writer.append(results_.back());
        }
        ++run_index;
      }
    }
  }
  ran_ = true;
  return results_;
}

namespace {

/// Shared state between a watchdogged attempt and its supervisor. The
/// attempt thread is detached on timeout, so everything it touches
/// lives in this shared block, never in the supervisor's frame.
struct AttemptSlot {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  ResultRecord record;
  bool degraded = false;
  std::exception_ptr error;
  /// Set by the supervisor on timeout. The attempt checks it after the
  /// injected stall and bails out before it measures (measure_one reads
  /// the injector's RAPL sites), so an abandoned attempt cannot perturb
  /// the (deterministic) fault schedule of the retry that replaces it.
  std::atomic<bool> abandoned{false};
};

/// One measurement attempt: quiesce, latch RAPL baselines through the
/// PAPI-style event set, run, read the deltas — the sequence the
/// paper's instrumented test driver executes. Self-contained (config by
/// value, no runner state) so it can outlive an abandoning supervisor.
ResultRecord measure_one(const ExperimentConfig& config, core::AlgorithmId a,
                         std::size_t n, unsigned threads,
                         double quiesce_seconds, bool& degraded) {
  const sim::WorkProfile profile =
      matmul_profile(n, config.machine, threads, {.algorithm = a});

  rapl::SimulatedMsrDevice msr;
  if (quiesce_seconds > 0.0) {
    sim::simulate_idle(config.machine, quiesce_seconds, msr);
  }

  fault::FaultInjector* inj = fault::FaultInjector::active();
  if (inj != nullptr && inj->plan().rapl_wrap) {
    // Bias every plane's 32-bit counter to just below wrap so the run
    // measures across a wraparound — the ~262144 J blind spot a naive
    // reader would fold into a bogus delta.
    constexpr std::uint64_t kWrap = 1ull << 32;
    constexpr std::uint64_t kHeadroomCounts = 1000;
    for (auto plane :
         {machine::PowerPlane::kPackage, machine::PowerPlane::kPP0,
          machine::PowerPlane::kDram}) {
      const auto counts = static_cast<std::uint64_t>(
          msr.total_joules(plane) / msr.joules_per_count());
      msr.deposit(plane,
                  static_cast<double>(kWrap - kHeadroomCounts -
                                      counts % kWrap) *
                      msr.joules_per_count());
    }
  }

  rapl::EventSet events(msr);
  events.add_event(rapl::kEventPackageEnergy);
  events.add_event(rapl::kEventPp0Energy);
  events.start();
  const sim::RunResult run =
      sim::simulate(config.machine, profile, threads, &msr);
  const auto nj = events.stop();
  degraded = events.degraded();

  ResultRecord r;
  r.rapl_wraps = events.wraps();
  r.rapl_retries = events.retries();
  r.algorithm = a;
  r.n = n;
  r.threads = threads;
  r.seconds = run.seconds;
  r.package_energy_j = static_cast<double>(nj[0]) * 1e-9;
  r.package_watts = r.seconds > 0.0 ? r.package_energy_j / r.seconds : 0.0;
  r.pp0_watts =
      r.seconds > 0.0 ? static_cast<double>(nj[1]) * 1e-9 / r.seconds : 0.0;
  r.ep = core::energy_performance(r.package_watts, r.seconds);
  return r;
}

/// Runs one attempt under the watchdog (or inline when disabled).
/// Throws on attempt failure or timeout; returns via `slot` otherwise.
void run_attempt(const ExperimentConfig& config, core::AlgorithmId a,
                 std::size_t n, unsigned threads, double quiesce_seconds,
                 const std::shared_ptr<AttemptSlot>& slot) {
  // The attempt's run.stall and run.fail draws happen here, on the
  // supervisor: an attempt the watchdog abandons keeps running detached,
  // and the injector may live in a caller's frame that has returned by
  // then. The draws are pure functions of the plan and the run key.
  fault::FaultInjector* const inj = fault::FaultInjector::active();
  const bool stall = inj != nullptr && inj->fire(fault::Site::kRunStall, 0);
  const double stall_ms = stall ? inj->plan().run_stall_ms : 0.0;
  const bool fail = inj != nullptr && inj->fire(fault::Site::kRunFail, 0);
  const auto body = [config, a, n, threads, quiesce_seconds, slot, stall,
                     stall_ms, fail] {
    try {
      if (stall) {
        telemetry::instant("fault.run.stall", "harness");
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(stall_ms));
      }
      if (slot->abandoned.load(std::memory_order_acquire)) return;
      if (fail) {
        telemetry::instant("fault.run.fail", "harness");
        throw std::runtime_error("injected run failure (run.fail)");
      }
      bool degraded = false;
      ResultRecord rec =
          measure_one(config, a, n, threads, quiesce_seconds, degraded);
      std::lock_guard lock(slot->mutex);
      slot->record = std::move(rec);
      slot->degraded = degraded;
      slot->done = true;
      slot->cv.notify_all();
    } catch (...) {
      std::lock_guard lock(slot->mutex);
      slot->error = std::current_exception();
      slot->done = true;
      slot->cv.notify_all();
    }
  };

  if (config.run_timeout_seconds <= 0.0) {
    body();
  } else {
    std::thread(body).detach();
    std::unique_lock lock(slot->mutex);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config.run_timeout_seconds));
    if (!slot->cv.wait_until(lock, deadline, [&] { return slot->done; })) {
      slot->abandoned.store(true, std::memory_order_release);
      if (inj != nullptr) inj->record(fault::Event::kRunTimeout);
      telemetry::instant("fault.run.timeout", "harness");
      throw std::runtime_error(
          "run watchdog: attempt exceeded " +
          std::to_string(config.run_timeout_seconds) + "s");
    }
  }
  std::lock_guard lock(slot->mutex);
  if (slot->error) std::rethrow_exception(slot->error);
}

}  // namespace

ResultRecord ExperimentRunner::run_one(core::AlgorithmId a, std::size_t n,
                                       unsigned threads,
                                       std::uint64_t run_index) {
  fault::FaultInjector* inj = fault::FaultInjector::active();
  const int max_attempts =
      config_.max_run_attempts < 1 ? 1 : config_.max_run_attempts;
  std::string last_error = "unknown failure";

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (inj != nullptr) {
      // Namespace every fault draw by (matrix position, attempt): the
      // schedule is a function of where we are, not how we got here —
      // the property that makes --resume reproduce the original run.
      inj->begin_run(
          fault::key(run_index, static_cast<std::uint64_t>(attempt)));
    }
    auto slot = std::make_shared<AttemptSlot>();
    // Retries quiesce longer (machine settle time after a failure).
    const double quiesce =
        config_.quiesce_seconds *
        std::pow(config_.retry_quiesce_factor < 1.0
                     ? 1.0
                     : config_.retry_quiesce_factor,
                 attempt - 1);
    // A detection during the surviving attempt marks the record
    // kCorrected: the numbers are right (ABFT repaired them) but the
    // run was not clean, and downstream should be able to tell.
    const std::uint64_t abft_detected_before = abft::counters().detected;
    try {
      run_attempt(config_, a, n, threads, quiesce, slot);
      ResultRecord rec;
      bool degraded = false;
      {
        std::lock_guard lock(slot->mutex);
        rec = std::move(slot->record);
        degraded = slot->degraded;
      }
      rec.attempts = attempt;
      if (degraded) {
        rec.status = RunStatus::kDegraded;
        if (inj != nullptr) inj->record(fault::Event::kRunDegraded);
      } else if (abft::counters().detected > abft_detected_before) {
        rec.status = RunStatus::kCorrected;
      } else if (attempt > 1) {
        rec.status = RunStatus::kRetried;
      } else {
        rec.status = RunStatus::kOk;
      }
      return rec;
    } catch (const std::exception& e) {
      last_error = e.what();
      if (attempt < max_attempts && inj != nullptr) {
        inj->record(fault::Event::kRunRetry);
      }
    }
  }

  if (inj != nullptr) inj->record(fault::Event::kRunFailure);
  ResultRecord rec;
  rec.algorithm = a;
  rec.n = n;
  rec.threads = threads;
  rec.status = RunStatus::kFailed;
  rec.attempts = max_attempts;
  rec.error = last_error;
  return rec;
}

const ResultRecord& ExperimentRunner::find(core::AlgorithmId a, std::size_t n,
                                           unsigned threads) const {
  for (const auto& r : results_) {
    if (r.algorithm == a && r.n == n && r.threads == threads) return r;
  }
  throw std::out_of_range(
      "ExperimentRunner::find: no record for " +
      std::string(core::algorithm_name(a)) + " n=" + std::to_string(n) +
      " t=" + std::to_string(threads) + " (did you call run()?)");
}

namespace {
/// Failed configurations carry zeroed metrics; averaging them in would
/// corrupt the table, so the aggregation queries skip them. An average
/// with no surviving samples is NaN (rendered as "nan"/"-nan" — visibly
/// not a number, never a plausible-looking zero).
constexpr double kNoSamples = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double ExperimentRunner::average_slowdown(core::AlgorithmId a,
                                          std::size_t n) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (unsigned t : config_.thread_counts) {
    const ResultRecord& mine = find(a, n, t);
    const ResultRecord& base = find(core::AlgorithmId::kOpenBlas, n, t);
    if (mine.status == RunStatus::kFailed ||
        base.status == RunStatus::kFailed || base.seconds <= 0.0) {
      continue;
    }
    sum += mine.seconds / base.seconds;
    ++count;
  }
  if (count == 0) return kNoSamples;
  return sum / static_cast<double>(count);
}

double ExperimentRunner::average_power(core::AlgorithmId a,
                                       unsigned threads) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t n : config_.sizes) {
    const ResultRecord& r = find(a, n, threads);
    if (r.status == RunStatus::kFailed) continue;
    sum += r.package_watts;
    ++count;
  }
  if (count == 0) return kNoSamples;
  return sum / static_cast<double>(count);
}

double ExperimentRunner::average_ep(core::AlgorithmId a, std::size_t n) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (unsigned t : config_.thread_counts) {
    const ResultRecord& r = find(a, n, t);
    if (r.status == RunStatus::kFailed) continue;
    sum += r.ep;
    ++count;
  }
  if (count == 0) return kNoSamples;
  return sum / static_cast<double>(count);
}

std::vector<core::ScalingPoint> ExperimentRunner::ep_scaling(
    core::AlgorithmId a, std::size_t n) const {
  std::vector<std::pair<unsigned, double>> samples;
  samples.reserve(config_.thread_counts.size());
  bool has_base = false;
  for (unsigned t : config_.thread_counts) {
    const ResultRecord& r = find(a, n, t);
    if (r.status == RunStatus::kFailed || r.ep <= 0.0) continue;
    if (t == 1) has_base = true;
    samples.emplace_back(t, r.ep);
  }
  // Eq (5) normalizes to the 1-thread EP; without it (the base run
  // failed) there is no series to report.
  if (!has_base) return {};
  return core::scaling_series(samples);
}

core::ScalingClass ExperimentRunner::scaling_class(core::AlgorithmId a,
                                                   std::size_t n) const {
  const auto series = ep_scaling(a, n);
  return core::classify_scaling(series);
}

}  // namespace capow::harness
