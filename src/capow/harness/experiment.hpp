// Experiment harness: the paper's Section VI evaluation methodology.
//
// The paper runs all three algorithms over sizes {512, 1024, 2048, 4096}
// and thread counts {1, 2, 3, 4} — 48 result sets — measuring runtime and
// PAPI/RAPL package+PP0 power per run, with a 60 s quiesce sleep between
// tests. ExperimentRunner reproduces that matrix end to end: each
// configuration's work profile (from the algorithm cost models) is
// executed by the simulator, which deposits energy into a simulated MSR
// device; measurement happens through the PAPI-style EventSet exactly as
// the paper's test driver reads RAPL; the EP model then derives Tables
// II-IV and Figures 3-7.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capow/core/algorithms.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/machine/machine.hpp"

namespace capow::harness {

/// How a configuration's measurement concluded. Order is precedence
/// (failed > degraded > corrected > retried > ok): a run that both
/// retried and finished degraded reports kDegraded.
enum class RunStatus {
  kOk = 0,     ///< first attempt, clean measurement
  kRetried,    ///< succeeded after >= 1 failed attempt
  kCorrected,  ///< succeeded, but ABFT detected (and repaired) silent
               ///< corruption during the surviving attempt
  kDegraded,   ///< succeeded, but RAPL reads degraded (stale samples)
  kFailed,     ///< every attempt failed; metrics are zero, error is set
};

/// Status name ("ok", "retried", "corrected", "degraded", "failed").
/// Checkpoints store these names, not the enum values, so reordering the
/// enum does not invalidate old checkpoints.
const char* to_string(RunStatus s) noexcept;

/// Full experiment-matrix configuration.
struct ExperimentConfig {
  std::vector<std::size_t> sizes{512, 1024, 2048, 4096};
  std::vector<unsigned> thread_counts{1, 2, 3, 4};
  machine::MachineSpec machine = machine::haswell_e3_1225();
  /// Quiesce sleep between tests (the paper uses 60 s); modeled as
  /// static-power idle time deposited into the MSR device.
  double quiesce_seconds = 60.0;

  // --- fault-tolerance policy -------------------------------------
  /// Attempts per configuration before it is recorded as kFailed.
  int max_run_attempts = 3;
  /// Per-attempt watchdog budget; <= 0 disables the watchdog (attempts
  /// then run inline on the calling thread).
  double run_timeout_seconds = 0.0;
  /// Each retry multiplies the quiesce sleep by this factor (machine
  /// settle time after a failure — the measurement analogue of
  /// exponential backoff).
  double retry_quiesce_factor = 2.0;
  /// JSONL checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Replay completed configurations from checkpoint_path and run only
  /// the missing/failed ones.
  bool resume = false;
};

/// One of the 48 result sets.
struct ResultRecord {
  core::AlgorithmId algorithm{};
  std::size_t n = 0;
  unsigned threads = 0;
  double seconds = 0.0;
  double package_watts = 0.0;  ///< RAPL PACKAGE energy / wall time
  double pp0_watts = 0.0;      ///< RAPL PP0 energy / wall time
  double package_energy_j = 0.0;
  double ep = 0.0;  ///< Eq (1): package_watts / seconds
  RunStatus status = RunStatus::kOk;
  int attempts = 1;   ///< attempts consumed (1 = clean first try)
  std::string error;  ///< last failure message; non-empty iff kFailed
  /// RAPL measurement health for this record's final attempt: 32-bit
  /// counter wraps the reader folded and transient-read retries it
  /// absorbed. Nonzero retries with status below kDegraded mean the
  /// retry budget hid every injected rapl.fail. Checkpoint lines carry
  /// these only when nonzero (byte-compatible with older checkpoints).
  std::uint64_t rapl_wraps = 0;
  std::uint64_t rapl_retries = 0;
};

/// Runs the evaluation matrix and answers the paper's table/figure
/// queries.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config);

  /// Executes every (algorithm, size, threads) configuration (cached;
  /// repeated calls are free). Returns all records.
  const std::vector<ResultRecord>& run();

  const ExperimentConfig& config() const noexcept { return config_; }

  /// Record for one configuration; throws std::out_of_range when the
  /// configuration is not part of the matrix.
  const ResultRecord& find(core::AlgorithmId a, std::size_t n,
                           unsigned threads) const;

  /// Table II: average slowdown of `a` vs OpenBLAS at size n, averaged
  /// over thread counts. kFailed configurations are excluded; NaN when
  /// every thread count is excluded.
  double average_slowdown(core::AlgorithmId a, std::size_t n) const;

  /// Table III: average power (package watts) of `a` at `threads`,
  /// averaged over problem sizes (kFailed excluded; NaN when empty).
  double average_power(core::AlgorithmId a, unsigned threads) const;

  /// Table IV: average EP of `a` at size n, averaged over thread counts
  /// (kFailed excluded; NaN when empty).
  double average_ep(core::AlgorithmId a, std::size_t n) const;

  /// Fig 7: the Eq (5) scaling series of `a` at size n across the
  /// configured thread counts. kFailed configurations are dropped from
  /// the series; empty when the 1-thread base itself failed.
  std::vector<core::ScalingPoint> ep_scaling(core::AlgorithmId a,
                                             std::size_t n) const;

  /// Fig 1-style classification of a configuration's EP scaling.
  core::ScalingClass scaling_class(core::AlgorithmId a, std::size_t n) const;

  /// Truncated/corrupt JSONL lines skipped while loading the resume
  /// checkpoint (0 until run(), or when resume is off). Surfaced so
  /// capow-report can tell the user their checkpoint was damaged
  /// instead of silently re-running the lost configurations.
  std::size_t skipped_checkpoint_lines() const noexcept {
    return skipped_checkpoint_lines_;
  }

 private:
  /// One configuration with the full fault-tolerance envelope: bounded
  /// retries with quiesce backoff, optional watchdog, RunStatus
  /// classification. Never throws for injected faults — a kFailed
  /// record (zeroed metrics + error) is data, not an exception.
  ResultRecord run_one(core::AlgorithmId a, std::size_t n, unsigned threads,
                       std::uint64_t run_index);

  ExperimentConfig config_;
  std::vector<ResultRecord> results_;
  std::size_t skipped_checkpoint_lines_ = 0;
  bool ran_ = false;
};

}  // namespace capow::harness
