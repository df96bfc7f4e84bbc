// One benchmark run: set-up, the timed closed or open loop, per-op
// correctness checks, and the end-to-end (untraced) or per-layer
// (traced) metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span trace and the results log ("" = none).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs `w` and prints a human-readable report to stdout. With
/// opts.trace the metrics are the per-layer set, otherwise the
/// end-to-end set.
RunResult run_workload(const Workload& w, const RunOptions& opts);

}  // namespace perfbench
