// Work profiles: the interface between algorithms and the simulator.
//
// Each algorithm describes one execution as an ordered list of phases
// (e.g. Strassen: "quadrant additions" then "base-case products" per
// recursion level). A phase carries total flops, total DRAM traffic, the
// degree of parallelism available in it, and the efficiency its kernel
// attains — everything the roofline-with-contention executor needs to
// derive time and power. Profiles come from two sources that tests
// cross-validate:
//   * closed-form cost models (blas/strassen/capsalg cost_model.hpp), and
//   * measured trace::Recorder counters from real instrumented runs
//     (profile_from_recorder below), which carry one sequential and one
//     parallel phase; a run's named sections are telemetry spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capow/trace/counters.hpp"

namespace capow::sim {

/// One homogeneous stage of an execution.
struct PhaseCost {
  std::string label;
  double flops = 0.0;        ///< total floating-point operations
  double dram_bytes = 0.0;   ///< total DRAM read+write traffic
  double cache_bytes = 0.0;  ///< on-chip (LLC) traffic
  unsigned parallelism = 1;  ///< units that can work concurrently
  double efficiency = 1.0;   ///< fraction of per-core peak attained
  double imbalance = 1.0;    ///< critical-path stretch factor (>= 1)
  std::uint64_t sync_events = 0;   ///< barriers / task joins
  std::uint64_t spawn_events = 0;  ///< tasks created
};

/// An ordered sequence of phases describing a complete run.
struct WorkProfile {
  std::string name;
  std::vector<PhaseCost> phases;

  double total_flops() const noexcept;
  double total_dram_bytes() const noexcept;
  std::uint64_t total_syncs() const noexcept;

  /// Appends a phase (fluent style for cost-model builders).
  WorkProfile& add(PhaseCost phase);
};

/// Builds a two-phase profile (sequential slot + parallel slots) from
/// measured per-thread counters. `efficiency` is the kernel efficiency
/// to assume for the compute roofline; imbalance is derived from the
/// max-vs-mean flops across parallel slots, matching Eq (2)'s
/// max-over-units semantics.
WorkProfile profile_from_recorder(const trace::Recorder& rec,
                                  std::string name, double efficiency);

}  // namespace capow::sim
