// Measured-mode experiments: run the real algorithms (laptop-scale
// sizes), capture their instrumented cost profiles, and project them on
// the machine model — then compare against the analytic cost models.
//
// This closes the loop the test suite opens per-module: the analytic
// profiles drive the paper-scale benches; the measured profiles prove
// on every run that the analytic ones describe the code that actually
// executes (identical flops/traffic, matching projected times within a
// modeling band).
#pragma once

#include <cstddef>

#include "capow/harness/experiment.hpp"
#include "capow/sim/executor.hpp"

namespace capow::harness {

/// One real instrumented execution projected on the machine model.
struct MeasuredRecord {
  core::AlgorithmId algorithm{};
  std::size_t n = 0;
  unsigned threads = 0;
  double measured_flops = 0.0;       ///< instrumented flop count
  double measured_bytes = 0.0;       ///< instrumented logical traffic
  sim::RunResult projected;          ///< measured profile -> simulator
  sim::RunResult analytic;           ///< analytic profile -> simulator
  bool numerically_verified = false; ///< result checked vs reference

  /// Projected-time agreement: measured-profile seconds over
  /// analytic-profile seconds.
  double time_ratio() const noexcept {
    return analytic.seconds > 0.0 ? projected.seconds / analytic.seconds
                                  : 0.0;
  }
};

/// Runs algorithm `a` for real at dimension n with a `threads`-worker
/// pool (0 => serial), instrumented; verifies the numerics against the
/// reference multiplier; projects both the measured and the analytic
/// profiles on `machine`. Throws std::invalid_argument for n == 0.
///
/// Note: the measured profile treats all logical traffic as DRAM-level
/// (it has no per-level classification), so its projected time is an
/// upper bound that approaches the analytic projection as problems
/// leave the caches.
MeasuredRecord run_measured(core::AlgorithmId a, std::size_t n,
                            unsigned threads,
                            const machine::MachineSpec& machine);

}  // namespace capow::harness
