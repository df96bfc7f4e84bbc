// The `sim_accel` device class: a simulated wide-vector accelerator.
//
// A second device class is what turns the EP model from a single-
// platform measurement into a per-device comparison — the scenario the
// paper's one Haswell box could never reach. sim_accel is deliberately
// the opposite machine balance: ~7.5x the Haswell's compute roof but
// ~44x its memory bandwidth, so its flops-per-byte ratio is *low*
// (bandwidth-rich). Under Eq (9) that pulls the Strassen/blocked
// crossover from beyond the CPU's memory capacity down to a dimension
// that trivially fits — per-device crossover rows are the study's
// headline.
//
// The accelerator is modelled, never executed on: it runs dense GEMM
// natively (simulated against its own spec) and does not implement the
// recursive task-parallel algorithms, so Strassen/CAPS rows take the
// registry's fallback path onto the host row.
#pragma once

#include "capow/machine/machine.hpp"

namespace capow::backend {

/// Machine model of the simulated accelerator: 8 compute units of
/// 64 DP flops/cycle at 1.5 GHz (768 GF/s peak), HBM-class 450 GB/s,
/// and a flat two-level on-device memory hierarchy. Power coefficients
/// follow the CoreSpec model: high per-CU active power, a large
/// always-on device floor (pp0_static + uncore covering HBM PHYs and
/// regulators).
machine::MachineSpec sim_accel_spec();

}  // namespace capow::backend
