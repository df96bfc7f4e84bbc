// Structured export of the experiment matrix: Chrome traces, JSONL run
// records, and Prometheus-style metrics.
//
// The ExperimentRunner executes *simulated* runs — no wall-clock time
// passes — so these exporters reconstruct each run's timeline from the
// simulator's own outputs: RunResult.phases gives the span layout and
// simulate_with_sampling() gives the time-aligned package/PP0 power
// samples, exactly the data behind the paper's Figs 4-6. Each (algorithm,
// n, threads) configuration becomes one Chrome trace process whose rows
// are the phase spans and whose counter track is the power timeline.
//
// Live instrumented runs (tests, benches, capowd) use the span
// tracer in capow/telemetry directly; both paths share the writers in
// capow/telemetry/export.hpp.
#pragma once

#include <cstddef>
#include <ostream>

#include "capow/harness/experiment.hpp"
#include "capow/profile/attribution.hpp"
#include "capow/sim/cost_profile.hpp"

namespace capow::harness {

/// Writes a Chrome trace-event JSON file covering every configuration of
/// the runner's matrix: one process per run (named e.g. "OpenBLAS n=512
/// t=2"), phase spans on the main row, and a package/PP0 counter track
/// sampled on the same virtual timeline (64 samples per run). Runs the
/// matrix if needed.
void export_chrome_trace(ExperimentRunner& runner, std::ostream& os);

/// Writes one JSON line per ResultRecord (machine-readable analogue of
/// the report tables). Runs the matrix if needed.
void export_jsonl(ExperimentRunner& runner, std::ostream& os);

/// Writes a Prometheus text exposition of the matrix: runtime, power,
/// energy, EP, the cost-model totals (flops, DRAM bytes, tasks,
/// syncs) labeled by {algorithm, n, threads}, trace-ring truncation,
/// and the attributed per-phase energy / EP-scaling families. Runs the
/// matrix if needed.
void export_metrics(ExperimentRunner& runner, std::ostream& os);

/// Attribution profile of one configuration: the simulator's phase
/// layout becomes the span stream (one top-level span per phase, tid
/// 0), and simulate_with_sampling()'s power trace becomes the plane
/// timeline — the same reconstruction export_chrome_trace() renders,
/// joined by profile::attribute(). Deterministic for a fixed config.
profile::Profile run_attribution_profile(const ExperimentConfig& config,
                                         core::AlgorithmId a, std::size_t n,
                                         unsigned threads);

/// Writes the per-configuration attribution profiles as text: one
/// "== <run label> ==" section per run with the conservation ledger
/// and the self/total span table (capow-report --profile).
void export_profile(ExperimentRunner& runner, std::ostream& os);

/// Writes the whole matrix as collapsed stacks, one run label as the
/// root frame of each configuration's stacks — load directly in
/// flamegraph.pl or speedscope (capow-report --flamegraph).
void export_flamegraph(ExperimentRunner& runner, std::ostream& os,
                       profile::FoldedWeight weight);

/// Writes per-phase EP scaling as JSONL: one record per (algorithm, n,
/// phase, threads) point with ep, s = EP_p/EP_1, and the phase's
/// Fig 7-style classification (capow-report --ep-phases). Requires a
/// 1-thread base in the configured thread counts; phases without one
/// are omitted.
void export_ep_phases(ExperimentRunner& runner, std::ostream& os);

}  // namespace capow::harness
