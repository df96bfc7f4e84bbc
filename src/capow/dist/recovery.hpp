// Elastic recovery for capow::dist — survive rank death.
//
// A fixed-size World treats any rank failure as fatal: the world is
// poisoned, every peer unblocks with CommError, and run() rethrows the
// root cause. That is the right default for logic errors, but the
// paper's target platforms lose *nodes*, not invariants — at scale the
// question is not whether a rank dies mid-run but what the survivors do
// about it. This module makes rank death a recoverable event:
//
//   - `rank.kill=V/P[@E]` (capow::fault) deterministically terminates
//     victim rank V of a P-rank world at its E-th communication
//     operation, so a chaos run's failure schedule is part of the spec.
//   - World::run_elastic re-runs the job over *generations*. When the
//     root cause of a generation is RankKilled (and only then), the
//     driver flushes stale traffic with discard accounting, advances
//     the membership generation, and re-runs the body on the new
//     active set.
//   - RecoveryPolicy picks the new set: kAbort keeps today's poison
//     semantics (default), kShrink drops the dead ranks (survivors get
//     a smaller communicator), kRespawn spawns replacement rank
//     threads on the dead ranks' physical slots.
//   - Recovered generations open with an in-band failure-bitmap
//     agreement round (reduce + broadcast of a P-length bitmap) so
//     every surviving rank derives the identical failed set from
//     traffic, not from shared driver state — the same protocol a real
//     distributed runtime would run.
//
// Determinism contract: the *final* generation is a fresh run of the
// surviving set — channel sequence numbers and op epochs are reset, so
// its fault draws, its comm matrix, and the recomputed output are pure
// functions of (seed, plan, survivor set). The *dying* generation's
// counters are scheduling-dependent (how far each survivor raced before
// observing the death varies), which is why chaos CI diffs
// final_generation_stats() and the output, never the generation-0
// split. Wall-clock recovery_ns is reported but never part of the
// deterministic surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capow/dist/comm.hpp"

namespace capow::dist {

/// What run_elastic does when a generation's root cause is RankKilled.
enum class RecoveryPolicy {
  kAbort = 0,  ///< rethrow, exactly like World::run (default)
  kShrink,     ///< drop dead ranks; survivors re-form a smaller world
  kRespawn,    ///< spawn replacement threads on the dead physical slots
};

/// Report/metric name of a policy ("abort", "shrink", "respawn").
const char* recovery_policy_name(RecoveryPolicy p) noexcept;

/// Parses "abort" / "shrink" / "respawn"; throws std::invalid_argument
/// otherwise.
RecoveryPolicy parse_recovery_policy(const std::string& name);

struct RecoveryOptions {
  RecoveryPolicy policy = RecoveryPolicy::kAbort;
  /// Recoveries per run_elastic call before the next death aborts
  /// regardless of policy — a runaway backstop, not a tuning knob.
  int max_recoveries = 4;
};

/// What the body learns about the membership it runs under. Generation
/// 0 always has an empty failed set; recovered generations carry the
/// set every rank agreed on in the bitmap round. A default-constructed
/// context is a plain (non-elastic) run.
struct RecoveryContext {
  std::uint64_t generation = 0;
  std::vector<int> failed_ranks;  ///< agreed, sorted physical ranks
  /// The run's policy. Kernels that keep recovery state (SUMMA's panel
  /// cache) spend traffic on it only when a death would be respawned.
  RecoveryPolicy policy = RecoveryPolicy::kAbort;

  bool recovered() const noexcept { return generation > 0; }
};

/// What run_elastic hands back on success.
struct RecoveryReport {
  bool recovered = false;  ///< at least one recovery happened
  int recoveries = 0;      ///< membership transitions taken
  std::vector<int> failed_ranks;  ///< cumulative dead set (physical)
  /// Wall time spent in recovery transitions (flush + re-form +
  /// respawn), excluding the re-run itself. Diagnostic only: never
  /// part of the deterministic comparison surface.
  std::uint64_t recovery_ns = 0;
};

/// Process-wide recovery counters (exported as
/// capow_dist_rank_failures_total / capow_dist_recoveries_total).
/// Cumulative across Worlds; reset_recovery_counters() zeroes them.
std::uint64_t rank_failures_total() noexcept;
std::uint64_t recoveries_total() noexcept;
void reset_recovery_counters() noexcept;

}  // namespace capow::dist
