// capow::serve — request vocabulary of the capowd matmul service.
//
// capowd is designed around *overload safety*, not peak throughput:
// every request is admitted, queued, dispatched, completed, expired,
// cancelled, or rejected — never silently dropped — and every one of
// those transitions is a typed, counted decision. This header is the
// shared vocabulary: the request itself (shape, QoS tier, deadline),
// the typed rejection reasons admission control can return, and the
// decision records the engine appends to its deterministic log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "capow/abft/abft.hpp"
#include "capow/core/algorithms.hpp"

namespace capow::serve {

/// Quality-of-service tiers. Guaranteed traffic is what the SLO is
/// written against: it is never shed by the degradation ladder and may
/// draw on the energy bucket's reserved share. Best-effort traffic is
/// the load-shedding margin.
enum class QosTier { kGuaranteed = 0, kBestEffort = 1 };
inline constexpr std::size_t kTierCount = 2;

/// "guaranteed" / "best_effort".
const char* tier_name(QosTier t) noexcept;

/// Why admission control turned a request away at the door. A typed
/// rejection is the overload-safety contract: the client learns *why*
/// immediately instead of timing out against a collapsing queue.
enum class RejectReason {
  kQueueFull = 0,  ///< the tier's bounded queue is at capacity
  kEnergyBudget,   ///< the joules token bucket cannot cover the request
  kShedding,       ///< ladder at the shed rung; best-effort turned away
  kOversized,      ///< request exceeds the service's configured max n
};

/// "queue_full" / "energy_budget" / "shedding" / "oversized".
const char* reject_reason_name(RejectReason r) noexcept;

/// One matmul request: multiply two seeded n x n operands under a
/// deadline. Arrival/deadline are in *virtual* seconds — the engine
/// runs its queueing dynamics on a deterministic virtual clock so the
/// decision sequence is a pure function of (trace, options, fault
/// seed), which is what makes an overload run a reproducible
/// experiment (see server.hpp).
struct Request {
  std::uint64_t id = 0;
  double arrival_s = 0.0;   ///< virtual arrival time
  std::size_t n = 0;        ///< square problem dimension
  QosTier tier = QosTier::kBestEffort;
  /// Relative deadline: the request must complete by arrival_s +
  /// deadline_s. <= 0 means no deadline.
  double deadline_s = 0.0;
  /// Pinned algorithm; unset lets the scheduler choose per the EP model
  /// (and lets the degradation ladder downgrade the choice).
  std::optional<core::AlgorithmId> algorithm;
  /// Requested ABFT mode. kCorrect may be relaxed to kDetect by the
  /// ladder's second rung under energy pressure.
  abft::AbftMode abft = abft::AbftMode::kOff;
};

/// Terminal state of a request inside the service.
enum class Outcome {
  kCompleted = 0,  ///< finished; latency accounted against the SLO
  kRejected,       ///< turned away at admission (reason recorded)
  kExpired,        ///< deadline passed while still queued; never started
  kCancelled,      ///< started, stalled past the dispatch watchdog, and
                   ///< was cooperatively cancelled (work accounted)
};

/// The graceful-degradation ladder, in escalation order. Each rung
/// subsumes the previous ones: at kShed the scheduler is also choosing
/// minimum-energy algorithms and relaxing ABFT.
enum class DegradeLevel {
  kNone = 0,   ///< normal operation: fastest predicted algorithm
  kEco,        ///< downgrade algorithm choice to minimum predicted
               ///< joules (the Eq (9) model decides, not a heuristic)
  kAbftRelax,  ///< additionally relax requested ABFT correct -> detect
  kShed,       ///< additionally turn away best-effort traffic
};
inline constexpr std::size_t kDegradeLevelCount = 4;

/// "none" / "eco" / "abft_relax" / "shed".
const char* degrade_level_name(DegradeLevel l) noexcept;

/// One entry of the engine's decision log. The log is the service's
/// deterministic surface: CI runs the same seeded trace twice and
/// byte-diffs the rendered lines, so every field here must be a pure
/// function of (trace, options, fault plan) — virtual times only,
/// never wall clocks.
struct Decision {
  enum class Kind {
    kAdmit = 0,   ///< request passed admission; joules debited
    kReject,      ///< request turned away (reason set)
    kDispatch,    ///< request started on an executor slot
    kComplete,    ///< request finished
    kExpire,      ///< queued request dropped at its deadline
    kCancel,      ///< running request cancelled by the watchdog
    kDegrade,     ///< ladder level changed (level = new level)
  };

  Kind kind = Kind::kAdmit;
  double t_s = 0.0;            ///< virtual time of the decision
  std::uint64_t request_id = 0;  ///< 0 for kDegrade (engine-wide)
  QosTier tier = QosTier::kBestEffort;
  DegradeLevel level = DegradeLevel::kNone;  ///< ladder level in force
  /// kAdmit/kDispatch/kComplete: the algorithm the scheduler chose.
  std::optional<core::AlgorithmId> algorithm;
  std::optional<RejectReason> reason;  ///< kReject only
  double joules = 0.0;  ///< predicted joules debited (kAdmit) or
                        ///< refunded (kExpire)
};

/// "admit" / "reject" / "dispatch" / "complete" / "expire" / "cancel"
/// / "degrade".
const char* decision_kind_name(Decision::Kind k) noexcept;

/// Renders one decision as its canonical log line (no trailing
/// newline): fixed-point virtual time, stable key=value fields. The
/// byte-diff determinism contract of the serve-smoke CI job is defined
/// over exactly this rendering.
std::string format_decision(const Decision& d);

}  // namespace capow::serve
