// Admission control for capowd: a token bucket denominated in joules.
//
// The service's power contract is "at most B watts averaged over the
// bucket horizon". A token bucket whose tokens are *predicted joules*
// (from the same cost models the harness trusts, see predictor.hpp)
// turns that contract into an admission decision: the bucket refills at
// B joules per virtual second up to a capacity of a few seconds' worth
// of budget, every admitted request debits its predicted energy up
// front, and a request the bucket cannot cover is rejected with a typed
// RejectReason::kEnergyBudget — overload produces fast, explicit
// rejections instead of an unbounded queue.
//
// Two-tier fairness is built into the debit rule: a reserve share of
// the capacity is readable only by guaranteed traffic, so best-effort
// load can never drain the bucket to the point where a guaranteed
// request bounces. Guaranteed traffic may additionally overdraw into
// bounded debt (down to -capacity): a single request costlier than the
// standing fill admits immediately and amortizes while the bucket
// refills, rather than starving forever behind its own size.
//
// The bucket also drives the graceful-degradation ladder: its fill
// ratio is the service's one pressure signal, and level() maps it
// through fixed thresholds (with a re-arm hysteresis band so the ladder
// does not flap around a threshold). Everything here is pure arithmetic
// on virtual time — no clocks, no atomics — which is what keeps the
// decision log byte-reproducible.
#pragma once

#include <cstdint>

#include "capow/serve/request.hpp"

namespace capow::serve {

/// Token-bucket and ladder configuration.
struct EnergyBudgetOptions {
  /// Refill rate: the service's power budget. <= 0 disables admission
  /// by energy entirely (enabled() == false, every debit succeeds).
  double budget_w = 0.0;
  /// Bucket capacity in joules; <= 0 defaults to 2 s of budget.
  double capacity_j = 0.0;
  /// Share of capacity only guaranteed traffic may draw below.
  double reserve_fraction = 0.25;
  /// Starting fill as a fraction of capacity.
  double initial_fill = 1.0;
  /// Ladder thresholds on the fill ratio, in descending order: below
  /// eco the scheduler switches to minimum-joule algorithm choice,
  /// below abft_relax requested ABFT correct relaxes to detect, below
  /// shed best-effort traffic is turned away.
  double eco_below = 0.60;
  double abft_relax_below = 0.40;
  double shed_below = 0.20;
  /// A level only steps back down once the fill ratio recovers past
  /// threshold + hysteresis (flap damping).
  double hysteresis = 0.05;
};

/// The joules token bucket plus the degradation ladder it drives.
/// Not thread-safe: the serve engine makes all decisions on one thread.
class EnergyBudget {
 public:
  explicit EnergyBudget(const EnergyBudgetOptions& opts);

  bool enabled() const noexcept { return enabled_; }
  double capacity_j() const noexcept { return capacity_j_; }
  double reserve_j() const noexcept { return reserve_j_; }

  /// Refills for virtual time advancing to `t_s` (monotone; earlier
  /// times are ignored) and re-evaluates the ladder level.
  void advance(double t_s) noexcept;

  /// Attempts to debit `joules` under the tier's drawing rights:
  /// best-effort may not take the fill below the reserve, guaranteed
  /// may overdraw to -capacity. False leaves the bucket untouched.
  bool try_debit(double joules, QosTier tier) noexcept;

  /// Returns `joules` to the bucket (a queued request expired before
  /// dispatch; its admission debit is refunded), capped at capacity.
  void refund(double joules) noexcept;

  /// Current fill in joules (may be negative: guaranteed debt).
  double fill_j() const noexcept { return fill_j_; }
  /// fill / capacity, clamped to [0, 1]; 1 when disabled.
  double fill_ratio() const noexcept;

  /// Current degradation level (updated by advance/try_debit/refund).
  DegradeLevel level() const noexcept { return level_; }

 private:
  void update_level() noexcept;

  bool enabled_;
  double budget_w_;
  double capacity_j_;
  double reserve_j_;
  EnergyBudgetOptions opts_;
  double fill_j_;
  double clock_s_ = 0.0;
  DegradeLevel level_ = DegradeLevel::kNone;
};

}  // namespace capow::serve
