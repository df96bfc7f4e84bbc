#include "capow/serve/admission.hpp"

#include <algorithm>
#include <stdexcept>

namespace capow::serve {

EnergyBudget::EnergyBudget(const EnergyBudgetOptions& opts)
    : enabled_(opts.budget_w > 0.0),
      budget_w_(opts.budget_w),
      capacity_j_(opts.capacity_j > 0.0 ? opts.capacity_j
                                        : 2.0 * opts.budget_w),
      reserve_j_(0.0),
      opts_(opts),
      fill_j_(0.0) {
  if (enabled_) {
    if (opts.reserve_fraction < 0.0 || opts.reserve_fraction >= 1.0) {
      throw std::invalid_argument(
          "EnergyBudget: reserve_fraction must lie in [0, 1)");
    }
    if (!(opts.shed_below <= opts.abft_relax_below &&
          opts.abft_relax_below <= opts.eco_below)) {
      throw std::invalid_argument(
          "EnergyBudget: ladder thresholds must be ordered "
          "shed <= abft_relax <= eco");
    }
    reserve_j_ = opts.reserve_fraction * capacity_j_;
    fill_j_ = std::clamp(opts.initial_fill, 0.0, 1.0) * capacity_j_;
  }
  update_level();
}

void EnergyBudget::advance(double t_s) noexcept {
  if (t_s <= clock_s_) return;
  if (enabled_) {
    fill_j_ = std::min(capacity_j_, fill_j_ + budget_w_ * (t_s - clock_s_));
  }
  clock_s_ = t_s;
  update_level();
}

bool EnergyBudget::try_debit(double joules, QosTier tier) noexcept {
  if (!enabled_) return true;
  const double floor =
      tier == QosTier::kGuaranteed ? -capacity_j_ : reserve_j_;
  if (fill_j_ - joules < floor) return false;
  fill_j_ -= joules;
  update_level();
  return true;
}

void EnergyBudget::refund(double joules) noexcept {
  if (!enabled_) return;
  fill_j_ = std::min(capacity_j_, fill_j_ + joules);
  update_level();
}

double EnergyBudget::fill_ratio() const noexcept {
  if (!enabled_) return 1.0;
  return std::clamp(fill_j_ / capacity_j_, 0.0, 1.0);
}

void EnergyBudget::update_level() noexcept {
  if (!enabled_) {
    level_ = DegradeLevel::kNone;
    return;
  }
  const double r = fill_ratio();
  // Escalate immediately at a threshold; de-escalate only past the
  // hysteresis band so a fill ratio oscillating around a threshold
  // does not thrash the ladder (each transition is a logged decision).
  const double h = opts_.hysteresis;
  DegradeLevel target;
  if (r < opts_.shed_below) {
    target = DegradeLevel::kShed;
  } else if (r < opts_.abft_relax_below) {
    target = DegradeLevel::kAbftRelax;
  } else if (r < opts_.eco_below) {
    target = DegradeLevel::kEco;
  } else {
    target = DegradeLevel::kNone;
  }
  if (target >= level_) {
    level_ = target;
    return;
  }
  // Recovery: step down one rung at a time, each gated on clearing its
  // own threshold plus the hysteresis margin.
  while (level_ > target) {
    double gate = 0.0;
    switch (level_) {
      case DegradeLevel::kShed: gate = opts_.shed_below + h; break;
      case DegradeLevel::kAbftRelax: gate = opts_.abft_relax_below + h; break;
      case DegradeLevel::kEco: gate = opts_.eco_below + h; break;
      case DegradeLevel::kNone: return;
    }
    if (r < gate) return;
    level_ = static_cast<DegradeLevel>(static_cast<int>(level_) - 1);
  }
}

}  // namespace capow::serve
