#include "capow/serve/request.hpp"

#include <cstdio>

namespace capow::serve {

const char* tier_name(QosTier t) noexcept {
  switch (t) {
    case QosTier::kGuaranteed: return "guaranteed";
    case QosTier::kBestEffort: return "best_effort";
  }
  return "best_effort";
}

const char* reject_reason_name(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kEnergyBudget: return "energy_budget";
    case RejectReason::kShedding: return "shedding";
    case RejectReason::kOversized: return "oversized";
  }
  return "oversized";
}

const char* degrade_level_name(DegradeLevel l) noexcept {
  switch (l) {
    case DegradeLevel::kNone: return "none";
    case DegradeLevel::kEco: return "eco";
    case DegradeLevel::kAbftRelax: return "abft_relax";
    case DegradeLevel::kShed: return "shed";
  }
  return "shed";
}

const char* decision_kind_name(Decision::Kind k) noexcept {
  switch (k) {
    case Decision::Kind::kAdmit: return "admit";
    case Decision::Kind::kReject: return "reject";
    case Decision::Kind::kDispatch: return "dispatch";
    case Decision::Kind::kComplete: return "complete";
    case Decision::Kind::kExpire: return "expire";
    case Decision::Kind::kCancel: return "cancel";
    case Decision::Kind::kDegrade: return "degrade";
  }
  return "degrade";
}

std::string format_decision(const Decision& d) {
  // Fixed-point rendering only: the serve-smoke CI job byte-diffs these
  // lines across runs, so no field may depend on wall time, pointers,
  // or locale. %.6f virtual seconds, %.3f joules.
  char head[96];
  std::snprintf(head, sizeof head, "t=%.6f %s", d.t_s,
                decision_kind_name(d.kind));
  std::string line(head);
  if (d.kind == Decision::Kind::kDegrade) {
    line += " level=";
    line += degrade_level_name(d.level);
    return line;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, " id=%llu tier=%s",
                static_cast<unsigned long long>(d.request_id),
                tier_name(d.tier));
  line += buf;
  line += " level=";
  line += degrade_level_name(d.level);
  if (d.algorithm) {
    line += " alg=";
    line += core::algorithm_info(*d.algorithm).key;
  }
  if (d.reason) {
    line += " reason=";
    line += reject_reason_name(*d.reason);
  }
  if (d.joules > 0.0) {
    std::snprintf(buf, sizeof buf, " j=%.3f", d.joules);
    line += buf;
  }
  return line;
}

}  // namespace capow::serve
