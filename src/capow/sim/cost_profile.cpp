#include "capow/sim/cost_profile.hpp"

#include <algorithm>

namespace capow::sim {

double WorkProfile::total_flops() const noexcept {
  double t = 0.0;
  for (const auto& p : phases) t += p.flops;
  return t;
}

double WorkProfile::total_dram_bytes() const noexcept {
  double t = 0.0;
  for (const auto& p : phases) t += p.dram_bytes;
  return t;
}

std::uint64_t WorkProfile::total_syncs() const noexcept {
  std::uint64_t t = 0;
  for (const auto& p : phases) t += p.sync_events;
  return t;
}

WorkProfile& WorkProfile::add(PhaseCost phase) {
  phases.push_back(std::move(phase));
  return *this;
}

namespace {

// Appends up to two PhaseCosts: the sequential slot's counters and the
// parallel slots' sum.
void append_split(WorkProfile& wp, const trace::CostCounters& seq,
                  const std::vector<trace::CostCounters>& par,
                  double efficiency) {
  if (seq.flops > 0 || seq.dram_bytes() > 0) {
    wp.add(PhaseCost{
        .label = "sequential",
        .flops = static_cast<double>(seq.flops),
        .dram_bytes = static_cast<double>(seq.dram_bytes()),
        .parallelism = 1,
        .efficiency = efficiency,
        .imbalance = 1.0,
        .sync_events = seq.syncs,
        .spawn_events = seq.tasks_spawned,
    });
  }
  if (!par.empty()) {
    trace::CostCounters sum;
    std::uint64_t max_flops = 0;
    for (const auto& c : par) {
      sum += c;
      max_flops = std::max(max_flops, c.flops);
    }
    const double mean_flops =
        static_cast<double>(sum.flops) / static_cast<double>(par.size());
    const double imbalance =
        (mean_flops > 0.0) ? static_cast<double>(max_flops) / mean_flops
                           : 1.0;
    wp.add(PhaseCost{
        .label = "parallel",
        .flops = static_cast<double>(sum.flops),
        .dram_bytes = static_cast<double>(sum.dram_bytes()),
        .parallelism = static_cast<unsigned>(par.size()),
        .efficiency = efficiency,
        .imbalance = std::max(imbalance, 1.0),
        .sync_events = sum.syncs,
        .spawn_events = sum.tasks_spawned,
    });
  }
}

}  // namespace

WorkProfile profile_from_recorder(const trace::Recorder& rec,
                                  std::string name, double efficiency) {
  WorkProfile wp;
  wp.name = std::move(name);
  append_split(wp, rec.slot(0), rec.parallel_slots(), efficiency);
  return wp;
}

}  // namespace capow::sim
