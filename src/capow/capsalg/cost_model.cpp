#include "capow/capsalg/cost_model.hpp"

#include <algorithm>
#include <string>

#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/scheme.hpp"

namespace capow::capsalg {

namespace {

using namespace strassen::model;
namespace scheme = strassen::scheme;

// Per-node op counts of the classic scheme as CAPS runs it (the units
// are h^2 elements): every node forms its operand sums and combines the
// products once; a BFS node also books the copies of its single-quadrant
// operands, as the paper's buffered step materializes every operand.
constexpr double kSums = scheme::kClassic.operand_additions();
constexpr double kCopies = scheme::kClassic.quadrant_operands();
constexpr double kCombines = scheme::kClassic.combine_additions();
constexpr double kQuadrants = scheme::kCombine.size();
constexpr double kOperands = 2 * scheme::kProducts.size();
constexpr std::uint64_t kProductTasks = scheme::kProducts.size();

}  // namespace

// Every CAPS node runs the classic step a Strassen node runs, so CAPS
// counts Strassen's flops and bytes. A BFS node also books the copies of
// its single-quadrant operands: 2 words per element and no flops.
double caps_total_flops(std::size_t n, const CapsOptions& opts) {
  return strassen::strassen_total_flops(
      n, strassen::StrassenOptions{.base_cutoff = opts.base_cutoff});
}

double caps_total_traffic_bytes(std::size_t n, const CapsOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  double bytes = strassen::strassen_total_traffic_bytes(
      n, strassen::StrassenOptions{.base_cutoff = opts.base_cutoff});
  for (std::size_t l = 0; l < std::min(g.levels, opts.bfs_cutoff_depth); ++l) {
    const double h = static_cast<double>(g.m >> (l + 1));
    bytes += pow7(l) * kCopies * 2.0 * h * h * kWord;
  }
  return bytes;
}

double caps_peak_buffer_bytes(std::size_t n, const CapsOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  double bytes = 0.0;
  for (std::size_t l = 0; l < g.levels; ++l) {
    const double h = static_cast<double>(g.m >> (l + 1));
    const bool bfs = l < opts.bfs_cutoff_depth;
    // Along one (serial) recursion spine: a BFS node keeps LA, LB and Q
    // live for every product; a DFS node keeps the program's temporaries.
    const double live = bfs ? 3.0 * scheme::kProducts.size()
                            : 1.0 * scheme::kClassic.temporaries();
    bytes += live * h * h * kWord;
  }
  return bytes;
}

sim::WorkProfile caps_profile(std::size_t n,
                              const machine::MachineSpec& spec,
                              unsigned threads,
                              const CapsOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  const double llc = static_cast<double>(spec.llc_capacity_bytes());
  const unsigned p_cap = std::min(threads, spec.core_count);

  sim::WorkProfile wp;
  wp.name = "caps";

  if (add_entry_phases(wp, g, opts.base_cutoff, threads)) return wp;

  // Concurrency of worker-owned tasks at level l: the BFS fan-out above
  // it, capped by the cores.
  const auto task_conc = [&](std::size_t l) -> unsigned {
    const double fan = pow7(std::min(l, opts.bfs_cutoff_depth));
    return static_cast<unsigned>(
        std::max(1.0, std::min<double>(fan, p_cap)));
  };

  // CAPS's BFS levels pin one subtree per worker, so the LLC live window
  // is exactly the worker count (no untied-task widening — this is the
  // model's expression of communication avoidance).
  const unsigned window = threads > 1 ? p_cap : 1u;
  const auto dram_level = [&](double h, unsigned /*conc*/, bool first) {
    return (3.0 * h * h * kWord * window > llc) ||
           (first && 3.0 * static_cast<double>(g.m) * g.m * kWord > llc);
  };

  const auto add_phase = [&](const std::string& label, double flops,
                             double traffic, unsigned conc, bool dram,
                             double units, std::uint64_t syncs,
                             std::uint64_t spawns) {
    wp.add(sim::PhaseCost{
        .label = label,
        .flops = flops,
        .dram_bytes = dram ? traffic : 0.0,
        .cache_bytes = dram ? 0.0 : traffic,
        .parallelism = conc,
        .efficiency = strassen::kAddKernelEfficiency,
        .imbalance = static_imbalance(units, conc),
        .sync_events = threads > 1 ? syncs : 0,
        .spawn_events = threads > 1 ? spawns : 0,
    });
  };

  // Forward sweep: operand phases per level.
  for (std::size_t l = 0; l < g.levels; ++l) {
    const double nodes = pow7(l);
    const double h = static_cast<double>(g.m >> (l + 1));
    const double elems = h * h;
    const bool bfs = l < opts.bfs_cutoff_depth;
    if (bfs) {
      const unsigned conc = static_cast<unsigned>(
          std::max(1.0, std::min<double>(nodes * kOperands, p_cap)));
      // Spawns: one task per operand, then one per product.
      add_phase("bfs-operands@L" + std::to_string(l),
                nodes * kSums * elems,
                nodes * (kSums * 3.0 + kCopies * 2.0) * elems * kWord, conc,
                dram_level(h, conc, l == 0), nodes * kOperands,
                static_cast<std::uint64_t>(nodes) * 2,
                static_cast<std::uint64_t>(nodes) *
                    (static_cast<std::uint64_t>(kOperands) + kProductTasks));
    } else {
      // A DFS node runs serially inside the task that owns it.
      const unsigned conc = task_conc(l);
      add_phase("dfs-operands@L" + std::to_string(l),
                nodes * kSums * elems, nodes * kSums * 3.0 * elems * kWord,
                conc, dram_level(h, conc, l == 0), nodes * kSums, 0, 0);
    }
  }

  // Base products.
  {
    const double nodes = pow7(g.levels);
    const double b = static_cast<double>(g.base_dim);
    const double traffic = nodes * 3.0 * b * b * kWord;
    const unsigned c = task_conc(g.levels);
    const bool dram = 3.0 * b * b * kWord * window > llc;
    wp.add(sim::PhaseCost{
        .label = "base-products",
        .flops = nodes * 2.0 * b * b * b,
        .dram_bytes = dram ? traffic : 0.0,
        .cache_bytes = dram ? 0.0 : traffic,
        .parallelism = c,
        .efficiency = strassen::kBotsBaseKernelEfficiency,
        .imbalance = static_imbalance(nodes, c),
        .sync_events =
            threads > 1 ? static_cast<std::uint64_t>(
                              pow7(std::min(g.levels, opts.bfs_cutoff_depth)))
                        : 0,
        .spawn_events =
            threads > 1 ? static_cast<std::uint64_t>(
                              pow7(std::min(g.levels, opts.bfs_cutoff_depth)) * 7)
                        : 0,
    });
  }

  // Unwind sweep: combine phases, innermost first.
  for (std::size_t l = g.levels; l-- > 0;) {
    const double nodes = pow7(l);
    const double h = static_cast<double>(g.m >> (l + 1));
    const double elems = h * h;
    const bool bfs = l < opts.bfs_cutoff_depth;
    if (bfs) {
      // One task per C quadrant.
      const unsigned conc = static_cast<unsigned>(
          std::max(1.0, std::min<double>(nodes * kQuadrants, p_cap)));
      add_phase("bfs-combine@L" + std::to_string(l),
                nodes * kCombines * elems,
                nodes * kCombines * 3.0 * elems * kWord, conc,
                dram_level(h, conc, l == 0), nodes * kQuadrants,
                static_cast<std::uint64_t>(nodes),
                static_cast<std::uint64_t>(nodes * kQuadrants));
    } else {
      const unsigned conc = task_conc(l);
      add_phase("dfs-combine@L" + std::to_string(l),
                nodes * kCombines * elems,
                nodes * kCombines * 3.0 * elems * kWord, conc,
                dram_level(h, conc, l == 0), nodes * kCombines, 0, 0);
    }
  }

  return wp;
}

}  // namespace capow::capsalg
