#include "capow/strassen/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "capow/strassen/scheme.hpp"

namespace capow::strassen {

namespace model {

Geometry geometry(std::size_t n, std::size_t cutoff) {
  Geometry g;
  g.n = n;
  g.m = peel_dimension(n, cutoff);
  g.p = n - g.m;
  g.levels = recursion_levels(g.m, cutoff);
  g.base_dim = g.m >> g.levels;
  return g;
}

double pow7(std::size_t l) {
  double v = 1.0;
  for (std::size_t i = 0; i < l; ++i) v *= 7.0;
  return v;
}

double border_flops(const Geometry& g) {
  const double n = static_cast<double>(g.n);
  const double m = static_cast<double>(g.m);
  return 2.0 * (n * n * n - m * m * m);
}

double border_traffic(const Geometry& g) {
  if (g.p == 0) return 0.0;
  const double n = static_cast<double>(g.n);
  const double m = static_cast<double>(g.m);
  const double p = static_cast<double>(g.p);
  // Each product reads its two operands and writes its result once:
  // C11 += A12 B21, C[:, m:] = A B[:, m:], C[m:, :m] = A[m:, :] B[:, :m].
  return ((2.0 * m * p + m * m) + (n * n + 2.0 * n * p) +
          (p * n + n * m + p * m)) *
         kWord;
}

double static_imbalance(double units, unsigned p) {
  if (units <= 0.0 || p <= 1) return 1.0;
  const double per = std::ceil(units / p);
  return std::min(per * p / units, 4.0);
}

bool add_entry_phases(sim::WorkProfile& wp, const Geometry& g,
                      std::size_t cutoff, unsigned threads) {
  if (g.n <= cutoff) {
    const double d = static_cast<double>(g.n);
    wp.add(sim::PhaseCost{
        .label = "base-gemm",
        .flops = 2.0 * d * d * d,
        .dram_bytes = 3.0 * d * d * kWord,
        .parallelism = 1,
        .efficiency = kBotsBaseKernelEfficiency,
    });
    return true;
  }
  if (g.p > 0) {
    wp.add(sim::PhaseCost{
        .label = "border",
        .flops = border_flops(g),
        .dram_bytes = border_traffic(g),
        .parallelism = 1,
        .efficiency = kBotsBaseKernelEfficiency,
        // run_frame's fan-out: the recursion and two border products.
        .sync_events = threads > 1 ? 1u : 0u,
        .spawn_events = threads > 1 ? 3u : 0u,
    });
  }
  return false;
}

}  // namespace model

using namespace model;

double strassen_total_flops(std::size_t n, const StrassenOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  const scheme::Program& p = scheme::program(opts.winograd);
  const std::size_t ops = p.operand_additions() + p.combine_additions();
  double flops = border_flops(g);
  for (std::size_t l = 0; l < g.levels; ++l) {
    const double h = static_cast<double>(g.m >> (l + 1));
    flops += pow7(l) * static_cast<double>(ops) * h * h;
  }
  const double b = static_cast<double>(g.base_dim);
  flops += pow7(g.levels) * 2.0 * b * b * b;
  return flops;
}

double strassen_total_traffic_bytes(std::size_t n,
                                    const StrassenOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  const scheme::Program& p = scheme::program(opts.winograd);
  const std::size_t ops = p.operand_additions() + p.combine_additions();
  double bytes = border_traffic(g);
  for (std::size_t l = 0; l < g.levels; ++l) {
    const double h = static_cast<double>(g.m >> (l + 1));
    bytes += pow7(l) * static_cast<double>(ops) * 3.0 * h * h * kWord;
  }
  const double b = static_cast<double>(g.base_dim);
  bytes += pow7(g.levels) * 3.0 * b * b * kWord;
  return bytes;
}

sim::WorkProfile strassen_profile(std::size_t n,
                                  const machine::MachineSpec& spec,
                                  unsigned threads,
                                  const StrassenOptions& opts) {
  const Geometry g = geometry(n, opts.base_cutoff);
  const scheme::Program& program = scheme::program(opts.winograd);
  const double llc = static_cast<double>(spec.llc_capacity_bytes());
  const unsigned p_cap = std::min(threads, spec.core_count);

  sim::WorkProfile wp;
  wp.name = opts.winograd ? "strassen-winograd" : "strassen";

  // Number of quadrant working sets competing for the LLC at once:
  // kUntiedLiveWindow per worker under untied-task interleaving. Serial
  // runs traverse depth-first with perfect producer-consumer locality
  // (window 1).
  const unsigned window = threads > 1 ? kUntiedLiveWindow * p_cap : 1u;

  const auto add_phase = [&](const std::string& label, double op_count,
                             double h, unsigned concurrency,
                             bool first_level) {
    if (op_count <= 0.0) return;
    const double elems = h * h;
    const double flops = op_count * elems;
    const double traffic = op_count * 3.0 * elems * kWord;
    const unsigned c = std::min<unsigned>(concurrency, p_cap);
    // Addition traffic reaches DRAM when the windowed live quadrant
    // working sets overflow the LLC (always true at the first level when
    // the whole problem does not fit).
    const bool dram =
        (3.0 * elems * kWord * window > llc) ||
        (first_level &&
         3.0 * static_cast<double>(g.m) * g.m * kWord > llc);
    wp.add(sim::PhaseCost{
        .label = label,
        .flops = flops,
        .dram_bytes = dram ? traffic : 0.0,
        .cache_bytes = dram ? 0.0 : traffic,
        .parallelism = c,
        .efficiency = kAddKernelEfficiency,
        .imbalance = static_imbalance(op_count, c),
    });
  };

  if (add_entry_phases(wp, g, opts.base_cutoff, threads)) return wp;

  // Operand-sum phases, outermost level first. A node forms the operand
  // sums several products read (Winograd's S1, S2, T1, T2) before its
  // products fan out (concurrency = nodes of this level), and each
  // product's private sums inside its spawned task (concurrency =
  // children of this level). The classic program has no shared sums.
  const std::size_t shared_sums = program.count(
      [&](std::size_t k) { return program.shared(k); });
  const std::size_t private_sums = program.operand_additions() - shared_sums;
  const auto concurrency = [&](double units) {
    return std::max(
        static_cast<unsigned>(std::min<double>(units, spec.core_count)), 1u);
  };
  for (std::size_t l = 0; l < g.levels; ++l) {
    const double nodes = pow7(l);
    const double h = static_cast<double>(g.m >> (l + 1));
    add_phase("shared-operands@L" + std::to_string(l),
              nodes * static_cast<double>(shared_sums), h,
              concurrency(nodes), l == 0);
    add_phase("operands@L" + std::to_string(l),
              nodes * static_cast<double>(private_sums), h,
              concurrency(nodes * 7.0), l == 0);
  }

  // Base products: 7^L multiplies of base_dim^3. Their operands were
  // just written by the deepest operand phase; whether those reads hit
  // DRAM follows the same working-set rule.
  {
    const double nodes = pow7(g.levels);
    const double b = static_cast<double>(g.base_dim);
    const double traffic = nodes * 3.0 * b * b * kWord;
    const unsigned c =
        static_cast<unsigned>(std::min<double>(nodes, p_cap));
    const bool dram = 3.0 * b * b * kWord * window > llc;
    std::uint64_t spawns = 0;
    std::uint64_t syncs = 0;
    if (threads > 1) {
      // Mirror of the implementation: 7 tasks spawned per node down to
      // kTaskSpawnDepth levels, one taskgroup join per spawning node.
      const std::size_t spawn_levels =
          std::min<std::size_t>(kTaskSpawnDepth, g.levels);
      for (std::size_t l = 0; l < spawn_levels; ++l) {
        spawns += static_cast<std::uint64_t>(pow7(l)) * 7;
        syncs += static_cast<std::uint64_t>(pow7(l));
      }
    }
    wp.add(sim::PhaseCost{
        .label = "base-products",
        .flops = nodes * 2.0 * b * b * b,
        .dram_bytes = dram ? traffic : 0.0,
        .cache_bytes = dram ? 0.0 : traffic,
        .parallelism = std::max(c, 1u),
        .efficiency = kBotsBaseKernelEfficiency,
        .imbalance = static_imbalance(nodes, std::max(c, 1u)),
        .sync_events = syncs,
        .spawn_events = spawns,
    });
  }

  // Combine phases, innermost level first (the order the recursion
  // unwinds). Executed in the owning node's task: concurrency = nodes.
  for (std::size_t l = g.levels; l-- > 0;) {
    const double nodes = pow7(l);
    const double h = static_cast<double>(g.m >> (l + 1));
    const unsigned conc = static_cast<unsigned>(
        std::min<double>(std::max(nodes, 1.0), spec.core_count));
    add_phase("combine@L" + std::to_string(l),
              nodes * static_cast<double>(program.combine_additions()), h,
              std::max(conc, 1u), l == 0);
  }

  return wp;
}

}  // namespace capow::strassen
