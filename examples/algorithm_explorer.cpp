// Algorithm explorer: the per-phase anatomy of each algorithm on a
// chosen platform — where the time goes (compute vs memory roofline),
// what each phase draws on the PKG/PP0 planes, where the Eq 9 crossover
// sits, and what the Eq 8 communication bound permits.
//
// Usage: algorithm_explorer [n] [threads] [machine]
//        machine: haswell (default) | quad | compact
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/core/comm_bounds.hpp"
#include "capow/core/crossover.hpp"
#include "capow/harness/table.hpp"
#include "capow/sim/executor.hpp"

namespace {

using namespace capow;

void print_phase_breakdown(const char* name, const sim::WorkProfile& wp,
                           const machine::MachineSpec& m, unsigned threads) {
  const auto run = sim::simulate(m, wp, threads);
  std::printf("\n%s — %.4f s total, %.2f W package, %.2f W PP0\n", name,
              run.seconds, run.avg_power_w(machine::PowerPlane::kPackage),
              run.avg_power_w(machine::PowerPlane::kPP0));
  harness::TextTable table({"phase", "time (s)", "share", "bound", "cores",
                            "util", "pkg W"});
  for (const auto& ph : run.phases) {
    if (ph.seconds < run.seconds * 0.001) continue;  // skip noise rows
    table.add_row(
        {ph.label, harness::fmt(ph.seconds, 4),
         harness::fmt(ph.seconds / run.seconds * 100.0, 1) + "%",
         ph.memory_seconds > ph.compute_seconds ? "memory" : "compute",
         std::to_string(ph.active_cores),
         harness::fmt(ph.utilization * 100.0, 0) + "%",
         harness::fmt(
             ph.power_w[static_cast<int>(machine::PowerPlane::kPackage)],
             1)});
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2048;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10))
               : 4;
  machine::MachineSpec m = machine::haswell_e3_1225();
  if (argc > 3) {
    if (std::strcmp(argv[3], "quad") == 0) {
      m = machine::haswell_quad_channel();
    } else if (std::strcmp(argv[3], "compact") == 0) {
      m = machine::compact_dual_core();
    }
  }
  if (n == 0 || threads == 0) {
    std::printf("usage: %s [n > 0] [threads > 0] [haswell|quad|compact]\n",
                argv[0]);
    return 1;
  }

  std::printf("algorithm explorer — %s\n", m.name.c_str());
  std::printf(
      "peak %.1f GF/s (%.1f/core), memory %.1f GB/s, balance %.1f "
      "flops/byte\n",
      m.peak_flops() / 1e9, m.per_core_peak_flops() / 1e9,
      m.memory.bandwidth_bytes_per_s / 1e9, m.flops_per_byte());
  std::printf("problem: %zu x %zu, %u thread(s)\n", n, n, threads);

  for (const core::AlgorithmId a : core::kAllAlgorithms) {
    print_phase_breakdown(core::algorithm_name(a),
                          matmul_profile(n, m, threads, {.algorithm = a}), m,
                          threads);
  }

  const double crossover =
      core::strassen_crossover_dimension(m, blas::kTunedGemmEfficiency);
  std::printf(
      "\nEq 9 crossover for this platform: n ~ %.0f (%s the installed "
      "memory)\n",
      crossover,
      core::crossover_fits_in_memory(m, crossover) ? "fits in"
                                                   : "exceeds");
  const double m_words = core::fast_memory_words_per_core(m);
  std::printf(
      "Eq 8 communication bounds at this n, P = %u, M = %.0f words/core:\n"
      "  Strassen-family lower bound: %s words\n"
      "  classical lower bound:       %s words\n",
      threads, m_words,
      harness::fmt_si(core::caps_communication_bound_words(n, threads,
                                                           m_words),
                      2)
          .c_str(),
      harness::fmt_si(
          core::classical_communication_bound_words(n, threads, m_words), 2)
          .c_str());
  return 0;
}
