// Shared reproduction printer for the power-scaling figures
// (Fig 4 OpenBLAS, Fig 5 Strassen, Fig 6 CAPS): package power versus
// thread count, one series per problem size, plus a sampled power trace
// through the simulated RAPL measurement loop.
#pragma once

#include "bench_common.hpp"
#include "capow/api/matmul.hpp"
#include "capow/sim/executor.hpp"

namespace capow::bench {

/// Prints the power-vs-threads table and ASCII figure for one algorithm,
/// comparing the average row against the paper's Table III column.
inline void print_power_figure(core::AlgorithmId a,
                               const char* fig_name,
                               const double paper_avg_by_threads[4]) {
  auto& runner = paper_runner();
  banner(fig_name, std::string(core::algorithm_name(a)) +
                       " power scaling (package watts vs threads)");

  harness::TextTable table({"N", "1", "2", "3", "4"});
  for (std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    std::vector<std::string> row{std::to_string(n)};
    for (unsigned t = 1; t <= 4; ++t) {
      row.push_back(harness::fmt(runner.find(a, n, t).package_watts, 2));
    }
    table.add_row(row);
  }
  std::printf("\n%s\n", table.str().c_str());

  std::printf("average across sizes vs paper Table III:\n");
  for (unsigned t = 1; t <= 4; ++t) {
    compare_line("avg package watts @" + std::to_string(t) + " threads",
                 paper_avg_by_threads[t - 1], runner.average_power(a, t));
  }

  std::printf("\npower series (n = 4096):\n");
  std::vector<std::pair<double, double>> xy;
  double peak = 0.0;
  for (unsigned t = 1; t <= 4; ++t) {
    const double w = runner.find(a, 4096, t).package_watts;
    xy.emplace_back(t, w);
    peak = std::max(peak, w);
  }
  ascii_series("package watts vs threads", xy, peak);

  // A sampled trace through the simulated PAPI/RAPL measurement loop —
  // what a power monitor polling during the run would log.
  const auto& m = runner.config().machine;
  sim::RunResult agg;
  const auto samples = sim::simulate_with_sampling(
      m, matmul_profile(4096, m, 4, {.algorithm = a}), 4, /*dt=*/0.05, &agg);
  std::printf("\nsampled RAPL trace (n = 4096, 4 threads, 50 ms poll):\n");
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 8);
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    std::printf("    t=%7.3fs  PACKAGE=%6.2f W  PP0=%6.2f W\n",
                samples[i].t_seconds, samples[i].package_w,
                samples[i].pp0_w);
  }
}

}  // namespace capow::bench
