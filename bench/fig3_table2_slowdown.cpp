// TAB2 / FIG3 — "Average Strassen slowdown at problem size = N"
// (Table II) and the slowdown scaling chart (Fig 3). Regenerated from
// the full 48-configuration experiment matrix, then cross-checked with a
// real execution of all three algorithms at a laptop-scale size.
#include <chrono>

#include "bench_common.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"

namespace {

using namespace capow;
using core::AlgorithmId;

constexpr std::size_t kSizes[] = {512, 1024, 2048, 4096};

// Table II of the paper.
constexpr double kPaperStrassen[] = {2.872, 3.477, 2.874, 2.637};
constexpr double kPaperCaps[] = {2.840, 2.942, 2.809, 2.561};

void print_reproduction() {
  auto& runner = bench::paper_runner();
  bench::banner("TABLE II + FIG 3", "average Strassen/CAPS slowdown vs OpenBLAS");

  harness::TextTable table(
      {"Avg Slowdown", "512", "1024", "2048", "4096", "Average"});
  for (AlgorithmId a : {AlgorithmId::kStrassen, AlgorithmId::kCaps}) {
    std::vector<std::string> row{core::algorithm_name(a)};
    double sum = 0.0;
    for (std::size_t n : kSizes) {
      const double s = runner.average_slowdown(a, n);
      sum += s;
      row.push_back(harness::fmt(s, 3));
    }
    row.push_back(harness::fmt(sum / 4.0, 3));
    table.add_row(row);
  }
  std::printf("\n%s\n", table.str().c_str());

  std::printf("paper-vs-ours per size:\n");
  for (std::size_t i = 0; i < 4; ++i) {
    bench::compare_line(
        "Strassen slowdown @" + std::to_string(kSizes[i]), kPaperStrassen[i],
        runner.average_slowdown(AlgorithmId::kStrassen, kSizes[i]), 3);
    bench::compare_line(
        "CAPS slowdown @" + std::to_string(kSizes[i]), kPaperCaps[i],
        runner.average_slowdown(AlgorithmId::kCaps, kSizes[i]), 3);
  }

  // Fig 3: slowdown per thread count (series per algorithm, n = 4096).
  std::printf("\nFIG 3 series (n = 4096, slowdown vs threads):\n");
  for (AlgorithmId a : {AlgorithmId::kStrassen, AlgorithmId::kCaps}) {
    std::vector<std::pair<double, double>> xy;
    for (unsigned t = 1; t <= 4; ++t) {
      xy.emplace_back(
          t, runner.find(a, 4096, t).seconds /
                 runner.find(AlgorithmId::kOpenBlas, 4096, t).seconds);
    }
    bench::ascii_series(core::algorithm_name(a), xy, 4.0);
  }
}

// Real executions at a size this container can handle: the measured
// wall-clock ordering must match the reproduced table's ordering.
void BM_RealBlockedGemm(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RealBlockedGemm)->Arg(128)->Arg(256);

void BM_RealStrassen(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  strassen::StrassenOptions opts;
  opts.base_cutoff = 64;
  for (auto _ : state) {
    strassen::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RealStrassen)->Arg(128)->Arg(256);

void BM_RealCaps(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 64;
  for (auto _ : state) {
    capsalg::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RealCaps)->Arg(128)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
