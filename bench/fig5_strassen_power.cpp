// FIG5 — Strassen power scaling (paper Fig 5 + Table III column).
#include "power_fig_common.hpp"

#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace {

using namespace capow;

// Paper Table III, Strassen row.
constexpr double kPaperAvg[4] = {21.1, 26.25, 30.4, 31.9};

void print_reproduction() {
  bench::print_power_figure(core::AlgorithmId::kStrassen, "FIG 5",
                            kPaperAvg);
}

void BM_StrassenThreads(benchmark::State& state) {
  const std::size_t n = 256;
  const unsigned workers = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  tasking::ThreadPool pool(workers);
  strassen::StrassenOptions opts;
  opts.base_cutoff = 64;
  for (auto _ : state) {
    strassen::multiply(a.view(), b.view(), c.view(), opts,
                                workers > 0 ? &pool : nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_StrassenThreads)->Arg(0)->Arg(2)->Arg(4);

void BM_StrassenWinograd(benchmark::State& state) {
  const std::size_t n = 256;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  strassen::StrassenOptions opts;
  opts.base_cutoff = 64;
  opts.winograd = true;
  for (auto _ : state) {
    strassen::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_StrassenWinograd);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
