// FIG6 — CAPS power scaling (paper Fig 6 + Table III column).
#include "power_fig_common.hpp"

#include "capow/capsalg/caps.hpp"
#include "capow/linalg/random.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace {

using namespace capow;

// Paper Table III, CAPS row.
constexpr double kPaperAvg[4] = {17.7, 25.75, 30.175, 33.175};

void print_reproduction() {
  bench::print_power_figure(core::AlgorithmId::kCaps, "FIG 6", kPaperAvg);
}

void BM_CapsThreads(benchmark::State& state) {
  const std::size_t n = 256;
  const unsigned workers = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  tasking::ThreadPool pool(workers);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 64;
  for (auto _ : state) {
    capsalg::multiply(a.view(), b.view(), c.view(), opts,
                           workers > 0 ? &pool : nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_CapsThreads)->Arg(0)->Arg(2)->Arg(4);

void BM_CapsBfsDepth(benchmark::State& state) {
  const std::size_t n = 256;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 32;
  opts.bfs_cutoff_depth = state.range(0);
  for (auto _ : state) {
    capsalg::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_CapsBfsDepth)->Arg(0)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
