// FIG4 — OpenBLAS power scaling (paper Fig 4 + Table III column).
#include "power_fig_common.hpp"

#include "capow/blas/blocked_gemm.hpp"
#include "capow/linalg/random.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace {

using namespace capow;

// Paper Table III, OpenBLAS row.
constexpr double kPaperAvg[4] = {20.2, 30.9, 40.98, 49.13};

void print_reproduction() {
  bench::print_power_figure(core::AlgorithmId::kOpenBlas, "FIG 4",
                            kPaperAvg);
}

// Real kernel behind the figure: the packed blocked DGEMM, serial and
// through the work-sharing pool.
void BM_BlockedGemmThreads(benchmark::State& state) {
  const std::size_t n = 256;
  const unsigned workers = state.range(0);
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  tasking::ThreadPool pool(workers);
  blas::GemmOptions opts;
  opts.pool = workers > 0 ? &pool : nullptr;
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_BlockedGemmThreads)->Arg(0)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
