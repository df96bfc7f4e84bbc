// ABL3 — ablation of the blocked DGEMM's cache blocking. Algorithm 1's
// performance rests on "determining what the best blocking factor is for
// the platform based upon cache hierarchy"; this bench compares the
// machine-derived blocking against fixed alternatives, in modeled
// traffic and in real executions.
#include "bench_common.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/linalg/random.hpp"

namespace {

using namespace capow;

void print_reproduction() {
  bench::banner("ABL 3", "blocked DGEMM blocking-parameter sweep");
  const auto m = machine::haswell_e3_1225();
  const auto selected = blas::select_blocking(
      m, *blas::find_kernel(blas::MicroKernelId::kGeneric));
  std::printf(
      "\nmachine-selected blocking for '%s':\n"
      "  mc=%zu kc=%zu nc=%zu (mr=%zu x nr=%zu microkernel)\n",
      m.name.c_str(), selected.mc, selected.kc, selected.nc, selected.mr,
      selected.nr);

  std::printf("\nmodeled streaming traffic at n = 4096 (lower is better):\n");
  harness::TextTable table({"blocking", "traffic (GB)", "vs selected"});
  const double sel_traffic =
      blas::blocked_gemm_traffic_bytes(4096, 4096, 4096, selected);
  const auto add = [&](const std::string& name,
                       const blas::BlockingParams& bp) {
    const double t = blas::blocked_gemm_traffic_bytes(4096, 4096, 4096, bp);
    table.add_row({name, harness::fmt(t / 1e9, 2),
                   harness::fmt(t / sel_traffic, 2) + "x"});
  };
  add("machine-selected", selected);
  add("tiny (32/32/64)",
      blas::BlockingParams{.mc = 32, .kc = 32, .nc = 64, .mr = 4, .nr = 4});
  add("L1-only (64/64/128)",
      blas::BlockingParams{.mc = 64, .kc = 64, .nc = 128, .mr = 4, .nr = 4});
  add("square-256 (256/256/256)", blas::BlockingParams{.mc = 256,
                                                       .kc = 256,
                                                       .nc = 256,
                                                       .mr = 4,
                                                       .nr = 4});
  add("paper-naive (one-level, 8/8/8)",
      blas::BlockingParams{.mc = 8, .kc = 8, .nc = 8, .mr = 4, .nr = 4});
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nreading: the cache-derived blocking minimizes streaming traffic;\n"
      "degenerate blockings re-stream A and C many times over — the\n"
      "difference Algorithm 1's blocking-factor selection exists to avoid.\n");

  std::printf("\nregistered microkernels (BM_KernelGflops sweeps these):\n");
  harness::TextTable kernels({"kernel", "tile", "supported"});
  for (const auto& k : blas::kernel_registry()) {
    kernels.add_row({k.name,
                     std::to_string(k.mr) + "x" + std::to_string(k.nr),
                     k.supported() ? "yes" : "no"});
  }
  std::printf("%s", kernels.str().c_str());
}

// Per-kernel single-thread throughput at the paper's N=1024 working
// size. The `gflops` user counter lands in the bench JSONL; the arena
// counters show the packing buffers pooling (hit rate -> 1 after the
// first iteration).
void BM_KernelGflops(benchmark::State& state) {
  const auto& kern =
      blas::kernel_registry()[static_cast<std::size_t>(state.range(0))];
  if (!kern.supported()) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const std::size_t n = 1024;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  blas::GemmOptions opts;
  opts.kernel = kern.id;
  blas::gemm(a.view(), b.view(), c.view(), opts);  // warm the arena
  auto& arena = blas::WorkspaceArena::process_arena();
  const blas::ArenaStats before = arena.stats();
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  const blas::ArenaStats after = arena.stats();
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
  state.SetLabel(kern.name);
  state.counters["gflops"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  const double acquires =
      static_cast<double>(after.acquires - before.acquires);
  state.counters["arena_hit_rate"] =
      acquires > 0.0
          ? static_cast<double>(after.hits - before.hits) / acquires
          : 0.0;
}
BENCHMARK(BM_KernelGflops)
    ->DenseRange(0, static_cast<int>(blas::kernel_registry().size()) - 1)
    ->Unit(benchmark::kMillisecond);

// blas::gemm at default options (host kernel, its default blocking) on
// the square sizes perfbench's gemm_large workload runs, so a change to
// the packed path shows here per size.
void BM_BlockedGemmGflops(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  blas::gemm(a.view(), b.view(), c.view());  // warm the arena
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
  state.SetLabel(blas::select_kernel().name);
  state.counters["gflops"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BlockedGemmGflops)
    ->Arg(768)
    ->Arg(960)
    ->Arg(1152)
    ->Arg(1344)
    ->Arg(1536)
    ->Unit(benchmark::kMillisecond);

void BM_RealGemmBlocking(benchmark::State& state) {
  const std::size_t n = 256;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  blas::BlockingParams bp;
  switch (state.range(0)) {
    case 0:
      bp = blas::select_blocking(
          machine::haswell_e3_1225(),
          *blas::find_kernel(blas::MicroKernelId::kGeneric));
      break;
    case 1:
      bp = blas::BlockingParams{.mc = 32, .kc = 32, .nc = 64, .mr = 4,
                                .nr = 4};
      break;
    default:
      bp = blas::BlockingParams{.mc = 8, .kc = 8, .nc = 8, .mr = 4, .nr = 4};
      break;
  }
  blas::GemmOptions opts;
  opts.blocking = bp;
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_RealGemmBlocking)->Arg(0)->Arg(1)->Arg(2);

void BM_ReferenceGemm(benchmark::State& state) {
  const std::size_t n = 128;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm_reference(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_ReferenceGemm);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
