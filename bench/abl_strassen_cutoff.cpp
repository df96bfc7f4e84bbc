// ABL2 — ablation of the Strassen base-case cutoff. The paper settles on
// 64 ("after executing several empirical tests"); this bench sweeps the
// cutoff in the cost model (time/EP at 4096) and in real executions at a
// container-scale size.
#include "bench_common.hpp"
#include "capow/linalg/random.hpp"
#include "capow/sim/executor.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/cost_model.hpp"
#include "capow/strassen/strassen.hpp"

namespace {

using namespace capow;

void print_reproduction() {
  bench::banner("ABL 2", "Strassen base-case cutoff sweep (paper fixes 64)");
  const auto m = machine::haswell_e3_1225();

  std::printf("\nn = 4096, 4 threads (simulated):\n");
  harness::TextTable table({"cutoff", "levels", "total GF", "sim time (s)",
                            "pkg W", "EP (W/s)"});
  for (std::size_t cutoff : {16u, 32u, 64u, 128u, 256u, 512u}) {
    strassen::StrassenOptions opts;
    opts.base_cutoff = cutoff;
    const auto run =
        sim::simulate(m, strassen::strassen_profile(4096, m, 4, opts), 4);
    const double w = run.avg_power_w(machine::PowerPlane::kPackage);
    table.add_row(
        {std::to_string(cutoff),
         std::to_string(strassen::recursion_levels(4096, cutoff)),
         harness::fmt(strassen::strassen_total_flops(4096, opts) / 1e9, 1),
         harness::fmt(run.seconds, 3), harness::fmt(w, 2),
         harness::fmt(w / run.seconds, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nreading: small cutoffs shave flops (more Strassen levels) but\n"
      "multiply the O(n^2) addition traffic; large cutoffs hand more work\n"
      "to the slow dense base kernel. The optimum sits in the middle —\n"
      "consistent with the paper's empirically chosen 64.\n");
}

void BM_StrassenRealCutoff(benchmark::State& state) {
  const std::size_t n = 256;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  strassen::StrassenOptions opts;
  opts.base_cutoff = state.range(0);
  for (auto _ : state) {
    strassen::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_StrassenRealCutoff)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The BOTS base kernel alone, at the base sizes fast_recursion's
// Strassen and CAPS shapes bottom out in (cutoff 64; 520, 641 and 769
// recurse on their peeled 512, 640 and 768 blocks). Each leg reports
// the `gflops` counter of 2n^3 flops per call.
template <typename Multiply>
void time_bots_leaf(benchmark::State& state, std::size_t n, bool strided,
                    Multiply&& multiply) {
  // The recursion's leaves are quadrants: A, B and C then have ld = 2n.
  const std::size_t full = strided ? 2 * n : n;
  const auto a_full = linalg::random_square(full, 1);
  const auto b_full = linalg::random_square(full, 2);
  linalg::Matrix out(full, full);
  const auto a = a_full.block(0, full - n, n, n);
  const auto b = b_full.block(full - n, 0, n, n);
  const auto c = out.block(full - n, full - n, n, n);
  for (auto _ : state) {
    multiply(a, b, c);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * n * n * n;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
  state.counters["gflops"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

// Contiguous n x n operands through base_gemm (the dispatched clone).
void BM_BotsBaseGflops(benchmark::State& state) {
  time_bots_leaf(state, static_cast<std::size_t>(state.range(0)),
                 /*strided=*/false, strassen::base_gemm);
}
BENCHMARK(BM_BotsBaseGflops)->Arg(40)->Arg(48)->Arg(56)->Arg(64);

// The leaves as the recursion sees them: quadrants of 2n x 2n matrices.
void BM_BotsBaseStridedGflops(benchmark::State& state) {
  time_bots_leaf(state, static_cast<std::size_t>(state.range(0)),
                 /*strided=*/true, strassen::base_gemm);
}
BENCHMARK(BM_BotsBaseStridedGflops)->Arg(40)->Arg(48)->Arg(56)->Arg(64);

// Every ISA clone of the tile on strided leaves; args are (clone, n),
// clones numbered baseline, avx2, avx512f. Clones the host cannot run
// report an error row, as BM_KernelGflops does.
void BM_BotsBaseCloneGflops(benchmark::State& state) {
  const auto clones = strassen::detail::bots_clones();
  const auto index = static_cast<std::size_t>(state.range(0));
  if (index >= clones.size()) {
    state.SkipWithError("clone not supported on this CPU");
    return;
  }
  const auto& clone = clones[index];
  time_bots_leaf(state, static_cast<std::size_t>(state.range(1)),
                 /*strided=*/true,
                 [&](linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                     linalg::MatrixView c) {
                   clone.run(a, b, c, /*accumulate=*/false);
                 });
  state.SetLabel(clone.name);
}
BENCHMARK(BM_BotsBaseCloneGflops)
    ->ArgsProduct({{0, 1, 2}, {40, 48, 56, 64}});

void BM_WinogradVsClassic(benchmark::State& state) {
  const std::size_t n = 256;
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  strassen::StrassenOptions opts;
  opts.base_cutoff = 32;
  opts.winograd = state.range(0) != 0;
  for (auto _ : state) {
    strassen::multiply(a.view(), b.view(), c.view(), opts);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_WinogradVsClassic)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
