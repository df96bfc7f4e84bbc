// ABL1 — ablation of CAPS's BFS/DFS cutoff depth. The paper fixes
// CUTOFF_DEPTH = 4 "after much empirical testing"; this bench sweeps the
// depth and reports the simulated time/power/EP and the measured buffer
// high-water mark — the memory-for-communication trade Algorithm 2
// navigates.
#include "bench_common.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/linalg/random.hpp"
#include "capow/sim/executor.hpp"

namespace {

using namespace capow;

void print_reproduction() {
  bench::banner("ABL 1", "CAPS BFS/DFS cutoff-depth sweep (paper fixes 4)");
  const auto m = machine::haswell_e3_1225();

  for (std::size_t n : {2048u, 4096u}) {
    std::printf("\nn = %zu, 4 threads:\n", n);
    harness::TextTable table({"cutoff depth", "sim time (s)", "pkg W",
                              "EP (W/s)", "peak buffers"});
    for (std::size_t depth : {0u, 1u, 2u, 3u, 4u, 5u, 6u}) {
      capsalg::CapsOptions opts;
      opts.bfs_cutoff_depth = depth;
      const auto run = sim::simulate(m, capsalg::caps_profile(n, m, 4, opts), 4);
      const double w = run.avg_power_w(machine::PowerPlane::kPackage);
      table.add_row({std::to_string(depth), harness::fmt(run.seconds, 3),
                     harness::fmt(w, 2),
                     harness::fmt(w / run.seconds, 2),
                     harness::fmt_si(
                         capsalg::caps_peak_buffer_bytes(n, opts), 2) + "B"});
    }
    std::printf("%s", table.str().c_str());
  }
  std::printf(
      "\nreading: one BFS level gives each of the 4 workers a pinned\n"
      "sub-tree (ceil(log7 P) = 1), so time falls from depth 0 to 1 and\n"
      "then stays flat: a deeper BFS level adds operand copies, not\n"
      "parallelism, while the buffer high-water mark grows geometrically.\n"
      "The paper's depth 4 still fits its 4 GB node.\n");
}

void BM_CapsRealCutoffDepth(benchmark::State& state) {
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
BENCHMARK(BM_CapsRealCutoffDepth)->DenseRange(0, 3);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
