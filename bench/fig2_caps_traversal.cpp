// FIG2 — "Depth-first and breadth-first CAPS tree traversal" (paper
// Fig 2) and the Algorithm 2 control flow. Renders the recursion tree's
// per-level BFS/DFS decision for the paper's configuration, and
// validates the schedule against a real instrumented CAPS run's
// traversal statistics.
#include "bench_common.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/capsalg/cost_model.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"

namespace {

using namespace capow;

void print_reproduction() {
  bench::banner("FIG 2 / ALG 2",
                "CAPS breadth-first vs depth-first tree traversal");

  constexpr std::size_t kN = 4096;
  constexpr std::size_t kCutoff = 64;
  constexpr std::size_t kBfsDepth = 4;  // the paper's CUTOFF_DEPTH
  const std::size_t levels = strassen::recursion_levels(kN, kCutoff);

  std::printf(
      "\nAlgorithm 2:  if DEPTH < CUTOFF_DEPTH then BFS else DFS\n"
      "configuration: n = %zu, base cutoff = %zu, CUTOFF_DEPTH = %zu\n\n",
      kN, kCutoff, kBfsDepth);

  std::printf("  depth  nodes     sub-dim  mode  schedule\n");
  double nodes = 1.0;
  for (std::size_t l = 0; l < levels; ++l) {
    const std::size_t dim = kN >> l;
    const bool bfs = l < kBfsDepth;
    std::printf("  %5zu  %8.0f  %7zu  %-4s  %s\n", l, nodes, dim,
                bfs ? "BFS" : "DFS",
                bfs ? "7 sub-products in parallel, operands buffered"
                    : "7 sub-products in sequence on the owning worker");
    nodes *= 7.0;
  }
  std::printf("  %5zu  %8.0f  %7zu  base  dense kernel\n", levels, nodes,
              kN >> levels);

  // Validate the schedule against a real run (scaled down so it
  // executes quickly; the level split is depth-determined, not
  // size-determined, so it transfers).
  linalg::Matrix a = linalg::random_square(256, 1);
  linalg::Matrix b = linalg::random_square(256, 2);
  linalg::Matrix c(256, 256);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 16;  // 4 levels at n = 256
  opts.bfs_cutoff_depth = 2;
  capsalg::CapsStats stats;
  capsalg::multiply(a.view(), b.view(), c.view(), opts, nullptr,
                         &stats);
  std::printf(
      "\nmeasured traversal at n=256, cutoff 16, CUTOFF_DEPTH 2:\n"
      "  BFS nodes %llu (expect 1 + 7 = 8)\n"
      "  DFS nodes %llu (expect 49 + 343 = 392)\n"
      "  base products %llu (expect 7^4 = 2401)\n"
      "  peak buffer high-water %s (the BFS memory-for-communication "
      "trade)\n",
      static_cast<unsigned long long>(stats.bfs_nodes),
      static_cast<unsigned long long>(stats.dfs_nodes),
      static_cast<unsigned long long>(stats.base_products),
      harness::fmt_si(static_cast<double>(stats.peak_buffer_bytes), 2)
          .c_str());

  std::printf("  model's predicted peak: %s\n",
              harness::fmt_si(capsalg::caps_peak_buffer_bytes(256, opts), 2)
                  .c_str());
}

void BM_CapsTraversalBookkeeping(benchmark::State& state) {
  // Cost of one full traversal with stats collection, excluding the
  // arithmetic (tiny base case).
  auto a = linalg::random_square(64, 1);
  auto b = linalg::random_square(64, 2);
  linalg::Matrix c(64, 64);
  capsalg::CapsOptions opts;
  opts.base_cutoff = 8;
  opts.bfs_cutoff_depth = state.range(0);
  for (auto _ : state) {
    capsalg::CapsStats stats;
    capsalg::multiply(a.view(), b.view(), c.view(), opts, nullptr,
                           &stats);
    benchmark::DoNotOptimize(stats.peak_buffer_bytes);
  }
}
BENCHMARK(BM_CapsTraversalBookkeeping)->Arg(0)->Arg(3);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
