// ABL8 — overhead of ABFT checksum protection on the blocked GEMM.
// Huang–Abraham checksums are admissible exactly because they are
// asymptotically free: guard construction streams the operands once
// (~3n^2 flops + 2n^2 reads) and verification streams C once against
// two k-length dot products per axis (~4n^2), against the multiply's
// 2n^3 flops — a 4/n relative cost, ~0.2% at the paper's n = 2048. The
// acceptance bar for this PR is < 5% end-to-end in detect mode at
// N = 2048. A guarded multiply is guard construction + the *identical*
// pinned gemm + one verification, so the checksum tax is measured
// directly: best-of-reps guard construction and verification against a
// best-of-reps plain gemm on the same operands. (An end-to-end
// guarded-vs-plain comparison measures the same quantity in principle,
// but on a shared host the per-rep load noise is +-10% of a 2048
// multiply — an order of magnitude larger than the effect — while the
// tax itself is small enough to min-estimate tightly.)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "capow/abft/abft.hpp"
#include "capow/abft/checksum.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/linalg/random.hpp"

namespace {

using namespace capow;

// Best-of-reps plain gemm vs best-of-reps guard work (construction +
// one verification) on the same operands, same arena, same resolved
// kernel and blocking.
void time_gemm_pair(std::size_t n, int reps, double* plain,
                    double* guard_tax) {
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  blas::WorkspaceArena arena;
  blas::GemmOptions opts;
  opts.arena = &arena;
  blas::gemm(a.view(), b.view(), c.view(), opts);            // warm-up
  const auto timed = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  *plain = 1e300;
  *guard_tax = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double p = timed(
        [&] { blas::gemm(a.view(), b.view(), c.view(), opts); });
    if (p < *plain) *plain = p;
    const double g = timed([&] {
      abft::AbftGuard guard(a.view(), b.view(), arena, 1e-7);
      benchmark::DoNotOptimize(guard.verify(c.view()).ok);
    });
    if (g < *guard_tax) *guard_tax = g;
  }
}

void print_reproduction() {
  bench::banner("ABL 8", "ABFT checksum-protection overhead");

  struct Row {
    std::size_t n;
    int reps;
  };
  const Row rows[] = {{512, 30}, {1024, 16}, {2048, 10}};

  std::printf(
      "\nblocked GEMM, detect-mode checksum tax vs plain, "
      "best-of-reps:\n");
  harness::TextTable table(
      {"n", "plain s", "guard s", "overhead", "model 4/n"});
  double overhead_2048 = 0.0;
  for (const Row& row : rows) {
    double plain = 0.0, guard_tax = 0.0;
    time_gemm_pair(row.n, row.reps, &plain, &guard_tax);
    const double pct = plain > 0.0 ? (guard_tax / plain) * 100.0 : 0.0;
    if (row.n == 2048) overhead_2048 = pct;
    table.add_row({std::to_string(row.n), harness::fmt(plain, 4),
                   harness::fmt(guard_tax, 4),
                   harness::fmt(pct, 2) + "%",
                   harness::fmt(400.0 / static_cast<double>(row.n), 2) +
                       "%"});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nacceptance: detect-mode overhead at n=2048 < 5%% "
              "(measured %.2f%%)%s\n",
              overhead_2048,
              overhead_2048 < 5.0 ? "" : " — EXCEEDED");
}

// The checksum primitives the guard is built from, at guard-relevant
// shapes: snapshot (col_sums + row_sums over A/B) and one verification
// sweep cost scale as n^2. n = 96..224 are capowd's request sizes,
// where the guard is a visible share of a sub-millisecond multiply.
void BM_GuardConstruct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 3);
  auto b = linalg::random_square(n, 4);
  blas::WorkspaceArena arena;
  for (auto _ : state) {
    abft::AbftGuard guard(a.view(), b.view(), arena, 1e-7);
    benchmark::DoNotOptimize(guard.tolerance());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n));
}
BENCHMARK(BM_GuardConstruct)
    ->Arg(96)
    ->Arg(160)
    ->Arg(224)
    ->Arg(256)
    ->Arg(1024);

void BM_GuardVerify(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 5);
  auto b = linalg::random_square(n, 6);
  linalg::Matrix c(n, n);
  blas::WorkspaceArena arena;
  blas::GemmOptions opts;
  opts.arena = &arena;
  blas::gemm(a.view(), b.view(), c.view(), opts);
  abft::AbftGuard guard(a.view(), b.view(), arena, 1e-7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.verify(c.view()).ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_GuardVerify)
    ->Arg(96)
    ->Arg(160)
    ->Arg(224)
    ->Arg(256)
    ->Arg(1024);

void BM_PayloadChecksum(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  std::vector<double> data(count, 1.0 / 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        abft::payload_checksum(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * sizeof(double)));
}
BENCHMARK(BM_PayloadChecksum)->Arg(1 << 10)->Arg(1 << 16);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
