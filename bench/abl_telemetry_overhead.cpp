// ABL6 — overhead of the telemetry span tracer. The observability layer
// is only admissible if it does not perturb what it observes: target is
// under 2% added runtime on a real kernel while tracing. Span sites are
// always compiled in; with no tracer installed each one costs what
// BM_SpanSiteInactive measures (about 19 ns on a 4-core Xeon VM). This
// bench times blocked DGEMM with and without an installed tracer and
// reports the span-site costs directly.
#include <chrono>

#include "bench_common.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/linalg/random.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/telemetry/tracer.hpp"

namespace {

using namespace capow;

double time_gemm_seconds(std::size_t n, int reps) {
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  blas::gemm(a.view(), b.view(), c.view());  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    blas::gemm(a.view(), b.view(), c.view());
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(reps);
}

void print_reproduction() {
  bench::banner("ABL 6", "telemetry span-tracer overhead");
  const std::size_t n = 512;
  const int reps = 6;
  const double untraced = time_gemm_seconds(n, reps);
  double traced = 0.0;
  std::size_t events = 0;
  {
    telemetry::Tracer tracer;
    telemetry::TracingScope scope(tracer);
    traced = time_gemm_seconds(n, reps);
    events = tracer.collect().size();
  }
  const double overhead_pct =
      untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
  std::printf("\nblocked DGEMM n=%zu, %d reps:\n", n, reps);
  harness::TextTable table(
      {"configuration", "seconds/run", "overhead", "events"});
  table.add_row({"tracer off", harness::fmt(untraced, 6), "-", "0"});
  table.add_row({"tracer on", harness::fmt(traced, 6),
                 harness::fmt(overhead_pct, 2) + "%",
                 std::to_string(events)});
  std::printf("%s", table.str().c_str());
  std::printf(
      "\ntarget: < 2%% while tracing; an idle span site costs what\n"
      "BM_SpanSiteInactive reports below.\n");
}

// Span cost at an instrumented call site with NO tracer installed — the
// tax every kernel pays all the time.
void BM_SpanSiteInactive(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::SpanScope span("bench.span", "bench");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanSiteInactive);

// Full span cost with an installed tracer: two clock reads + one ring
// push.
void BM_SpanSiteActive(benchmark::State& state) {
  telemetry::Tracer tracer;
  telemetry::TracingScope scope(tracer);
  for (auto _ : state) {
    telemetry::SpanScope span("bench.span", "bench", "i", 1, "j", 2);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanSiteActive);

// The end-to-end comparison as a benchmark pair (real kernel work).
void BM_GemmUntraced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.view().row(0));
  }
}
BENCHMARK(BM_GemmUntraced)->Arg(256);

void BM_GemmTraced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = linalg::random_square(n, 1);
  auto b = linalg::random_square(n, 2);
  linalg::Matrix c(n, n);
  telemetry::Tracer tracer;
  telemetry::TracingScope scope(tracer);
  for (auto _ : state) {
    blas::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.view().row(0));
  }
}
BENCHMARK(BM_GemmTraced)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
