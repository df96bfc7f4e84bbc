// ABL9 — cost of energy attribution (src/capow/profile). Attribution is
// an *offline* analysis: it consumes a collected trace plus a power
// timeline after the measured region has ended, so its cost budget is
// about analyst patience, not kernel perturbation. This bench (a) times
// attribute() on a synthetic 500k-event trace to show the offline cost
// is linear-ish and bounded, and (b) re-measures the hot-path side —
// traced vs untraced DGEMM — to demonstrate that adding the profile
// module changed nothing about the < 2% tracing budget (attribution
// never runs inside the measured region).
#include <chrono>
#include <cstdint>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/linalg/random.hpp"
#include "capow/profile/attribution.hpp"
#include "capow/telemetry/tracer.hpp"

namespace {

using namespace capow;

// Synthetic trace: `threads` threads, each an alternation of a parent
// span with two children plus an inter-span gap, laid end to end until
// `total_events` records exist. Power: a flat two-plane timeline
// sampled every `slice_ns`.
profile::AttributionInput synthetic_input(std::size_t total_events,
                                          std::uint64_t threads,
                                          std::uint64_t slice_ns) {
  profile::AttributionInput in;
  in.events.reserve(total_events);
  const std::uint64_t span_ns = 40'000;  // 40 us parent spans
  std::uint64_t horizon = 0;
  std::uint64_t tid = 0;
  std::vector<std::uint64_t> cursor(threads, 0);
  while (in.events.size() < total_events) {
    std::uint64_t& t = cursor[tid];
    const std::uint64_t b = t;
    const std::uint64_t e = b + span_ns;
    telemetry::EventRecord parent;
    parent.name = "phase";
    parent.category = "bench";
    parent.t_begin_ns = b;
    parent.t_end_ns = e;
    in.events.push_back({tid, parent});
    telemetry::EventRecord child = parent;
    child.name = "child-a";
    child.t_begin_ns = b + span_ns / 8;
    child.t_end_ns = b + span_ns / 2;
    in.events.push_back({tid, child});
    child.name = "child-b";
    child.t_begin_ns = b + span_ns / 2;
    child.t_end_ns = e - span_ns / 8;
    in.events.push_back({tid, child});
    t = e + span_ns / 4;  // untracked gap between parents
    horizon = std::max(horizon, t);
    tid = (tid + 1) % threads;
  }
  for (std::uint64_t t = 0; t < horizon + slice_ns; t += slice_ns) {
    profile::PowerSlice s;
    s.t_begin_ns = t;
    s.t_end_ns = t + slice_ns;
    s.watts[static_cast<std::size_t>(profile::Plane::kPackage)] = 25.0;
    s.watts[static_cast<std::size_t>(profile::Plane::kPp0)] = 17.0;
    in.slices.push_back(s);
  }
  return in;
}

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
  bench::banner("ABL 9", "energy attribution cost (offline analysis)");

  const std::size_t kEvents = 500'000;
  const auto in = synthetic_input(kEvents, 8, 100'000);
  const auto t0 = std::chrono::steady_clock::now();
  const profile::Profile prof = profile::attribute(in);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  const auto pkg = static_cast<std::size_t>(profile::Plane::kPackage);
  std::printf(
      "\nsynthetic trace: %zu events across 8 threads, %zu power slices\n"
      "attribute(): %.3f s (%.0f events/s)\n",
      in.events.size(), in.slices.size(), seconds,
      static_cast<double>(in.events.size()) / seconds);
  const double integrated = prof.plane_total_j[pkg];
  const double attributed = prof.attributed_j(profile::Plane::kPackage);
  std::printf(
      "conservation (package): integrated %.6f J, attributed %.6f J, "
      "untracked %.6f J, |error| %.3g J\n",
      integrated, attributed, prof.untracked_j[pkg],
      std::abs(integrated - attributed));

  // The hot-path side of the claim: attribution runs offline, so the
  // traced-kernel overhead budget is the tracer's alone.
  const std::size_t n = 512;
  const int reps = 6;
  const double untraced = time_gemm_seconds(n, reps);
  double traced = 0.0;
  {
    telemetry::Tracer tracer;
    telemetry::TracingScope scope(tracer);
    traced = time_gemm_seconds(n, reps);
  }
  const double overhead_pct =
      untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
  harness::TextTable table({"configuration", "seconds/run", "overhead"});
  table.add_row({"untraced DGEMM", harness::fmt(untraced, 6), "-"});
  table.add_row({"traced DGEMM", harness::fmt(traced, 6),
                 harness::fmt(overhead_pct, 2) + "%"});
  std::printf("\nhot path, blocked DGEMM n=%zu (attribution NOT in loop):\n%s",
              n, table.str().c_str());
  std::printf(
      "\ntarget: hot-path overhead < 2%% (tracing budget); attribution is\n"
      "offline-only, so its cost above never lands on the measured region.\n");
}

// Offline attribution cost vs trace size.
void BM_Attribute(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const auto in = synthetic_input(events, 8, 100'000);
  for (auto _ : state) {
    profile::Profile p = profile::attribute(in);
    benchmark::DoNotOptimize(p.root.total_ns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Attribute)->Arg(50'000)->Arg(500'000);

// Collapsed-stack export cost on an attributed profile.
void BM_FoldedExport(benchmark::State& state) {
  const auto in = synthetic_input(50'000, 8, 100'000);
  const profile::Profile p = profile::attribute(in);
  for (auto _ : state) {
    std::ostringstream os;
    profile::write_folded(p, os, profile::FoldedWeight::kMillijoules);
    benchmark::DoNotOptimize(os.str().size());
  }
}
BENCHMARK(BM_FoldedExport);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
