// capow end-to-end benchmark.
//
//   capow_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
// Every run starts with the self-tests; a failing self-test makes the
// run incorrect.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "capow/blas/gemm_ref.hpp"
#include "ledger.hpp"
#include "runner.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: capow_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "workloads:");
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool report(const char* name, bool ok) {
  std::printf("self-test %-44s %s\n", name, ok ? "ok" : "FAILED");
  return ok;
}

/// The checks the benchmark's own correctness rests on.
bool self_test() {
  bool ok = true;

  // The Freivalds check passes a correct product and catches one flipped
  // element of C.
  const std::size_t n = 67;
  capow::linalg::Matrix a(n, n), b(n, n), c(n, n);
  fill_operand(a.view(), 11);
  fill_operand(b.view(), 12);
  capow::blas::gemm_reference(a.view(), b.view(), c.view());
  ok &= report("freivalds accepts a correct product",
               freivalds(a.view(), b.view(), c.view(), 5).ok);
  c(n / 3, n / 2) += 1e-3;
  ok &= report("freivalds rejects one flipped element",
               !freivalds(a.view(), b.view(), c.view(), 5).ok);
  c(n / 3, n / 2) = std::nan("");
  ok &= report("freivalds rejects a NaN element",
               !freivalds(a.view(), b.view(), c.view(), 5).ok);

  // The generated sequence is a pure function of the seed.
  bool same = true, differs = true;
  for (const Workload& w : workloads()) {
    same &= sequence_hash(w, 7, 2.0).value() ==
            sequence_hash(w, 7, 2.0).value();
    differs &= sequence_hash(w, 7, 2.0).value() !=
               sequence_hash(w, 8, 2.0).value();
  }
  ok &= report("same seed reproduces the sequence hash", same);
  ok &= report("another seed changes the sequence hash", differs);

  // Nested spans close the ledger: Σ self + untracked = wall.
  Ledger ledger;
  ledger.begin_session();
  {
    Ledger::Scope outer(ledger, "outer");
    { Ledger::Scope inner(ledger, "inner"); }
    { Ledger::Scope inner(ledger, "inner"); }
  }
  { Ledger::Scope other(ledger, "other"); }
  ledger.end_session();
  ok &= report("span ledger closes", ledger.closure_error() < 1e-9);
  return ok;
}

/// Prints the result line; a non-finite metric (a benchmark bug) is
/// printed as 0 and makes the run incorrect, since JSON has no NaN.
void print_json(RunResult& r) {
  for (const Metric& m : r.metrics) {
    r.correct = r.correct && std::isfinite(m.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* val = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed" && parse_u64(val, v)) {
      opts.seed = v;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(val, v) && v > 0) {
      opts.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(val, v) && v <= 1) {
      opts.trace = v == 1;
      have_trace = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = val;
    } else {
      usage();
      return 2;
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool tests_ok = self_test();
  RunResult r = run_workload(*w, opts);
  r.correct = r.correct && tests_ok;
  print_json(r);
  return 0;
}
