// capow-bench-diff — compare two bench-JSONL files with a noise band.
//
// BASELINE and CURRENT are files of one-JSON-object-per-line benchmark
// records as written by CAPOW_BENCH_JSONL (bench/bench_common.hpp), or
// a committed snapshot from bench/baselines/. Repeated records of the
// same benchmark merge best-of per metric before comparison.
//
// Exit codes:
//   0  no compared metric regressed beyond tolerance
//   1  at least one regression (current > baseline * (1 + tolerance))
//   2  usage or I/O error
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "capow/core/env.hpp"
#include "capow/harness/bench_diff.hpp"
#include "capow/harness/table.hpp"
#include "cli.hpp"

namespace {

using namespace capow;

/// The records in `path`; empty (after a message) when the file cannot
/// be read or holds none.
std::vector<harness::BenchRecord> load(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "capow-bench-diff: cannot open " << path << "\n";
    return {};
  }
  std::size_t malformed = 0;
  auto records = harness::parse_bench_jsonl(is, &malformed);
  if (malformed > 0) {
    std::cerr << "capow-bench-diff: " << path << ": skipped " << malformed
              << " malformed line(s)\n";
  }
  if (records.empty()) {
    std::cerr << "capow-bench-diff: " << path
              << ": no benchmark records found\n";
  }
  return records;
}

struct DiffOptions {
  harness::BenchDiffOptions diff;
  std::vector<std::string> paths;  // BASELINE, CURRENT
};

int run(const DiffOptions& o) {
  const auto baseline = load(o.paths[0]);
  if (baseline.empty()) return 2;
  const auto current = load(o.paths[1]);
  if (current.empty()) return 2;

  const auto report =
      harness::diff_bench_records(baseline, current, o.diff);

  harness::TextTable table(
      {"benchmark", "metric", "baseline", "current", "ratio", "status"});
  for (const auto& row : report.rows) {
    table.add_row({row.name, row.metric, harness::fmt(row.baseline, 1),
                   harness::fmt(row.current, 1), harness::fmt(row.ratio, 3),
                   row.regression ? "REGRESSION" : "ok"});
  }
  std::cout << "tolerance: +" << o.diff.tolerance * 100.0 << "% ("
            << o.paths[0] << " -> " << o.paths[1] << ")\n"
            << table.str();

  for (const auto& name : report.missing) {
    std::cout << "missing from current: " << name << "\n";
  }
  for (const auto& name : report.added) {
    std::cout << "new in current: " << name << "\n";
  }

  const std::size_t regressions = report.regressions();
  if (regressions > 0) {
    std::cout << regressions << " regression(s) beyond tolerance\n";
    return 1;
  }
  std::cout << "no regressions (" << report.rows.size()
            << " metric comparison(s))\n";
  return 0;
}

const cli::Tool<DiffOptions> kTool{
    .name = "capow-bench-diff",
    .usage = "[flags] BASELINE CURRENT",
    .exit_codes = "exit: 0 ok, 1 regression, 2 usage/IO error",
    .modes = {{nullptr, "compare two bench-JSONL files with a noise band",
               run}},
    .flags = {
        {"--tolerance=F", "fractional noise band (default 0.10 = +10%)",
         cli::kAllModes,
         [](DiffOptions& o, cli::Arg v) {
           o.diff.tolerance = core::parse_double_in("--tolerance", v, 0, 1e9);
         }},
        {"--metrics=a,b,...", "metrics (default real_time,cpu_time)",
         cli::kAllModes,
         [](DiffOptions& o, cli::Arg v) {
           o.diff.metrics = cli::split_list("--metrics", v);
         }},
    },
    .operands = 2,
    .store_operand = [](DiffOptions& o, cli::Arg v) { o.paths.push_back(v); },
    .short_help = true,
};

}  // namespace

int main(int argc, char** argv) {
  DiffOptions opts;
  return cli::parse(argc, argv, kTool, opts).run(opts);
}
