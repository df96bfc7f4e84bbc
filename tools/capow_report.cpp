// capow-report: regenerate the paper's full evaluation (Tables II-IV,
// the Fig 7 scaling series) for any machine/problem configuration, as
// text or CSV — the command-line front door to the library.
//
// Usage:
//   capow-report [options]
//     --machine=haswell|quad|compact   platform model (default haswell)
//     --sizes=512,1024,2048,4096       problem sizes
//     --threads=1,2,3,4                thread counts
//     --csv                            emit CSV instead of tables
//     --quiesce=60                     seconds of idle between runs
//     --trace=FILE                     Chrome trace JSON (Perfetto)
//     --jsonl=FILE                     one JSON record per run
//     --metrics=FILE                   Prometheus text metrics
//     --profile=FILE                   per-run energy attribution
//                                      profiles (text)
//     --flamegraph=FILE                collapsed stacks (flamegraph.pl
//                                      / speedscope folded format)
//     --flamegraph-weight=mj|ns        folded weight: millijoules
//                                      (default) or nanoseconds
//     --ep-phases=FILE                 per-phase EP scaling JSONL
//     --faults=SPEC                    fault injection spec (or env
//                                      CAPOW_FAULTS), e.g.
//                                      comm.drop=0.01,rapl.fail=0.05,seed=42
//     --checkpoint=FILE                append each finished run to FILE
//     --resume=FILE                    replay finished runs from FILE,
//                                      run only missing/failed ones
//     --comm                           communication audit mode: run the
//                                      SUMMA / dist-CAPS audit points
//                                      with the CommStats collector and
//                                      print P x P byte matrices, per-
//                                      rank critical paths, and the
//                                      Eq (8) measured-vs-bound table
//                                      (skips the experiment matrix;
//                                      honors --machine, --faults,
//                                      --checkpoint/--resume, --metrics,
//                                      --csv)
//     --comm-trace=FILE                with --comm: Chrome trace with
//                                      one lane per rank and send->recv
//                                      flow arrows (live runs only)
//     --backends                       heterogeneous EP study: dispatch
//                                      every algorithm onto each
//                                      registered backend (cpu,
//                                      sim_accel) through the fallback-
//                                      aware registry and print per-
//                                      backend EP/S rows plus the
//                                      per-device Eq (9) crossover
//                                      comparison (skips the experiment
//                                      matrix; honors --sizes,
//                                      --threads, --csv)
//     --serve                          overload-safety study: run the
//                                      capowd service engine on a
//                                      seeded arrival trace and print
//                                      per-tier outcomes/latencies plus
//                                      the SLO and energy-budget
//                                      verdicts (skips the experiment
//                                      matrix; honors --machine, --csv,
//                                      --metrics, --faults and the
//                                      CAPOW_SERVE_* env knobs)
//     --serve-seed=N                   with --serve: trace seed
//     --serve-duration=S               with --serve: trace horizon
//     --serve-rate=HZ                  with --serve: mean arrival rate
//     --serve-budget-w=W               with --serve: power budget
//                                      (overrides CAPOW_SERVE_BUDGET_W;
//                                      0 = unlimited)
//     --serve-log=FILE                 with --serve: write the decision
//                                      log (the byte-reproducible
//                                      determinism surface CI diffs)
//     --help
//
// Exit status: 0 on success, 1 on runtime failure, 2 on a usage error
// (unknown flag, malformed value).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capow/abft/abft.hpp"
#include "capow/backend/backend.hpp"
#include "capow/core/env.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/fault/fault.hpp"
#include "capow/harness/backend_study.hpp"
#include "capow/harness/comm_audit.hpp"
#include "capow/harness/experiment.hpp"
#include "capow/harness/table.hpp"
#include "capow/harness/telemetry_export.hpp"
#include "capow/serve/loadgen.hpp"
#include "capow/serve/server.hpp"
#include "capow/telemetry/export.hpp"
#include "capow/telemetry/tracer.hpp"

namespace {

using namespace capow;

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    // Reject partial tokens ("12abc") and empty ones, not just zeros:
    // strtoull stops at the first non-digit, so check it consumed the
    // whole token.
    if (v == 0 || end != tok.c_str() + tok.size()) {
      throw std::invalid_argument("bad list element: '" + tok +
                                  "' (expected a positive integer)");
    }
    out.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

// Opens `path` for writing and runs `fn(stream)`; exits with a message
// on I/O failure.
template <typename Fn>
void write_file(const std::string& path, const char* what, Fn&& fn) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s file '%s'\n", what, path.c_str());
    std::exit(1);
  }
  fn(os);
  if (!os) {
    std::fprintf(stderr, "write failed for %s file '%s'\n", what,
                 path.c_str());
    std::exit(1);
  }
}

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [--machine=haswell|quad|compact] [--sizes=a,b,...]\n"
      "          [--threads=a,b,...] [--csv] [--quiesce=SECONDS]\n"
      "          [--trace=FILE] [--jsonl=FILE] [--metrics=FILE]\n"
      "          [--profile=FILE] [--flamegraph=FILE]\n"
      "          [--flamegraph-weight=mj|ns] [--ep-phases=FILE]\n"
      "          [--faults=SPEC] [--checkpoint=FILE] [--resume=FILE]\n"
      "          [--comm] [--comm-trace=FILE] [--backends]\n"
      "          [--serve] [--serve-seed=N] [--serve-duration=S]\n"
      "          [--serve-rate=HZ] [--serve-budget-w=W]\n"
      "          [--serve-log=FILE]\n",
      argv0);
}

void emit(const harness::TextTable& t, bool csv, const char* title) {
  if (csv) {
    std::printf("# %s\n%s\n", title, t.csv().c_str());
  } else {
    std::printf("\n== %s ==\n%s", title, t.str().c_str());
  }
}

std::string point_label(const harness::CommAuditRecord& r) {
  return r.algorithm + " n=" + std::to_string(r.n) +
         " P=" + std::to_string(r.ranks);
}

/// Communication audit mode (--comm): run or replay the SUMMA and
/// dist-CAPS audit points and print the P x P byte matrices, per-rank
/// critical-path summaries, and the Eq (8) verdict table. Replayed
/// records come verbatim from the checkpoint (every table-visible field
/// is persisted exactly), so a --resume report is bit-identical to the
/// live one.
int run_comm_report(const machine::MachineSpec& spec, bool csv,
                    const std::string& checkpoint_path, bool resume,
                    const std::string& metrics_path,
                    const std::string& comm_trace_path,
                    const fault::FaultInjector* injector) {
  harness::CommAuditOptions opts;
  opts.machine = spec;
  opts.collect_trace = !comm_trace_path.empty();

  std::vector<harness::CommAuditRecord> replayed;
  if (resume) replayed = harness::load_comm_audits(checkpoint_path);

  std::ofstream ckpt;
  if (!checkpoint_path.empty()) {
    ckpt.open(checkpoint_path,
              resume ? std::ios::app : std::ios::trunc | std::ios::out);
    if (!ckpt) {
      std::fprintf(stderr, "cannot open checkpoint file '%s'\n",
                   checkpoint_path.c_str());
      return 1;
    }
  }

  telemetry::ChromeTraceWriter trace_writer;
  std::vector<harness::CommAuditRecord> records;
  std::size_t replayed_count = 0;
  int trace_pid = 0;
  for (const harness::CommAuditPoint& point :
       harness::default_comm_audit_points()) {
    const auto hit = std::find_if(
        replayed.begin(), replayed.end(),
        [&](const harness::CommAuditRecord& r) {
          return r.algorithm == point.algorithm && r.n == point.n &&
                 r.ranks == point.ranks;
        });
    if (hit != replayed.end()) {
      records.push_back(*hit);
      ++replayed_count;
      continue;
    }
    std::vector<telemetry::TraceEvent> events;
    std::uint64_t trace_start = 0;
    harness::CommAuditRecord rec;
    try {
      rec = harness::run_comm_audit(point, opts, &events, &trace_start);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "comm audit %s n=%zu P=%d failed: %s\n",
                   point.algorithm.c_str(), point.n, point.ranks, e.what());
      return 1;
    }
    if (opts.collect_trace) {
      harness::append_comm_trace(trace_writer, point_label(rec), trace_pid++,
                                 events, point.ranks, trace_start);
    }
    if (ckpt.is_open()) {
      ckpt << harness::comm_audit_line(rec) << "\n";
      ckpt.flush();
    }
    records.push_back(std::move(rec));
  }

  if (!comm_trace_path.empty()) {
    if (replayed_count > 0) {
      std::fprintf(stderr,
                   "note: %zu audit point(s) replayed from checkpoint — "
                   "traces cover only the points run live\n",
                   replayed_count);
    }
    write_file(comm_trace_path, "comm-trace", [&](std::ostream& os) {
      trace_writer.write(os);
    });
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, "metrics", [&](std::ostream& os) {
      telemetry::MetricsRegistry registry;
      harness::export_comm_metrics(registry, records);
      registry.write(os);
    });
  }

  if (!csv) {
    std::printf("capow comm audit — %s (M = %s words/core)\n",
                spec.name.c_str(),
                records.empty() ? "?"
                                : harness::fmt(records.front().m_words, 0)
                                      .c_str());
    if (replayed_count > 0) {
      std::printf("%zu audit point(s) replayed from checkpoint %s\n",
                  replayed_count, checkpoint_path.c_str());
    }
  }
  for (const harness::CommAuditRecord& r : records) {
    const std::string label = point_label(r);
    emit(harness::comm_matrix_table(r), csv,
         ("comm matrix — " + label + " (payload bytes)").c_str());
    emit(harness::comm_critical_path_table(r), csv,
         ("critical path — " + label).c_str());
    if (!r.completed()) {
      std::fprintf(stderr, "warning: %s run was poisoned: %s\n",
                   label.c_str(), r.error.c_str());
    }
  }
  emit(harness::comm_bound_table(records), csv,
       "Eq (8) communication audit (measured vs lower bound)");

  if (injector != nullptr) {
    const fault::FaultCounters counters = injector->counters();
    harness::TextTable t({"fault event", "count"});
    for (std::size_t i = 0; i < fault::kEventCount; ++i) {
      t.add_row({fault::event_name(static_cast<fault::Event>(i)),
                 std::to_string(counters.by_event[i])});
    }
    emit(t, csv,
         ("fault events (spec: " + injector->plan().spec() + ")").c_str());
  }
  return 0;
}

/// Heterogeneous EP study mode (--backends): the paper's Eq (1)/(5)
/// measurements and the Eq (9) crossover, evaluated per registered
/// device class through the fallback-aware BackendRegistry.
int run_backend_report(const harness::BackendStudyConfig& cfg, bool csv) {
  if (!csv) {
    std::printf("capow heterogeneous EP study — %zu backend(s)\n",
                backend::BackendRegistry::instance().all().size());
    for (backend::Backend* b : backend::BackendRegistry::instance().all()) {
      if (b == nullptr) continue;
      const machine::MachineSpec& spec = b->device_spec();
      std::printf("  %-9s %s: peak %.1f GF/s, memory %.1f GB/s\n",
                  b->name(), b->description(), spec.peak_flops() / 1e9,
                  spec.memory.bandwidth_bytes_per_s / 1e9);
    }
  }
  const std::vector<harness::BackendStudyRow> rows =
      harness::run_backend_study(cfg);
  emit(harness::backend_ep_table(rows), csv,
       "per-backend energy performance (Eq 1 / Eq 5)");
  emit(harness::backend_crossover_table(harness::backend_crossover_rows()),
       csv, "per-device Strassen crossover (Eq 9)");
  const std::uint64_t fallbacks =
      backend::BackendRegistry::instance().fallbacks_total();
  if (!csv && fallbacks > 0) {
    std::printf(
        "\n%llu dispatch(es) fell back to the host backend "
        "(capow_backend_fallbacks_total)\n",
        static_cast<unsigned long long>(fallbacks));
  }
  return 0;
}

/// Overload-safety study mode (--serve): generate the seeded arrival
/// trace, run the capowd engine on its virtual clock, and print the
/// per-tier outcome/latency table plus the SLO and energy-budget
/// verdicts. For a fixed (seed, options, fault plan) the decision log
/// written by --serve-log is byte-reproducible — the serve-smoke CI job
/// runs the same configuration twice and diffs the two files.
int run_serve_report(const serve::LoadGenOptions& lg,
                     const serve::ServeOptions& so, bool csv,
                     const std::string& metrics_path,
                     const std::string& serve_log_path,
                     const fault::FaultInjector* injector) {
  std::vector<serve::Request> trace;
  serve::ServeReport report;
  try {
    trace = serve::generate_trace(lg);
    serve::Server server(so);
    report = server.run(trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve run failed: %s\n", e.what());
    return 1;
  }

  if (!serve_log_path.empty()) {
    write_file(serve_log_path, "serve-log", [&](std::ostream& os) {
      os << report.decision_log();
    });
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, "metrics", [&](std::ostream& os) {
      telemetry::MetricsRegistry registry;
      serve::export_serve_metrics(report, registry);
      registry.write(os);
    });
  }

  if (!csv) {
    std::printf("capow serve report — %s\n", so.machine.name.c_str());
    std::printf(
        "trace: seed=%llu duration=%.1fs rate=%.1f/s burst x%.1f over "
        "[%.1fs, %.1fs); %zu arrival(s)\n",
        static_cast<unsigned long long>(lg.seed), lg.duration_s, lg.rate_hz,
        lg.burst_factor, lg.burst_start_s, lg.burst_start_s + lg.burst_len_s,
        trace.size());
    if (so.budget.budget_w > 0.0) {
      const double capacity_j = so.budget.capacity_j > 0.0
                                    ? so.budget.capacity_j
                                    : 2.0 * so.budget.budget_w;
      std::printf("budget: %.2f W (capacity %.1f J, reserve %.0f%%)\n",
                  so.budget.budget_w, capacity_j,
                  so.budget.reserve_fraction * 100.0);
    } else {
      std::printf("budget: unlimited (admission by queue bound only)\n");
    }
  }

  {
    harness::TextTable t({"tier", "submitted", "admitted", "completed",
                          "expired", "cancelled", "rej_queue", "rej_budget",
                          "rej_shed", "rej_size", "p50_s", "p99_s",
                          "joules"});
    for (std::size_t i = 0; i < serve::kTierCount; ++i) {
      const auto tier = static_cast<serve::QosTier>(i);
      const serve::TierStats& ts = report.tier(tier);
      t.add_row({serve::tier_name(tier), std::to_string(ts.submitted),
                 std::to_string(ts.admitted), std::to_string(ts.completed),
                 std::to_string(ts.expired), std::to_string(ts.cancelled),
                 std::to_string(
                     ts.rejected_for(serve::RejectReason::kQueueFull)),
                 std::to_string(
                     ts.rejected_for(serve::RejectReason::kEnergyBudget)),
                 std::to_string(
                     ts.rejected_for(serve::RejectReason::kShedding)),
                 std::to_string(
                     ts.rejected_for(serve::RejectReason::kOversized)),
                 harness::fmt(ts.p50_s, 4), harness::fmt(ts.p99_s, 4),
                 harness::fmt(ts.joules, 3)});
    }
    emit(t, csv, "per-tier outcomes and virtual latency");
  }

  {
    harness::TextTable t({"service metric", "value"});
    t.add_row({"virtual duration (s)", harness::fmt(report.duration_s, 3)});
    t.add_row({"predicted joules", harness::fmt(report.predicted_joules, 3)});
    t.add_row(
        {"measured joules (RAPL)", harness::fmt(report.measured_joules, 3)});
    t.add_row({"achieved watts", harness::fmt(report.achieved_w, 3)});
    t.add_row({"budget watts", report.budget_w > 0.0
                                   ? harness::fmt(report.budget_w, 3)
                                   : std::string("unlimited")});
    t.add_row(
        {"final bucket fill", harness::fmt(report.final_fill_ratio, 3)});
    t.add_row({"degrade transitions",
               std::to_string(report.degrade_transitions)});
    for (std::size_t l = 1; l < serve::kDegradeLevelCount; ++l) {
      t.add_row({std::string("entries into ") +
                     serve::degrade_level_name(
                         static_cast<serve::DegradeLevel>(l)),
                 std::to_string(report.degrade_entries[l])});
    }
    t.add_row({"bursts injected", std::to_string(report.bursts)});
    t.add_row({"stalls injected", std::to_string(report.stalls)});
    t.add_row(
        {"rapl degraded", report.rapl_degraded ? "yes" : "no"});
    emit(t, csv, "service summary");
  }

  if (injector != nullptr) {
    const fault::FaultCounters counters = injector->counters();
    harness::TextTable t({"fault event", "count"});
    for (std::size_t i = 0; i < fault::kEventCount; ++i) {
      t.add_row({fault::event_name(static_cast<fault::Event>(i)),
                 std::to_string(counters.by_event[i])});
    }
    emit(t, csv,
         ("fault events (spec: " + injector->plan().spec() + ")").c_str());
  }

  // The verdict lines CI asserts: plain text in both output modes.
  std::printf("SLO verdict (guaranteed p99 <= %.2fs): %s\n",
              so.guaranteed_p99_slo_s, report.slo_met ? "PASS" : "FAIL");
  std::printf("energy budget verdict: %s\n",
              report.budget_met ? "PASS" : "FAIL");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig cfg;
  bool csv = false;
  bool comm_mode = false;
  bool backends_mode = false;
  bool serve_mode = false;
  std::string trace_path, jsonl_path, metrics_path;
  std::string profile_path, flamegraph_path, ep_phases_path;
  std::string comm_trace_path;
  std::string serve_log_path;
  serve::LoadGenOptions load_opts;
  double serve_budget_w = -1.0;  // < 0: flag absent, env/default applies
  profile::FoldedWeight flamegraph_weight =
      profile::FoldedWeight::kMillijoules;
  std::optional<fault::FaultPlan> fault_plan;
  try {
    fault_plan = fault::FaultPlan::from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad CAPOW_FAULTS: %s\n", e.what());
    return 2;
  }
  try {
    backend::env_backend_override();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad CAPOW_BACKEND: %s\n", e.what());
    return 2;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    try {
      if (const char* v = value_of("--machine=")) {
        cfg.machine = machine::preset_by_name(v);
      } else if (const char* v2 = value_of("--sizes=")) {
        cfg.sizes = parse_list(v2);
      } else if (const char* v3 = value_of("--threads=")) {
        cfg.thread_counts.clear();
        for (std::size_t t : parse_list(v3)) {
          cfg.thread_counts.push_back(static_cast<unsigned>(t));
        }
      } else if (const char* v4 = value_of("--quiesce=")) {
        cfg.quiesce_seconds = core::parse_double_in("--quiesce", v4, 0.0,
                                                    86400.0);
      } else if (const char* v5 = value_of("--trace=")) {
        trace_path = v5;
      } else if (const char* v6 = value_of("--jsonl=")) {
        jsonl_path = v6;
      } else if (const char* v7 = value_of("--metrics=")) {
        metrics_path = v7;
      } else if (const char* v11 = value_of("--profile=")) {
        profile_path = v11;
      } else if (const char* v12 = value_of("--flamegraph=")) {
        flamegraph_path = v12;
      } else if (const char* v13 = value_of("--flamegraph-weight=")) {
        const std::string w = v13;
        if (w == "mj") {
          flamegraph_weight = profile::FoldedWeight::kMillijoules;
        } else if (w == "ns") {
          flamegraph_weight = profile::FoldedWeight::kNanoseconds;
        } else {
          throw std::invalid_argument("expected 'mj' or 'ns'");
        }
      } else if (const char* v14 = value_of("--ep-phases=")) {
        ep_phases_path = v14;
      } else if (const char* v8 = value_of("--faults=")) {
        fault_plan = fault::FaultPlan::parse(v8);
      } else if (const char* v9 = value_of("--checkpoint=")) {
        cfg.checkpoint_path = v9;
      } else if (const char* v10 = value_of("--resume=")) {
        cfg.checkpoint_path = v10;
        cfg.resume = true;
      } else if (const char* v15 = value_of("--comm-trace=")) {
        comm_trace_path = v15;
      } else if (const char* v16 = value_of("--serve-seed=")) {
        load_opts.seed = static_cast<std::uint64_t>(
            core::parse_integer_in("--serve-seed", v16, 0,
                                   std::numeric_limits<long long>::max()));
      } else if (const char* v17 = value_of("--serve-duration=")) {
        load_opts.duration_s =
            core::parse_double_in("--serve-duration", v17, 1e-6, 1e9);
      } else if (const char* v18 = value_of("--serve-rate=")) {
        load_opts.rate_hz =
            core::parse_double_in("--serve-rate", v18, 1e-6, 1e9);
      } else if (const char* v19 = value_of("--serve-budget-w=")) {
        serve_budget_w =
            core::parse_double_in("--serve-budget-w", v19, 0.0, 1e9);
      } else if (const char* v20 = value_of("--serve-log=")) {
        serve_log_path = v20;
      } else if (arg == "--serve") {
        serve_mode = true;
      } else if (arg == "--comm") {
        comm_mode = true;
      } else if (arg == "--backends") {
        backends_mode = true;
      } else if (arg == "--csv") {
        csv = true;
      } else if (arg == "--help" || arg == "-h") {
        print_usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        print_usage(argv[0]);
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad argument '%s': %s\n", arg.c_str(),
                   e.what());
      return 2;
    }
  }

  // Fault runs get a watchdog by default so an injected hang turns into
  // a retried/failed record instead of a hung report.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> fault_scope;
  if (fault_plan) {
    if (cfg.run_timeout_seconds <= 0.0) cfg.run_timeout_seconds = 30.0;
    injector = std::make_unique<fault::FaultInjector>(*fault_plan);
    fault_scope = std::make_unique<fault::FaultScope>(*injector);
  }

  if (serve_mode) {
    serve::ServeOptions sopts;
    try {
      // Env knobs first, explicit flags override them.
      sopts = serve::ServeOptions::from_env();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    sopts.machine = cfg.machine;
    if (serve_budget_w >= 0.0) sopts.budget.budget_w = serve_budget_w;
    return run_serve_report(load_opts, sopts, csv, metrics_path,
                            serve_log_path, injector.get());
  }
  if (!serve_log_path.empty()) {
    std::fprintf(stderr, "--serve-log requires --serve\n");
    return 2;
  }
  if (comm_mode) {
    return run_comm_report(cfg.machine, csv, cfg.checkpoint_path, cfg.resume,
                           metrics_path, comm_trace_path, injector.get());
  }
  if (backends_mode) {
    harness::BackendStudyConfig bcfg;
    bcfg.sizes = cfg.sizes;
    bcfg.threads = cfg.thread_counts;
    return run_backend_report(bcfg, csv);
  }
  if (!comm_trace_path.empty()) {
    std::fprintf(stderr, "--comm-trace requires --comm\n");
    return 2;
  }

  harness::ExperimentRunner runner(cfg);
  runner.run();

  if (!trace_path.empty()) {
    write_file(trace_path, "trace", [&](std::ostream& os) {
      harness::export_chrome_trace(runner, os);
    });
  }
  if (!jsonl_path.empty()) {
    write_file(jsonl_path, "jsonl", [&](std::ostream& os) {
      harness::export_jsonl(runner, os);
    });
  }
  if (!metrics_path.empty()) {
    write_file(metrics_path, "metrics", [&](std::ostream& os) {
      harness::export_metrics(runner, os);
    });
  }
  if (!profile_path.empty()) {
    write_file(profile_path, "profile", [&](std::ostream& os) {
      harness::export_profile(runner, os);
    });
  }
  if (!flamegraph_path.empty()) {
    write_file(flamegraph_path, "flamegraph", [&](std::ostream& os) {
      harness::export_flamegraph(runner, os, flamegraph_weight);
    });
  }
  if (!ep_phases_path.empty()) {
    write_file(ep_phases_path, "ep-phases", [&](std::ostream& os) {
      harness::export_ep_phases(runner, os);
    });
  }

  // Truncated rings mean truncated traces/profiles: say so loudly
  // rather than presenting a partial picture as a complete one.
  if (const std::uint64_t dropped = telemetry::total_dropped_events();
      dropped > 0) {
    std::fprintf(stderr,
                 "warning: %llu trace event(s) dropped to ring "
                 "wraparound — traces and profiles are truncated; raise "
                 "Tracer ring_capacity\n",
                 static_cast<unsigned long long>(dropped));
  }

  if (!csv) {
    std::printf("capow report — %s\n", cfg.machine.name.c_str());
    std::printf("peak %.1f GF/s, memory %.1f GB/s, LLC %zu KiB\n",
                cfg.machine.peak_flops() / 1e9,
                cfg.machine.memory.bandwidth_bytes_per_s / 1e9,
                cfg.machine.llc_capacity_bytes() / 1024);
  }

  // Raw result matrix. A resume from a damaged checkpoint is reported
  // in the title, not fatal: the skipped configurations simply re-ran.
  {
    harness::TextTable t({"algorithm", "n", "threads", "seconds",
                          "package_w", "pp0_w", "energy_j", "ep_w_per_s",
                          "status", "attempts"});
    for (const auto& r : runner.run()) {
      t.add_row({core::algorithm_name(r.algorithm),
                 std::to_string(r.n), std::to_string(r.threads),
                 harness::fmt(r.seconds, 6),
                 harness::fmt(r.package_watts, 3),
                 harness::fmt(r.pp0_watts, 3),
                 harness::fmt(r.package_energy_j, 3),
                 harness::fmt(r.ep, 4), harness::to_string(r.status),
                 std::to_string(r.attempts)});
    }
    std::string title = "result matrix";
    if (runner.skipped_checkpoint_lines() > 0) {
      title += " (" + std::to_string(runner.skipped_checkpoint_lines()) +
               " corrupt checkpoint line(s) skipped on resume)";
    }
    emit(t, csv, title.c_str());
  }

  // Fault/recovery event summary (only under fault injection).
  if (injector) {
    const fault::FaultCounters counters = injector->counters();
    harness::TextTable t({"fault event", "count"});
    for (std::size_t i = 0; i < fault::kEventCount; ++i) {
      t.add_row({fault::event_name(static_cast<fault::Event>(i)),
                 std::to_string(counters.by_event[i])});
    }
    emit(t, csv, ("fault events (spec: " + injector->plan().spec() + ")")
                     .c_str());
  }

  // ABFT checksum/recovery summary (only when something was verified).
  if (const abft::AbftCounters ac = abft::counters(); ac.total() > 0) {
    harness::TextTable t({"abft counter", "count"});
    t.add_row({"verifications", std::to_string(ac.verifications)});
    t.add_row({"detected", std::to_string(ac.detected)});
    t.add_row({"corrected", std::to_string(ac.corrected)});
    t.add_row({"recomputed", std::to_string(ac.recomputed)});
    t.add_row({"retried", std::to_string(ac.retried)});
    emit(t, csv, "abft events");
  }

  // Table II analogue.
  {
    std::vector<std::string> head{"avg slowdown"};
    for (std::size_t n : cfg.sizes) head.push_back(std::to_string(n));
    harness::TextTable t(head);
    // Every registered algorithm except the OpenBLAS baseline itself.
    for (const auto& info : core::algorithm_registry()) {
      if (info.id == core::AlgorithmId::kOpenBlas) continue;
      std::vector<std::string> row{info.name};
      for (std::size_t n : cfg.sizes) {
        row.push_back(harness::fmt(runner.average_slowdown(info.id, n), 3));
      }
      t.add_row(row);
    }
    emit(t, csv, "average slowdown vs OpenBLAS (Table II)");
  }

  // Table III analogue.
  {
    std::vector<std::string> head{"avg package W"};
    for (unsigned th : cfg.thread_counts) {
      head.push_back(std::to_string(th) + "t");
    }
    harness::TextTable t(head);
    for (auto a : core::kAllAlgorithms) {
      std::vector<std::string> row{core::algorithm_name(a)};
      for (unsigned th : cfg.thread_counts) {
        row.push_back(harness::fmt(runner.average_power(a, th), 2));
      }
      t.add_row(row);
    }
    emit(t, csv, "average power by threads (Table III)");
  }

  // Table IV analogue.
  {
    std::vector<std::string> head{"avg EP (W/s)"};
    for (std::size_t n : cfg.sizes) head.push_back(std::to_string(n));
    harness::TextTable t(head);
    for (auto a : core::kAllAlgorithms) {
      std::vector<std::string> row{core::algorithm_name(a)};
      for (std::size_t n : cfg.sizes) {
        row.push_back(harness::fmt(runner.average_ep(a, n), 2));
      }
      t.add_row(row);
    }
    emit(t, csv, "average energy performance (Table IV)");
  }

  // Fig 7 analogue (only meaningful when a 1-thread base exists).
  const bool has_base =
      std::find(cfg.thread_counts.begin(), cfg.thread_counts.end(), 1u) !=
      cfg.thread_counts.end();
  if (has_base) {
    std::vector<std::string> head{"S = EP_p/EP_1", "n"};
    for (unsigned th : cfg.thread_counts) {
      head.push_back("S(" + std::to_string(th) + ")");
    }
    head.push_back("class");
    harness::TextTable t(head);
    for (auto a : core::kAllAlgorithms) {
      for (std::size_t n : cfg.sizes) {
        const auto series = runner.ep_scaling(a, n);
        std::vector<std::string> row{core::algorithm_name(a),
                                     std::to_string(n)};
        // Failed configurations leave holes in the series; keep the
        // surviving points aligned to their thread-count columns.
        for (unsigned th : cfg.thread_counts) {
          const auto pt = std::find_if(
              series.begin(), series.end(),
              [th](const core::ScalingPoint& p) {
                return p.parallelism == th;
              });
          row.push_back(pt != series.end() ? harness::fmt(pt->s, 3) : "-");
        }
        row.push_back(series.empty()
                          ? "-"
                          : core::to_string(core::classify_scaling(series)));
        t.add_row(row);
      }
    }
    emit(t, csv, "energy performance scaling (Fig 7)");
  }
  return 0;
}
