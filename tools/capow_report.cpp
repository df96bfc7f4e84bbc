// capow-report: regenerate the paper's full evaluation (Tables II-IV,
// the Fig 7 scaling series) for any machine/problem configuration, as
// text or CSV — the command-line front door to the library. The mode
// and flag table at the end of this file, printed by --help, is the
// flag reference.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
#include "cli.hpp"

namespace {

using namespace capow;

/// Everything a mode reads, filled from the flag table below.
struct ReportOptions {
  harness::ExperimentConfig cfg;
  bool csv = false;
  std::string trace_path, jsonl_path, metrics_path;
  std::string profile_path, flamegraph_path, ep_phases_path;
  std::string comm_trace_path, serve_log_path;
  profile::FoldedWeight flamegraph_weight =
      profile::FoldedWeight::kMillijoules;
  std::optional<fault::FaultPlan> faults;  // CAPOW_FAULTS, then --faults
  serve::LoadGenOptions load;
  std::optional<double> serve_budget_w;  // overrides CAPOW_SERVE_BUDGET_W
  const fault::FaultInjector* injector = nullptr;  // set when faults
};

// Opens `path` for writing and runs `fn(stream)`; exits with a message
// on I/O failure. An empty path (the flag was not given) writes nothing.
template <typename Fn>
void write_file(const std::string& path, const char* what, Fn&& fn) {
  if (path.empty()) return;
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

void emit(const harness::TextTable& t, bool csv, const char* title) {
  if (csv) {
    std::printf("# %s\n%s\n", title, t.csv().c_str());
  } else {
    std::printf("\n== %s ==\n%s", title, t.str().c_str());
  }
}

/// The fault-event counts each mode prints under fault injection.
void emit_fault_events(const fault::FaultInjector* injector, bool csv) {
  if (injector == nullptr) return;
  const fault::FaultCounters counters = injector->counters();
  harness::TextTable t({"fault event", "count"});
  for (std::size_t i = 0; i < fault::kEventCount; ++i) {
    t.add_row({fault::event_name(static_cast<fault::Event>(i)),
               std::to_string(counters.by_event[i])});
  }
  emit(t, csv,
       ("fault events (spec: " + injector->plan().spec() + ")").c_str());
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
int run_comm_report(const ReportOptions& o) {
  harness::CommAuditOptions audit;
  audit.machine = o.cfg.machine;
  audit.collect_trace = !o.comm_trace_path.empty();

  std::vector<harness::CommAuditRecord> replayed;
  if (o.cfg.resume) replayed = harness::load_comm_audits(o.cfg.checkpoint_path);

  std::ofstream ckpt;
  if (!o.cfg.checkpoint_path.empty()) {
    ckpt.open(o.cfg.checkpoint_path,
              o.cfg.resume ? std::ios::app : std::ios::trunc | std::ios::out);
    if (!ckpt) {
      std::fprintf(stderr, "cannot open checkpoint file '%s'\n",
                   o.cfg.checkpoint_path.c_str());
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
      rec = harness::run_comm_audit(point, audit, &events, &trace_start);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "comm audit %s n=%zu P=%d failed: %s\n",
                   point.algorithm.c_str(), point.n, point.ranks, e.what());
      return 1;
    }
    if (audit.collect_trace) {
      harness::append_comm_trace(trace_writer, point_label(rec), trace_pid++,
                                 events, point.ranks, trace_start);
    }
    if (ckpt.is_open()) {
      ckpt << harness::comm_audit_line(rec) << "\n";
      ckpt.flush();
    }
    records.push_back(std::move(rec));
  }

  if (!o.comm_trace_path.empty()) {
    if (replayed_count > 0) {
      std::fprintf(stderr,
                   "note: %zu audit point(s) replayed from checkpoint — "
                   "traces cover only the points run live\n",
                   replayed_count);
    }
    write_file(o.comm_trace_path, "comm-trace", [&](std::ostream& os) {
      trace_writer.write(os);
    });
  }
  write_file(o.metrics_path, "metrics", [&](std::ostream& os) {
    telemetry::MetricsRegistry registry;
    harness::export_comm_metrics(registry, records);
    registry.write(os);
  });

  if (!o.csv) {
    std::printf("capow comm audit — %s (M = %s words/core)\n",
                o.cfg.machine.name.c_str(),
                records.empty() ? "?"
                                : harness::fmt(records.front().m_words, 0)
                                      .c_str());
    if (replayed_count > 0) {
      std::printf("%zu audit point(s) replayed from checkpoint %s\n",
                  replayed_count, o.cfg.checkpoint_path.c_str());
    }
  }
  for (const harness::CommAuditRecord& r : records) {
    const std::string label = point_label(r);
    emit(harness::comm_matrix_table(r), o.csv,
         ("comm matrix — " + label + " (payload bytes)").c_str());
    emit(harness::comm_critical_path_table(r), o.csv,
         ("critical path — " + label).c_str());
    if (!r.completed()) {
      std::fprintf(stderr, "warning: %s run was poisoned: %s\n",
                   label.c_str(), r.error.c_str());
    }
  }
  emit(harness::comm_bound_table(records), o.csv,
       "Eq (8) communication audit (measured vs lower bound)");

  emit_fault_events(o.injector, o.csv);
  return 0;
}

/// Heterogeneous EP study mode (--backends): the paper's Eq (1)/(5)
/// measurements and the Eq (9) crossover, modelled per registered
/// device class through the fallback-aware BackendRegistry.
int run_backend_report(const ReportOptions& o) {
  if (!o.csv) {
    std::printf("capow heterogeneous EP study — %zu backend(s)\n",
                backend::BackendRegistry::instance().all().size());
    for (const backend::Backend& b :
         backend::BackendRegistry::instance().all()) {
      std::printf("  %-9s %s: peak %.1f GF/s, memory %.1f GB/s\n", b.name,
                  b.description, b.spec.peak_flops() / 1e9,
                  b.spec.memory.bandwidth_bytes_per_s / 1e9);
    }
  }
  const std::vector<harness::BackendStudyRow> rows =
      harness::run_backend_study({o.cfg.sizes, o.cfg.thread_counts});
  emit(harness::backend_ep_table(rows), o.csv,
       "per-backend energy performance (Eq 1 / Eq 5)");
  emit(harness::backend_crossover_table(harness::backend_crossover_rows()),
       o.csv, "per-device Strassen crossover (Eq 9)");
  const std::uint64_t fallbacks =
      backend::BackendRegistry::instance().fallbacks_total();
  if (!o.csv && fallbacks > 0) {
    std::printf("\n%llu dispatch(es) fell back to the host backend\n",
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
int run_serve_report(const ReportOptions& o) {
  const serve::LoadGenOptions& lg = o.load;
  serve::ServeOptions so;
  try {
    // Env knobs first, explicit flags override them.
    so = serve::ServeOptions::from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  so.machine = o.cfg.machine;
  if (o.serve_budget_w) so.budget.budget_w = *o.serve_budget_w;

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

  write_file(o.serve_log_path, "serve-log", [&](std::ostream& os) {
    os << report.decision_log();
  });
  write_file(o.metrics_path, "metrics", [&](std::ostream& os) {
    telemetry::MetricsRegistry registry;
    serve::export_serve_metrics(report, registry);
    registry.write(os);
  });

  if (!o.csv) {
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
    emit(t, o.csv, "per-tier outcomes and virtual latency");
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
    emit(t, o.csv, "service summary");
  }

  emit_fault_events(o.injector, o.csv);

  // The verdict lines CI asserts: plain text in both output modes.
  std::printf("SLO verdict (guaranteed p99 <= %.2fs): %s\n",
              so.guaranteed_p99_slo_s, report.slo_met ? "PASS" : "FAIL");
  std::printf("energy budget verdict: %s\n",
              report.budget_met ? "PASS" : "FAIL");
  return 0;
}

/// The experiment matrix (no mode flag): run every (algorithm, n,
/// threads) configuration, write the requested exports, and print the
/// result matrix and the Table II-IV and Fig 7 analogues.
int run_matrix_report(const ReportOptions& o) {
  const harness::ExperimentConfig& cfg = o.cfg;
  harness::ExperimentRunner runner(cfg);
  runner.run();

  write_file(o.trace_path, "trace", [&](std::ostream& os) {
    harness::export_chrome_trace(runner, os);
  });
  write_file(o.jsonl_path, "jsonl", [&](std::ostream& os) {
    harness::export_jsonl(runner, os);
  });
  write_file(o.metrics_path, "metrics", [&](std::ostream& os) {
    harness::export_metrics(runner, os);
  });
  write_file(o.profile_path, "profile", [&](std::ostream& os) {
    harness::export_profile(runner, os);
  });
  write_file(o.flamegraph_path, "flamegraph", [&](std::ostream& os) {
    harness::export_flamegraph(runner, os, o.flamegraph_weight);
  });
  write_file(o.ep_phases_path, "ep-phases", [&](std::ostream& os) {
    harness::export_ep_phases(runner, os);
  });

  // Truncated rings mean truncated traces/profiles: say so loudly
  // rather than presenting a partial picture as a complete one.
  if (const std::uint64_t dropped = telemetry::total_dropped_events();
      dropped > 0) {
    std::fprintf(stderr,
                 "warning: %llu trace event(s) dropped to ring "
                 "wraparound — traces and profiles are truncated; trace a "
                 "shorter run (fewer sizes, threads or ranks) to keep "
                 "every event\n",
                 static_cast<unsigned long long>(dropped));
  }

  if (!o.csv) {
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
    emit(t, o.csv, title.c_str());
  }

  // Fault/recovery event summary (only under fault injection).
  emit_fault_events(o.injector, o.csv);

  // ABFT checksum/recovery summary (only when something was verified).
  if (const abft::AbftCounters ac = abft::counters(); ac.total() > 0) {
    harness::TextTable t({"abft counter", "count"});
    t.add_row({"verifications", std::to_string(ac.verifications)});
    t.add_row({"detected", std::to_string(ac.detected)});
    t.add_row({"corrected", std::to_string(ac.corrected)});
    t.add_row({"recomputed", std::to_string(ac.recomputed)});
    t.add_row({"retried", std::to_string(ac.retried)});
    emit(t, o.csv, "abft events");
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
    emit(t, o.csv, "average slowdown vs OpenBLAS (Table II)");
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
    emit(t, o.csv, "average power by threads (Table III)");
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
    emit(t, o.csv, "average energy performance (Table IV)");
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
    emit(t, o.csv, "energy performance scaling (Fig 7)");
  }
  return 0;
}

// Flag::modes bits, in kTool.modes order.
constexpr unsigned kMatrix = 1u << 0, kComm = 1u << 1, kBackends = 1u << 2,
                   kServe = 1u << 3;

using Opts = ReportOptions;
using cli::Arg;

const cli::Tool<Opts> kTool{
    .name = "capow-report",
    .usage = "[mode] [flags]",
    .exit_codes = "exit: 0 ok, 1 runtime failure, 2 usage error",
    .modes = {{nullptr, "experiment matrix: Tables II-IV, Fig 7",
               run_matrix_report},
              {"--comm", "comm audit vs the Eq (8) bound", run_comm_report},
              {"--backends", "per-backend EP/S, Eq (9) crossover",
               run_backend_report},
              {"--serve", "capowd overload study (env CAPOW_SERVE_*)",
               run_serve_report}},
    .flags = {
        {"--machine=haswell|quad|compact", "platform model (default haswell)",
         kMatrix | kComm | kServe,
         [](Opts& o, Arg v) { o.cfg.machine = machine::preset_by_name(v); }},
        {"--sizes=a,b,...", "problem sizes (default 512,1024,2048,4096)",
         kMatrix | kBackends,
         [](Opts& o, Arg v) {
           o.cfg.sizes =
               cli::parse_integer_list<std::size_t>("--sizes", v, 1, 1 << 20);
         }},
        {"--threads=a,b,...", "thread counts (default 1,2,3,4)",
         kMatrix | kBackends,
         [](Opts& o, Arg v) {
           o.cfg.thread_counts =
               cli::parse_integer_list<unsigned>("--threads", v, 1, 4096);
         }},
        {"--csv", "emit CSV instead of tables", cli::kAllModes,
         [](Opts& o, Arg) { o.csv = true; }},
        {"--quiesce=SECONDS", "idle between runs (default 60)", kMatrix,
         [](Opts& o, Arg v) {
           o.cfg.quiesce_seconds =
               core::parse_double_in("--quiesce", v, 0.0, 86400.0);
         }},
        {"--trace=FILE", "Chrome trace JSON (Perfetto)", kMatrix,
         cli::assign<&Opts::trace_path>},
        {"--jsonl=FILE", "one JSON record per run", kMatrix,
         cli::assign<&Opts::jsonl_path>},
        {"--metrics=FILE", "Prometheus text metrics", kMatrix | kComm | kServe,
         cli::assign<&Opts::metrics_path>},
        {"--profile=FILE", "per-run energy attribution profiles", kMatrix,
         cli::assign<&Opts::profile_path>},
        {"--flamegraph=FILE", "collapsed stacks (flamegraph.pl format)",
         kMatrix, cli::assign<&Opts::flamegraph_path>},
        {"--flamegraph-weight=mj|ns", "folded weight (default mj)", kMatrix,
         [](Opts& o, Arg v) {
           if (v != "mj" && v != "ns") {
             throw std::invalid_argument("expected 'mj' or 'ns'");
           }
           o.flamegraph_weight = v == "mj"
                                     ? profile::FoldedWeight::kMillijoules
                                     : profile::FoldedWeight::kNanoseconds;
         }},
        {"--ep-phases=FILE", "per-phase EP scaling JSONL", kMatrix,
         cli::assign<&Opts::ep_phases_path>},
        {"--faults=SPEC", "fault spec (overrides env CAPOW_FAULTS)",
         kMatrix | kComm | kServe,
         [](Opts& o, Arg v) { o.faults = fault::FaultPlan::parse(v); }},
        {"--checkpoint=FILE", "append each finished run to FILE",
         kMatrix | kComm, [](Opts& o, Arg v) { o.cfg.checkpoint_path = v; }},
        {"--resume=FILE", "replay FILE, run only missing/failed runs",
         kMatrix | kComm,
         [](Opts& o, Arg v) {
           o.cfg.checkpoint_path = v;
           o.cfg.resume = true;
         }},
        {"--comm-trace=FILE", "rank-lane Chrome trace (live runs only)", kComm,
         cli::assign<&Opts::comm_trace_path>},
        {"--serve-seed=N", "arrival trace seed", kServe,
         [](Opts& o, Arg v) {
           o.load.seed = static_cast<std::uint64_t>(core::parse_integer_in(
               "--serve-seed", v, 0, std::numeric_limits<long long>::max()));
         }},
        {"--serve-duration=S", "arrival trace horizon", kServe,
         [](Opts& o, Arg v) {
           o.load.duration_s =
               core::parse_double_in("--serve-duration", v, 1e-6, 1e9);
         }},
        {"--serve-rate=HZ", "mean arrival rate", kServe,
         [](Opts& o, Arg v) {
           o.load.rate_hz = core::parse_double_in("--serve-rate", v, 1e-6, 1e9);
         }},
        {"--serve-budget-w=W",
         "power budget, overrides CAPOW_SERVE_BUDGET_W (0 = unlimited)", kServe,
         [](Opts& o, Arg v) {
           o.serve_budget_w =
               core::parse_double_in("--serve-budget-w", v, 0.0, 1e9);
         }},
        {"--serve-log=FILE", "decision log (byte-reproducible)", kServe,
         cli::assign<&Opts::serve_log_path>},
    },
    .short_help = true,
};

}  // namespace

int main(int argc, char** argv) {
  ReportOptions opts;
  try {
    opts.faults = fault::FaultPlan::from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad CAPOW_FAULTS: %s\n", e.what());
    return 2;
  }
  const cli::Mode<ReportOptions>& mode = cli::parse(argc, argv, kTool, opts);

  // Fault runs get a watchdog by default so an injected hang turns into
  // a retried/failed record instead of a hung report.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> fault_scope;
  if (opts.faults) {
    opts.cfg.run_timeout_seconds = 30.0;
    injector = std::make_unique<fault::FaultInjector>(*opts.faults);
    fault_scope = std::make_unique<fault::FaultScope>(*injector);
    opts.injector = injector.get();
  }
  return mode.run(opts);
}
