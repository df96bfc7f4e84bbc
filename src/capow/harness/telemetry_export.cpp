#include "capow/harness/telemetry_export.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "capow/abft/abft.hpp"
#include "capow/api/matmul.hpp"
#include "capow/backend/backend.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/fault/fault.hpp"
#include "capow/profile/ep_phases.hpp"
#include "capow/sim/executor.hpp"
#include "capow/telemetry/export.hpp"

namespace capow::harness {

namespace {

std::string run_label(core::AlgorithmId a, std::size_t n, unsigned threads) {
  return std::string(core::algorithm_name(a)) + " n=" + std::to_string(n) +
         " t=" + std::to_string(threads);
}

// The microkernel this process resolves for `a` under the current
// CAPOW_KERNEL setting — what capow::matmul() with default options runs.
// Deterministic for a given environment, so exports stay byte-stable
// across repeat runs.
const char* resolved_kernel_name(core::AlgorithmId a) {
  MatmulOptions opts;
  opts.algorithm = a;
  const blas::MicroKernel* k = matmul_kernel(opts);
  return k != nullptr ? k->name : "bots";
}

// Power samples per run; the sampling step is the run's length / count.
constexpr std::size_t kSamplesPerRun = 64;

// Simulates one configuration and samples its package/PP0 power: a probe
// run sizes the sampling step, then a replay samples on the same virtual
// timeline. The replay's phases land in `run`.
std::vector<sim::PowerSample> sampled_run(const ExperimentConfig& cfg,
                                          core::AlgorithmId a, std::size_t n,
                                          unsigned threads,
                                          sim::RunResult& run) {
  const sim::WorkProfile profile =
      matmul_profile(n, cfg.machine, threads, {.algorithm = a});
  const sim::RunResult probe = sim::simulate(cfg.machine, profile, threads);
  const double dt = probe.seconds > 0.0
                        ? probe.seconds / static_cast<double>(kSamplesPerRun)
                        : 1e-3;
  return sim::simulate_with_sampling(cfg.machine, profile, threads, dt, &run);
}

// Per-(algorithm, n) sweep of attribution profiles across the
// configured thread counts, with stable addresses for phase_ep_scaling.
std::vector<std::pair<unsigned, profile::Profile>> profile_sweep(
    const ExperimentConfig& cfg, core::AlgorithmId a, std::size_t n) {
  std::vector<std::pair<unsigned, profile::Profile>> sweep;
  sweep.reserve(cfg.thread_counts.size());
  for (unsigned threads : cfg.thread_counts) {
    sweep.emplace_back(threads,
                       run_attribution_profile(cfg, a, n, threads));
  }
  return sweep;
}

std::vector<profile::PhaseScaling> sweep_scaling(
    const std::vector<std::pair<unsigned, profile::Profile>>& sweep) {
  std::vector<std::pair<unsigned, const profile::Profile*>> refs;
  refs.reserve(sweep.size());
  for (const auto& [threads, prof] : sweep) {
    refs.emplace_back(threads, &prof);
  }
  return profile::phase_ep_scaling(refs, profile::Plane::kPackage);
}

}  // namespace

void export_chrome_trace(ExperimentRunner& runner, std::ostream& os) {
  runner.run();
  const ExperimentConfig& cfg = runner.config();
  telemetry::ChromeTraceWriter writer;

  int pid = 0;
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (std::size_t n : cfg.sizes) {
      for (unsigned threads : cfg.thread_counts) {
        ++pid;
        writer.set_process_name(pid, run_label(a, n, threads));
        writer.set_thread_name(pid, 0, "phases");

        sim::RunResult run;
        const auto samples = sampled_run(cfg, a, n, threads, run);

        writer.add_complete(pid, 0, run_label(a, n, threads), "run", 0.0,
                            run.seconds * 1e6);
        double t = 0.0;
        for (const auto& phase : run.phases) {
          writer.add_complete(
              pid, 0, phase.label, "phase", t * 1e6,
              phase.seconds * 1e6,
              {{"utilization", phase.utilization},
               {"active_cores", static_cast<double>(phase.active_cores)},
               {"package_w",
                phase.power_w[static_cast<std::size_t>(
                    machine::PowerPlane::kPackage)]}});
          t += phase.seconds;
        }
        for (const auto& s : samples) {
          writer.add_counter(pid, "power_w", s.t_seconds * 1e6,
                             {{"package", s.package_w},
                              {"pp0", s.pp0_w}});
        }
      }
    }
  }
  writer.write(os);
}

void export_jsonl(ExperimentRunner& runner, std::ostream& os) {
  const auto& records = runner.run();
  const ExperimentConfig& cfg = runner.config();
  for (const auto& r : records) {
    const sim::WorkProfile profile = matmul_profile(
        r.n, cfg.machine, r.threads, {.algorithm = r.algorithm});
    telemetry::JsonObject obj;
    obj.field("algorithm", core::algorithm_name(r.algorithm))
        .field("n", static_cast<std::uint64_t>(r.n))
        .field("threads", static_cast<std::uint64_t>(r.threads))
        .field("seconds", r.seconds)
        .field("package_watts", r.package_watts)
        .field("pp0_watts", r.pp0_watts)
        .field("package_energy_j", r.package_energy_j)
        .field("ep_w_per_s", r.ep)
        .field("status", to_string(r.status))
        .field("attempts", static_cast<std::uint64_t>(
                               r.attempts < 0 ? 0 : r.attempts))
        .field("flops", profile.total_flops())
        .field("dram_bytes", profile.total_dram_bytes())
        .field("syncs", static_cast<std::uint64_t>(profile.total_syncs()))
        .field("kernel", resolved_kernel_name(r.algorithm))
        .field("machine", cfg.machine.name)
        .field("backend",
               backend::backend_name(backend::resolve_backend(std::nullopt)));
    os << obj.str() << '\n';
  }
}

void export_metrics(ExperimentRunner& runner, std::ostream& os) {
  const auto& records = runner.run();
  const ExperimentConfig& cfg = runner.config();
  telemetry::MetricsRegistry reg;

  struct FamilySpec {
    const char* name;
    const char* help;
    const char* type;
  };
  const FamilySpec specs[] = {
      {"capow_run_seconds", "Simulated wall time of one run", "gauge"},
      {"capow_package_watts", "Average RAPL package power", "gauge"},
      {"capow_pp0_watts", "Average RAPL PP0 power", "gauge"},
      {"capow_package_energy_joules", "Package energy of one run",
       "gauge"},
      {"capow_ep_watts_per_second", "Energy-performance ratio (Eq 1)",
       "gauge"},
      {"capow_flops_total", "Cost-model floating point operations",
       "counter"},
      {"capow_dram_bytes_total", "Cost-model DRAM traffic", "counter"},
      {"capow_tasks_spawned_total", "Cost-model tasks spawned",
       "counter"},
      {"capow_syncs_total", "Cost-model synchronization events",
       "counter"},
  };

  for (const auto& spec : specs) {
    reg.family(spec.name, spec.help, spec.type);
    for (const auto& r : records) {
      const telemetry::MetricsRegistry::Labels labels = {
          {"algorithm", core::algorithm_name(r.algorithm)},
          {"n", std::to_string(r.n)},
          {"threads", std::to_string(r.threads)},
      };
      const std::string_view name = spec.name;
      double value = 0.0;
      if (name == "capow_run_seconds") {
        value = r.seconds;
      } else if (name == "capow_package_watts") {
        value = r.package_watts;
      } else if (name == "capow_pp0_watts") {
        value = r.pp0_watts;
      } else if (name == "capow_package_energy_joules") {
        value = r.package_energy_j;
      } else if (name == "capow_ep_watts_per_second") {
        value = r.ep;
      } else {
        const sim::WorkProfile profile = matmul_profile(
            r.n, cfg.machine, r.threads, {.algorithm = r.algorithm});
        if (name == "capow_flops_total") {
          value = profile.total_flops();
        } else if (name == "capow_dram_bytes_total") {
          value = profile.total_dram_bytes();
        } else if (name == "capow_tasks_spawned_total") {
          double spawns = 0.0;
          for (const auto& p : profile.phases) {
            spawns += static_cast<double>(p.spawn_events);
          }
          value = spawns;
        } else if (name == "capow_syncs_total") {
          value = static_cast<double>(profile.total_syncs());
        }
      }
      reg.sample(labels, value);
    }
  }

  // Trace-ring truncation: lifetime records shed to wraparound across
  // all thread buffers. Always exported (0 on clean runs, and the
  // simulated matrix never pushes into the rings, so scrapes stay
  // byte-stable) — truncation must be visible, not merely queryable.
  reg.family("capow_trace_dropped_events_total",
             "Span-tracer ring records lost to wraparound "
             "(process lifetime, all threads)",
             "counter");
  reg.sample({}, static_cast<double>(telemetry::total_dropped_events()));

  // Per-phase attributed energy (Eq 4 discretized): self joules of
  // every top-level phase per plane, plus the <untracked> conservation
  // bucket, for each configuration of the matrix.
  reg.family("capow_phase_energy_joules",
             "Energy attributed to each algorithm phase per power plane",
             "gauge");
  for (const auto& r : records) {
    const profile::Profile prof =
        run_attribution_profile(cfg, r.algorithm, r.n, r.threads);
    const auto phase_labels =
        [&](const std::string& phase,
            profile::Plane plane) -> telemetry::MetricsRegistry::Labels {
      return {{"phase", phase},
              {"plane", profile::plane_name(plane)},
              {"algorithm", core::algorithm_name(r.algorithm)},
              {"n", std::to_string(r.n)},
              {"threads", std::to_string(r.threads)}};
    };
    for (std::size_t p = 0; p < profile::kPlaneCount; ++p) {
      const auto plane = static_cast<profile::Plane>(p);
      for (const profile::ProfileNode& phase : prof.root.children) {
        reg.sample(phase_labels(phase.name, plane), phase.total_j[p]);
      }
      reg.sample(phase_labels("<untracked>", plane), prof.untracked_j[p]);
    }
  }

  // Per-phase EP scaling (Eq 5 applied to attributed phases). Needs the
  // 1-thread base; without one the family is declared but empty.
  const bool has_thread_base =
      std::find(cfg.thread_counts.begin(), cfg.thread_counts.end(), 1u) !=
      cfg.thread_counts.end();
  reg.family("capow_phase_ep_scaling",
             "Per-phase EP scaling S = EP_p / EP_1 (Eq 5)", "gauge");
  if (has_thread_base) {
    for (core::AlgorithmId a : core::kAllAlgorithms) {
      for (std::size_t n : cfg.sizes) {
        for (const profile::PhaseScaling& ps :
             sweep_scaling(profile_sweep(cfg, a, n))) {
          for (const core::ScalingPoint& pt : ps.series) {
            reg.sample({{"phase", ps.phase},
                        {"algorithm", core::algorithm_name(a)},
                        {"n", std::to_string(n)},
                        {"threads", std::to_string(pt.parallelism)}},
                       pt.s);
          }
        }
      }
    }
  }

  // Per-run recovery metadata: attempts consumed per configuration,
  // labeled with the final status.
  reg.family("capow_run_attempts_total",
             "Measurement attempts consumed per configuration", "counter");
  for (const auto& r : records) {
    reg.sample({{"algorithm", core::algorithm_name(r.algorithm)},
                {"n", std::to_string(r.n)},
                {"threads", std::to_string(r.threads)},
                {"status", to_string(r.status)}},
               static_cast<double>(r.attempts));
  }

  // RAPL measurement health, first-class: a degraded power read must be
  // visible on a dashboard, not buried in a run status. The gauge is
  // always exported (0 on clean runs, and the matrix is fixed, so clean
  // scrapes stay byte-stable); the wrap/retry counters follow the
  // conditional-family convention — they appear only once the readers
  // actually wrapped or retried, keeping pre-fault scrapes identical.
  reg.family("capow_rapl_degraded",
             "1 when the configuration's final attempt served stale RAPL "
             "values after exhausting its read retries",
             "gauge");
  std::uint64_t wraps_total = 0;
  std::uint64_t retries_total = 0;
  for (const auto& r : records) {
    reg.sample({{"algorithm", core::algorithm_name(r.algorithm)},
                {"n", std::to_string(r.n)},
                {"threads", std::to_string(r.threads)}},
               r.status == RunStatus::kDegraded ? 1.0 : 0.0);
    wraps_total += r.rapl_wraps;
    retries_total += r.rapl_retries;
  }
  if (wraps_total > 0) {
    reg.family("capow_rapl_wraps_total",
               "32-bit RAPL counter wraps folded by the readers",
               "counter");
    reg.sample({}, static_cast<double>(wraps_total));
  }
  if (retries_total > 0) {
    reg.family("capow_rapl_retries_total",
               "Transient RAPL read failures absorbed by the retry budget",
               "counter");
    reg.sample({}, static_cast<double>(retries_total));
  }

  // Which microkernel each algorithm resolves under the current
  // CAPOW_KERNEL setting. Info-style gauge (value 1, identity in the
  // label) — deterministic per environment, so clean scrapes stay
  // byte-stable across repeat runs.
  reg.family("capow_selected_kernel_info",
             "Resolved microkernel per algorithm (info gauge)", "gauge");
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    reg.sample({{"algorithm", core::algorithm_name(a)},
                {"kernel", resolved_kernel_name(a)}},
               1.0);
  }

  // The backend this process resolves under the current CAPOW_BACKEND
  // setting. Info-style gauge, deterministic per environment — the
  // backend-matrix CI leg pins CAPOW_BACKEND and diffs scrapes.
  reg.family("capow_backend_info",
             "Resolved dispatch backend (info gauge)", "gauge");
  reg.sample({{"backend",
               backend::backend_name(backend::resolve_backend(std::nullopt))}},
             1.0);

  // Graceful-degradation dispatches: ops that fell back to the host
  // because the requested backend lacks them. Always exported (0 on
  // clean runs, deterministic for a fixed workload) — a degraded
  // placement must be visible, not merely queryable.
  reg.family("capow_backend_fallbacks_total",
             "Dispatches that fell back to the host CPU backend "
             "(process lifetime)",
             "counter");
  reg.sample({}, static_cast<double>(
                     backend::BackendRegistry::instance().fallbacks_total()));

  // Workspace-arena pooling counters from the process arena. Hit/miss
  // splits depend on worker interleaving, so — like the fault counters
  // below — the family is emitted only when the arena actually saw
  // traffic; scrapes from arena-free runs stay byte-identical.
  const blas::ArenaStats arena =
      blas::WorkspaceArena::process_arena().stats();
  if (arena.acquires > 0) {
    reg.family("capow_arena_acquires_total",
               "Workspace arena checkouts by pool outcome", "counter");
    reg.sample({{"result", "hit"}}, static_cast<double>(arena.hits));
    reg.sample({{"result", "miss"}}, static_cast<double>(arena.misses));
    reg.family("capow_arena_bytes",
               "Workspace arena bytes by state", "gauge");
    reg.sample({{"state", "allocated"}},
               static_cast<double>(arena.allocated_bytes));
    reg.sample({{"state", "pooled"}},
               static_cast<double>(arena.pooled_bytes));
    reg.sample({{"state", "peak_outstanding"}},
               static_cast<double>(arena.peak_outstanding_bytes));
  }

  // Fault/recovery event totals from the installed injector (absent
  // when fault injection is off, so clean scrapes are byte-stable).
  if (const fault::FaultInjector* inj = fault::FaultInjector::active()) {
    const fault::FaultCounters counters = inj->counters();
    reg.family("capow_fault_events_total",
               "Injected fault and recovery events by kind", "counter");
    for (std::size_t i = 0; i < fault::kEventCount; ++i) {
      reg.sample({{"kind", fault::event_name(static_cast<fault::Event>(i))}},
                 static_cast<double>(counters.by_event[i]));
    }
  }

  // Elastic-recovery totals (absent until a rank actually died, so
  // scrapes from failure-free runs stay byte-identical). Deterministic
  // for a fixed kill schedule — the CI chaos-matrix leg diffs them
  // across reruns.
  if (dist::rank_failures_total() > 0 || dist::recoveries_total() > 0) {
    reg.family("capow_dist_rank_failures_total",
               "Dist ranks that died fail-stop during elastic runs",
               "counter");
    reg.sample({}, static_cast<double>(dist::rank_failures_total()));
    reg.family("capow_dist_recoveries_total",
               "Elastic membership recoveries completed", "counter");
    reg.sample({}, static_cast<double>(dist::recoveries_total()));
  }

  // ABFT checksum/recovery totals (absent when no guarded multiply ran,
  // so pre-ABFT scrapes stay byte-identical). Deterministic for a fixed
  // fault seed — the CI fault-matrix leg diffs them across reruns.
  if (const abft::AbftCounters ac = abft::counters(); ac.total() > 0) {
    reg.family("capow_abft_events_total",
               "ABFT checksum verifications and recovery actions by kind",
               "counter");
    reg.sample({{"kind", "verifications"}},
               static_cast<double>(ac.verifications));
    reg.sample({{"kind", "detected"}}, static_cast<double>(ac.detected));
    reg.sample({{"kind", "corrected"}}, static_cast<double>(ac.corrected));
    reg.sample({{"kind", "recomputed"}}, static_cast<double>(ac.recomputed));
    reg.sample({{"kind", "retried"}}, static_cast<double>(ac.retried));
  }
  reg.write(os);
}

profile::Profile run_attribution_profile(const ExperimentConfig& config,
                                         core::AlgorithmId a, std::size_t n,
                                         unsigned threads) {
  // The same reconstruction export_chrome_trace() renders.
  sim::RunResult run;
  const std::vector<sim::PowerSample> samples =
      sampled_run(config, a, n, threads, run);

  profile::AttributionInput in;
  std::uint64_t t = 0;
  for (const sim::PhaseResult& phase : run.phases) {
    const std::uint64_t end =
        t + static_cast<std::uint64_t>(std::llround(phase.seconds * 1e9));
    telemetry::TraceEvent ev;
    ev.tid = 0;
    ev.rec.name = telemetry::intern(phase.label);
    ev.rec.category = "phase";
    ev.rec.kind = telemetry::EventKind::kSpan;
    ev.rec.t_begin_ns = t;
    ev.rec.t_end_ns = end;
    in.events.push_back(ev);
    t = end;
  }
  std::vector<profile::TimelinePoint> points;
  points.reserve(samples.size());
  for (const sim::PowerSample& s : samples) {
    points.push_back(
        profile::TimelinePoint{s.t_seconds, s.package_w, s.pp0_w});
  }
  in.slices = profile::slices_from_samples(points);
  return profile::attribute(in);
}

void export_profile(ExperimentRunner& runner, std::ostream& os) {
  runner.run();
  const ExperimentConfig& cfg = runner.config();
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (std::size_t n : cfg.sizes) {
      for (unsigned threads : cfg.thread_counts) {
        os << "== " << run_label(a, n, threads) << " ==\n";
        profile::write_text(run_attribution_profile(cfg, a, n, threads),
                            os);
        os << '\n';
      }
    }
  }
}

void export_flamegraph(ExperimentRunner& runner, std::ostream& os,
                       profile::FoldedWeight weight) {
  runner.run();
  const ExperimentConfig& cfg = runner.config();
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (std::size_t n : cfg.sizes) {
      for (unsigned threads : cfg.thread_counts) {
        profile::write_folded(run_attribution_profile(cfg, a, n, threads),
                              os, weight, profile::Plane::kPackage,
                              run_label(a, n, threads));
      }
    }
  }
}

void export_ep_phases(ExperimentRunner& runner, std::ostream& os) {
  runner.run();
  const ExperimentConfig& cfg = runner.config();
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (std::size_t n : cfg.sizes) {
      const auto sweep = profile_sweep(cfg, a, n);
      for (const profile::PhaseScaling& ps : sweep_scaling(sweep)) {
        for (const core::ScalingPoint& pt : ps.series) {
          telemetry::JsonObject obj;
          obj.field("algorithm", core::algorithm_name(a))
              .field("n", static_cast<std::uint64_t>(n))
              .field("phase", ps.phase)
              .field("threads", static_cast<std::uint64_t>(pt.parallelism))
              .field("ep_w_per_s", pt.ep)
              .field("s", pt.s)
              .field("class", core::to_string(ps.cls))
              .field("superlinear", ps.superlinear());
          os << obj.str() << '\n';
        }
      }
    }
  }
}

}  // namespace capow::harness
