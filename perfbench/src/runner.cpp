#include "runner.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>

#include "capow/abft/abft.hpp"
#include "capow/backend/backend.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/trace/counters.hpp"
#include "ledger.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

namespace abft = capow::abft;
namespace blas = capow::blas;
namespace linalg = capow::linalg;
namespace serve = capow::serve;
using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNoisySteal = 0.10;  // flag, never drop, runs above this
constexpr double kSpanAgreement = 1.5;  // traced vs untraced call time
/// Equal parts each run is cut into: closed loops by rounds, about 3 s
/// each in a 30 s run; the open loop by schedule time, 1 s each, so the
/// tail of a part (its 11th largest of ~220 requests, near p95) stays in
/// the body of the n=224 requests instead of on the few a host stall
/// delays.
constexpr std::size_t kClosedSegments = 10;
constexpr std::size_t kOpenSegments = 30;
/// Share of the segments (and of the set-up samples) that the end-to-end
/// metrics come from: the fastest (see end_to_end_metrics).
constexpr double kKeptShare = 0.5;

/// How many of `n` segments or samples are kept: the fastest kKeptShare
/// of them, at least one.
std::size_t kept_count(std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(kKeptShare * static_cast<double>(n) + 0.5));
}

double flops_of(std::size_t n) {
  const auto d = static_cast<double>(n);
  return 2.0 * d * d * d;
}

struct OpRecord {
  std::size_t cls = 0;
  std::size_t n = 0;
  double latency_s = 0.0;  ///< closed: the call; open: end minus due
  double service_s = 0.0;  ///< the call alone
  double wait_s = 0.0;     ///< open loop: start minus due
  bool done = false;       ///< completed: not rejected, nothing thrown
  bool ok = false;         ///< done and the product checked correct
  bool traced = false;
  bool idle_start = false;  ///< open loop: nothing was running when due
  double position = 0.0;    ///< open loop: share of the schedule, [0, 1)
  std::size_t round = 0;    ///< closed loop: the round it ran in
};

/// Exact counters summed over the traced end-to-end calls.
struct E2eCounters {
  std::uint64_t ops = 0;
  std::uint64_t tasks = 0;
  std::uint64_t syncs = 0;
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t verifications = 0;
};

struct Ctx {
  Ctx(const Workload& wl, const RunOptions& o) : w(wl), opts(o) {}

  const Workload& w;
  const RunOptions& opts;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<LayerProbes> probes;
  std::unique_ptr<capow::trace::Recorder> recorder =
      std::make_unique<capow::trace::Recorder>();
  Ledger ledger;
  Matrix a, b, c, scratch;  // closed loops and set-up: max n² capacity

  std::vector<Op> cold;               // set-up's first calls
  int setups_per_sample = 1;
  std::vector<double> setup_samples;  // seconds per set-up

  std::vector<OpRecord> records;
  std::vector<LayerSample> samples;  // traced ops that were replayed
  E2eCounters counters;
  std::array<std::uint64_t, 4> rejected{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  double offered_s = 0.0;      ///< open loop: the schedule's length
  double steal = 0.0;
  double lateness_s = 0.0;     ///< open loop: median start − due when idle

  /// The ledger to record benchmark-side spans in: null when untraced.
  Ledger* spans() { return opts.trace ? &ledger : nullptr; }

  void note_error(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
};

std::size_t max_n(const Workload& w) {
  std::size_t n = 0;
  for (const OpClass& c : w.classes) n = std::max(n, c.n);
  return n;
}

/// Runs the op end to end and returns the call's seconds. A traced call
/// records an "op.e2e" span with a trace::Recorder installed and adds
/// the layer counters it moved; an untraced one is timed without either
/// (its span, when a ledger session is open, sits outside the timing).
double call(Ctx& x, const Op& op, ConstMatrixView a, ConstMatrixView b,
            MatrixView c, bool traced, bool& done) {
  if (!traced) {
    const Clock::time_point t0 = Clock::now();
    done = x.engine->run(op, a, b, c);
    return seconds_between(t0, Clock::now());
  }
  blas::WorkspaceArena& arena = blas::WorkspaceArena::process_arena();
  const blas::ArenaStats arena0 = arena.stats();
  const std::uint64_t verifications0 = abft::counters().verifications;
  x.recorder->reset();
  Ledger::Scope span(x.ledger, "op.e2e");
  {
    capow::trace::RecordingScope scope(*x.recorder);
    done = x.engine->run(op, a, b, c);
  }
  const double seconds = span.stop();
  const capow::trace::CostCounters t = x.recorder->total();
  const blas::ArenaStats arena1 = arena.stats();
  x.counters.ops += 1;
  x.counters.tasks += t.tasks_spawned;
  x.counters.syncs += t.syncs;
  x.counters.acquires += arena1.acquires - arena0.acquires;
  x.counters.hits += arena1.hits - arena0.hits;
  x.counters.verifications += abft::counters().verifications - verifications0;
  return seconds;
}

/// call() with failure accounting: a throw or a rejection fails the op.
double guarded_call(Ctx& x, const Op& op, ConstMatrixView a,
                    ConstMatrixView b, MatrixView c, bool traced,
                    OpRecord& r) {
  double seconds = 0.0;
  try {
    const Ledger::Scope untraced_span(traced ? nullptr : x.spans(),
                                      "op.untraced");
    seconds = call(x, op, a, b, c, traced, r.done);
    if (!r.done) {
      x.rejected[static_cast<std::size_t>(x.engine->last_reject())] += 1;
      x.note_error(std::string("request rejected: ") +
                   serve::reject_reason_name(x.engine->last_reject()));
    }
  } catch (const std::exception& e) {
    r.done = false;
    x.note_error(std::string(kind_name(op.kind)) + ": " + e.what());
  }
  return seconds;
}

bool check_product(Ctx& x, const Op& op, ConstMatrixView a, ConstMatrixView b,
                   ConstMatrixView c) {
  const Ledger::Scope span(x.spans(), "bench.check");
  const FreivaldsResult f = freivalds(a, b, c, mix_seed(op.seed, 3));
  if (!f.ok) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s n=%zu op %llu: Freivalds residual %.3e > tolerance %.3e",
                  kind_name(op.kind), op.n,
                  static_cast<unsigned long long>(op.index), f.residual,
                  f.tolerance);
    x.note_error(buf);
  }
  return f.ok;
}

void fill_pair(Ctx& x, const Op& op, MatrixView a, MatrixView b) {
  const Ledger::Scope span(x.spans(), "bench.generate");
  fill_operand(a, mix_seed(op.seed, 1));
  fill_operand(b, mix_seed(op.seed, 2));
}

/// The cold ops of set-up: one per shape × algorithm (both tiers for
/// capowd, whose guaranteed tier runs the ABFT-guarded path).
std::vector<Op> cold_ops(const Workload& w, std::uint64_t seed) {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < w.classes.size(); ++i) {
    const OpClass& c = w.classes[i];
    const bool seen = std::any_of(ops.begin(), ops.end(), [&](const Op& o) {
      return o.kind == c.kind && o.n == c.n;
    });
    if (seen) continue;
    for (int tier = 0; tier < (c.kind == Kind::kServe ? 2 : 1); ++tier) {
      Op op;
      op.index = (1ull << 40) + ops.size();
      op.kind = c.kind;
      op.n = c.n;
      op.cls = i;
      op.guaranteed = tier == 1;
      op.seed = mix_seed(seed ^ 0xc01dull, ops.size());
      ops.push_back(op);
    }
  }
  return ops;
}

/// One set-up: constructing the program-side objects (capowd's Server,
/// dist Worlds) plus the first call of each shape × algorithm, with the
/// workspace arena emptied first so it pays the arena fill and its page
/// faults. Operand generation and the checks are excluded from the
/// returned seconds. The engine stays in place for the timed loop.
double one_setup(Ctx& x, const std::vector<Op>& cold, bool check) {
  x.engine.reset();
  blas::WorkspaceArena::process_arena().trim();
  const Clock::time_point t0 = Clock::now();
  x.engine = std::make_unique<Engine>(x.w);
  double seconds = seconds_between(t0, Clock::now());
  for (const Op& op : cold) {
    const MatrixView a = packed(x.a, op.n), b = packed(x.b, op.n),
                     c = packed(x.c, op.n);
    fill_pair(x, op, a, b);
    OpRecord r;
    seconds += guarded_call(x, op, a, b, c, false, r);
    if (check) {
      x.attempted += 1;
      if (!(r.done && check_product(x, op, a, b, c))) x.failed += 1;
    }
  }
  return seconds;
}

// setup_s summarises kSetupSamples samples (see setup_seconds), each the
// mean of as many back-to-back set-ups as fill kSetupSampleS (one, for
// workloads whose set-up is longer): a single set-up of a few ms is at
// the mercy of one page-fault burst. The samples are spread over the
// timed loop, which takes the next one each time it passes another
// 1/kSetupSamples of its time (pausing its clock meanwhile), so setup_s
// sees the same host phases as the timed metrics, not only the first
// second of the process.
constexpr std::size_t kSetupSamples = 9;
constexpr double kSetupSampleS = 0.05;

/// The first set-up, which checks every cold product and sizes the
/// samples. It leaves the engine the traced run uses.
void first_setup(Ctx& x) {
  x.cold = cold_ops(x.w, x.opts.seed);
  const double first = one_setup(x, x.cold, true);
  x.setups_per_sample =
      std::clamp(static_cast<int>(kSetupSampleS / first) + 1, 1, 200);
}

/// Takes the set-up samples due once `share` of the timed loop has
/// passed (all of them at share 1). Returns the seconds spent, which the
/// caller keeps off its clock. A traced run reports no setup_s and takes
/// none.
double take_setup_samples(Ctx& x, double share) {
  if (x.opts.trace) return 0.0;
  const std::size_t due = std::min(
      kSetupSamples, 1 + static_cast<std::size_t>(share * kSetupSamples));
  const Clock::time_point t0 = Clock::now();
  while (x.setup_samples.size() < due) {
    double seconds = 0.0;
    for (int k = 0; k < x.setups_per_sample; ++k) {
      seconds += one_setup(x, x.cold, false);
    }
    x.setup_samples.push_back(seconds / x.setups_per_sample);
  }
  return seconds_between(t0, Clock::now());
}

/// The mean of the fastest kKeptShare of the samples. The host switches
/// between a fast and a ~1.5× slower state for seconds to minutes at a
/// time, so a run's set-ups fall into two clusters whose shares change
/// from run to run; as with the segments of end_to_end_metrics, the
/// fastest samples measure the least disturbed state.
double setup_seconds(const Ctx& x) {
  std::vector<double> s = x.setup_samples;
  std::sort(s.begin(), s.end());
  const std::size_t kept = kept_count(s.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) sum += s[i];
  const double fastest = sum / static_cast<double>(kept);
  std::printf("set-up: %zu cold calls; %zu samples of %d set-ups, "
              "per set-up min %.3f / median %.3f / max %.3f ms, "
              "mean of the fastest %zu %.3f ms\n",
              x.cold.size(), s.size(), x.setups_per_sample, s.front() * 1e3,
              median(s) * 1e3, s.back() * 1e3, kept, fastest * 1e3);
  return fastest;
}

/// Each algorithm path once against blas::gemm_reference at a small
/// shape (odd where the recursion pads).
void reference_checks(Ctx& x) {
  std::vector<Op> ops = cold_ops(x.w, x.opts.seed ^ 0x7e57ull);
  for (Op& op : ops) op.n = op.kind == Kind::kServe ? 96 : 97;
  for (const Op& op : ops) {
    Matrix a(op.n, op.n), b(op.n, op.n), c(op.n, op.n), ref(op.n, op.n);
    fill_operand(a.view(), mix_seed(op.seed, 1));
    fill_operand(b.view(), mix_seed(op.seed, 2));
    blas::gemm_reference(a.view(), b.view(), ref.view());
    OpRecord r;
    guarded_call(x, op, a.view(), b.view(), c.view(), false, r);
    const double diff = largest_abs_diff(c.view(), ref.view());
    const bool ok = r.done && diff <= 1e-9 * static_cast<double>(op.n);
    x.attempted += 1;
    if (!ok) {
      x.failed += 1;
      x.note_error(std::string("reference mismatch: ") + kind_name(op.kind));
    }
  }
}

void replay(Ctx& x, const Op& op, ConstMatrixView a, ConstMatrixView b,
            ConstMatrixView c, double e2e_s) {
  LayerSample s;
  s.n = op.n;
  s.cls = op.cls;
  s.e2e_s = e2e_s;
  x.probes->replay(op, a, b, c, x.scratch, x.samples.size() % 2 == 1,
                   x.ledger, s);
  if (!s.replay_ok) {
    x.note_error(std::string("replay mismatch: ") + kind_name(op.kind));
  }
  x.samples.push_back(s);
}

void run_closed(Ctx& x) {
  const CpuTicks ticks0 = read_cpu_ticks();
  take_setup_samples(x, 0.0);
  double paused_s = 0.0;
  const Clock::time_point start = Clock::now();
  std::uint64_t next_index = 0;
  for (std::uint64_t round = 0;; ++round) {
    for (const Op& op : closed_round(x.w, x.opts.seed, round, next_index)) {
      const MatrixView a = packed(x.a, op.n), b = packed(x.b, op.n),
                       c = packed(x.c, op.n);
      fill_pair(x, op, a, b);
      OpRecord r;
      r.cls = op.cls;
      r.n = op.n;
      r.traced = x.opts.trace && op.index % 2 == 0;
      r.service_s = guarded_call(x, op, a, b, c, r.traced, r);
      r.latency_s = r.service_s;
      r.ok = r.done && check_product(x, op, a, b, c);
      r.round = round;
      if (r.traced && r.done) replay(x, op, a, b, c, r.service_s);
      x.records.push_back(r);
    }
    next_index += x.w.classes.size();
    const double timed_s = seconds_between(start, Clock::now()) - paused_s;
    if (timed_s >= x.opts.seconds) break;
    paused_s += take_setup_samples(x, timed_s / x.opts.seconds);
  }
  take_setup_samples(x, 1.0);
  x.steal = steal_frac(ticks0, read_cpu_ticks());
}

/// Spins until `due`. Sleeping would hand the start time to the
/// scheduler's wake-up latency, which on a shared VM reaches
/// milliseconds and would land in the tail as false queueing.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

/// Open loop on one thread: each request is served at its due time, or
/// as soon as the previous one completes. Products are checked in idle
/// gaps (or when a class's ring of result buffers is full), so checking
/// adds as little artificial queueing as possible. Set-up samples pause
/// the schedule clock. In a traced run the schedule is half as long, and
/// replays pause the schedule clock too.
void run_open(Ctx& x) {
  constexpr std::size_t kPairs = 16;  // operand pairs per shape
  constexpr std::size_t kRing = 16;  // result buffers per shape
  const double sched_s = x.opts.trace ? x.opts.seconds / 2 : x.opts.seconds;
  const double replay_budget_s = x.opts.seconds / 2;
  const std::vector<Op> schedule = open_schedule(x.w, x.opts.seed, sched_s);

  struct Buffers {
    std::vector<Matrix> a, b, c;
    std::array<std::int64_t, kRing> pending{};  // op index per slot, or -1
    std::size_t next = 0;
    double check_s = 1e-4;
  };
  std::vector<Buffers> bufs(x.w.classes.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const std::size_t n = x.w.classes[i].n;
    for (std::size_t k = 0; k < kPairs; ++k) {
      bufs[i].a.emplace_back(n, n);
      bufs[i].b.emplace_back(n, n);
      fill_operand(bufs[i].a.back().view(), mix_seed(x.opts.seed, 16 * i + k));
      fill_operand(bufs[i].b.back().view(),
                   mix_seed(x.opts.seed, 16 * i + k + 1000));
    }
    for (std::size_t k = 0; k < kRing; ++k) bufs[i].c.emplace_back(n, n);
    bufs[i].pending.fill(-1);
  }
  std::deque<std::pair<std::size_t, std::size_t>> pending;  // (op, slot)
  x.records.resize(schedule.size());

  const auto check_oldest = [&] {
    const auto [i, slot] = pending.front();
    pending.pop_front();
    const Op& op = schedule[i];
    Buffers& cb = bufs[op.cls];
    const std::size_t pair = op.seed % kPairs;
    const Clock::time_point t0 = Clock::now();
    const bool ok = check_product(x, op, cb.a[pair].view(), cb.b[pair].view(),
                                  cb.c[slot].view());
    cb.check_s = seconds_between(t0, Clock::now());
    x.records[i].ok = x.records[i].done && ok;
    cb.pending[slot] = -1;
  };

  std::vector<double> lateness;
  double replay_s = 0.0;
  const CpuTicks ticks0 = read_cpu_ticks();
  take_setup_samples(x, 0.0);
  double offset_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Op& op = schedule[i];
    Buffers& cb = bufs[op.cls];
    offset_s += take_setup_samples(x, op.due_s / sched_s);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(op.due_s + offset_s));
    const std::size_t slot = cb.next;
    cb.next = (cb.next + 1) % kRing;
    while (cb.pending[slot] >= 0) check_oldest();
    while (!pending.empty()) {
      const std::size_t oldest = pending.front().first;
      const double need = 2.0 * bufs[schedule[oldest].cls].check_s;
      if (Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(need)) >= due) {
        break;
      }
      check_oldest();
    }
    OpRecord& r = x.records[i];
    r.cls = op.cls;
    r.n = op.n;
    r.idle_start = Clock::now() < due;
    r.traced = x.opts.trace && i % 2 == 0;
    r.position = op.due_s / sched_s;
    {
      const Ledger::Scope span(x.spans(), "bench.idle");
      wait_until(due);
    }
    const std::size_t pair = op.seed % kPairs;
    const Clock::time_point begin = Clock::now();
    r.service_s = guarded_call(x, op, cb.a[pair].view(), cb.b[pair].view(),
                               cb.c[slot].view(), r.traced, r);
    const Clock::time_point end = Clock::now();
    r.wait_s = seconds_between(due, begin);
    r.latency_s = seconds_between(due, end);
    if (r.idle_start) lateness.push_back(r.wait_s);
    cb.pending[slot] = static_cast<std::int64_t>(i);
    pending.emplace_back(i, slot);
    if (r.traced && r.done && replay_s < replay_budget_s) {
      const Clock::time_point r0 = Clock::now();
      replay(x, op, cb.a[pair].view(), cb.b[pair].view(), cb.c[slot].view(),
             r.service_s);
      const double dt = seconds_between(r0, Clock::now());
      replay_s += dt;
      offset_s += dt;
    }
  }
  while (!pending.empty()) check_oldest();
  take_setup_samples(x, 1.0);
  x.steal = steal_frac(ticks0, read_cpu_ticks());
  x.offered_s = sched_s;
  x.lateness_s = median(lateness);
}

template <typename Fn>
std::vector<double> collect(const std::vector<LayerSample>& v, Fn&& fn) {
  std::vector<double> out;
  for (const LayerSample& s : v) out.push_back(fn(s));
  return out;
}

double ratio(double num, double den, double if_zero = 0.0) {
  return den != 0.0 ? num / den : if_zero;
}

/// The run is cut into equal parts (kClosedSegments by rounds or
/// kOpenSegments by schedule time), and the end-to-end metrics come from
/// the fastest kKeptShare of them. Other tenants slow this host by up to
/// ~1.5× in phases of seconds to minutes, and the share of a run those
/// phases cover changes from run to run, so a metric over the whole run
/// follows that share. Interference only adds time: the fastest segments
/// measure the program in the host's least disturbed state whenever that
/// state lasts about kKeptShare of the run.
///
/// Over the kept segments, p50_ms is the central_mean of the latencies
/// (the middle class's latencies are bimodal, so the middle sample jumps
/// between modes), and throughput and goodput are totals. Open-loop
/// goodput is the share of the kept requests that completed correctly
/// within kServeLatencyLimitS, times the nominal rate, so the seed's
/// count of arrivals does not move it. The open loop's tail is the
/// median of the kept segments' own tails, so a host stall in one of
/// them cannot move it (a single server turns one stall into a burst of
/// late requests).
std::vector<Metric> end_to_end_metrics(const Ctx& x, double setup_s) {
  const std::size_t nseg = x.w.open_loop ? kOpenSegments : kClosedSegments;
  const std::size_t rounds =
      x.records.empty() ? 1 : x.records.back().round + 1;
  const auto segment_of = [&](const OpRecord& r) {
    const double position =
        x.w.open_loop ? r.position
                      : static_cast<double>(r.round) / static_cast<double>(rounds);
    return std::min(nseg - 1, static_cast<std::size_t>(position * nseg));
  };
  // A segment's slowness is the median over its ops of call time over the
  // class's median call time in the run: the host's state, not one slow
  // op, decides which segments are kept.
  std::vector<std::vector<double>> by_class(x.w.classes.size());
  for (const OpRecord& r : x.records) by_class[r.cls].push_back(r.service_s);
  std::vector<double> class_median_s;
  for (const std::vector<double>& v : by_class) {
    class_median_s.push_back(median(v));
  }
  std::vector<std::vector<double>> ratios(nseg);
  for (const OpRecord& r : x.records) {
    ratios[segment_of(r)].push_back(
        ratio(r.service_s, class_median_s[r.cls], 1.0));
  }
  std::vector<double> slowness(nseg);
  std::vector<std::size_t> order(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    order[i] = i;
    slowness[i] = ratios[i].empty() ? 1e300 : median(ratios[i]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return slowness[i] < slowness[j];
                   });
  std::vector<bool> kept(nseg, false);
  for (std::size_t i = 0; i < kept_count(nseg); ++i) kept[order[i]] = true;
  std::printf("segment slowness (* = kept):");
  for (std::size_t i = 0; i < nseg; ++i) {
    if (ratios[i].empty()) {
      std::printf(" -");
    } else {
      std::printf(" %.3f%s", slowness[i], kept[i] ? "*" : "");
    }
  }
  std::printf("\n");

  std::vector<std::vector<double>> segs(nseg);
  std::vector<double> all;
  double useful = 0.0;  // flops of correct ops
  double busy_s = 0.0;  // summed call time: one caller, so its wall time
  double good = 0.0;
  for (const OpRecord& r : x.records) {
    if (!kept[segment_of(r)]) continue;
    segs[segment_of(r)].push_back(r.latency_s * 1e3);
    all.push_back(r.latency_s * 1e3);
    busy_s += r.service_s;
    if (!r.ok) continue;
    useful += flops_of(r.n);
    if (!x.w.open_loop || r.latency_s <= kServeLatencyLimitS) good += 1.0;
  }
  // Open loop: good share of the kept requests × the nominal rate;
  // closed loop: per second of call time.
  const double goodput =
      x.w.open_loop
          ? ratio(good, static_cast<double>(all.size())) * kServeRatePerS
          : ratio(good, busy_s);
  // A closed-loop segment holds too few ops for a tail of its own.
  const std::vector<std::vector<double>> tail_sets =
      x.w.open_loop ? segs : std::vector<std::vector<double>>{all};
  std::vector<double> tail, pct;
  for (const std::vector<double>& lat : tail_sets) {
    if (lat.empty()) continue;
    const Tail t = tail_of(lat);
    tail.push_back(t.value);
    pct.push_back(t.percentile);
  }
  std::printf("latency: %zu kept ops; tail_ms is p%.2f of %s (10 samples "
              "beyond it); p50_ms is their p40-p60 mean (middle sample "
              "%.4f ms)\n",
              all.size(), median(pct),
              x.w.open_loop ? "each kept segment, median over them"
                            : "the kept ops",
              median(all));
  return {
      {"setup_s", setup_s, "s"},
      {"p50_ms", central_mean(all), "ms"},
      {"tail_ms", median(tail), "ms"},
      {"useful_gflops", ratio(useful, busy_s) * 1e-9, "GFLOP/s"},
      {"goodput_rps", goodput, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Traced over untraced call time: Σ over classes of the traced calls'
/// median over Σ of the untraced calls' median, for classes with both
/// (1 when there are none). Traced calls are timed by their op.e2e
/// ledger span, untraced ones by the loop's own clock, so besides giving
/// trace.overhead_frac (this minus one) it checks that the ledger's spans
/// time what the loop runs.
double traced_ratio(const Ctx& x) {
  double traced = 0.0, untraced = 0.0;
  for (std::size_t cls = 0; cls < x.w.classes.size(); ++cls) {
    std::vector<double> t, u;
    for (const OpRecord& r : x.records) {
      if (r.cls != cls || !r.done) continue;
      (r.traced ? t : u).push_back(r.service_s);
    }
    if (t.empty() || u.empty()) continue;
    traced += median(t);
    untraced += median(u);
  }
  return ratio(traced, untraced, 1.0);
}

std::vector<Metric> layer_metrics(Ctx& x, std::uint64_t fallbacks,
                                  std::uint64_t detected,
                                  double arena_peak_bytes) {
  const std::vector<LayerSample>& v = x.samples;
  const E2eCounters& k = x.counters;
  const auto per_op = [&](std::uint64_t total) {
    return ratio(static_cast<double>(total), static_cast<double>(k.ops));
  };
  const auto mean = [&](auto fn) {
    double sum = 0.0;
    for (const LayerSample& s : v) sum += static_cast<double>(fn(s));
    return ratio(sum, static_cast<double>(v.size()));
  };
  const auto med = [&](auto fn) { return median(collect(v, fn)); };
  const double lease_us = med([](auto& s) { return s.lease_s; }) * 1e6;
  const double acquires_per_op = per_op(k.acquires);
  std::uint64_t rec_flops = 0, rec_nominal = 0, dist_retx = 0;
  double caps_peak = 0.0;
  for (const LayerSample& s : v) {
    rec_flops += s.recursion_flops;
    rec_nominal += s.recursion_nominal;
    dist_retx += s.dist_retransmits;
    caps_peak =
        std::max(caps_peak, static_cast<double>(s.caps.peak_buffer_bytes));
  }
  // Only the open loop has due times; closed loops report 0 queue wait,
  // like the other counts of a layer they bypass.
  std::vector<double> waits, services;
  for (const OpRecord& r : x.records) {
    if (x.w.open_loop) waits.push_back(r.wait_s * 1e3);
    services.push_back(r.service_s * 1e3);
  }

  // Model next to measurement: measured matmul() seconds over the
  // prediction, per shape; the metric is the median over shapes.
  std::vector<double> predict;
  std::printf("model vs measurement (serve.predict_ratio per shape):\n");
  for (std::size_t cls = 0; cls < x.w.classes.size(); ++cls) {
    std::vector<double> m;
    for (const LayerSample& s : v) {
      if (s.cls == cls) m.push_back(s.matmul_s);
    }
    if (m.empty()) continue;
    const OpClass& oc = x.w.classes[cls];
    const capow::core::AlgorithmId alg = oc.kind == Kind::kServe
                                             ? x.probes->serve_choice(oc.n)
                                             : algorithm_of(oc.kind);
    const double predicted = x.probes->predicted_s(alg, oc.n);
    const double measured = median(m);
    predict.push_back(measured / predicted);
    std::printf("  %-9s n=%-5zu measured %9.3f ms  predicted %9.3f ms  "
                "ratio %.3f\n",
                kind_name(oc.kind), oc.n, measured * 1e3, predicted * 1e3,
                measured / predicted);
  }

  const auto recursion_other = [&](const LayerSample& s) {
    const double lease = lease_us * 1e-6;
    const double strassen = s.strassen_s -
                            s.strassen_base_products * s.base_call_s -
                            s.strassen_leases * lease;
    const double caps = s.caps_s - s.caps.base_products * s.base_call_s -
                        s.caps_leases * lease;
    return (strassen + caps) / 2.0;
  };
  const double wall = x.ledger.wall_s();
  const auto rej = [&](serve::RejectReason r) {
    return static_cast<double>(x.rejected[static_cast<std::size_t>(r)]);
  };
  double rejected_total = 0.0;
  for (std::uint64_t r : x.rejected) rejected_total += static_cast<double>(r);

  const auto count = [](std::uint64_t c) { return static_cast<double>(c); };
  return {
      {"api.dispatch_us",
       med([](auto& s) { return s.matmul_s - s.direct_s; }) * 1e6, "us"},
      {"backend.fallbacks", count(fallbacks), "count"},
      {"blas.gemm_ms", med([](auto& s) { return s.gemm_s; }) * 1e3, "ms"},
      {"blas.pack_ms", med([](auto& s) { return s.pack_s; }) * 1e3, "ms"},
      {"blas.microkernel_gflops", med([](auto& s) { return s.kernel_gflops; }),
       "GFLOP/s"},
      {"blas.kernel_frac", med([](auto& s) {
         return flops_of(s.n) / (s.kernel_gflops * 1e9) / s.gemm_s;
       }),
       "fraction"},
      {"strassen.ms", med([](auto& s) { return s.strassen_s; }) * 1e3, "ms"},
      {"caps.ms", med([](auto& s) { return s.caps_s; }) * 1e3, "ms"},
      {"recursion.base_ms", med([](auto& s) {
         return (s.strassen_base_products + s.caps.base_products) *
                s.base_call_s / 2.0;
       }) * 1e3,
       "ms"},
      {"recursion.other_ms", med(recursion_other) * 1e3, "ms"},
      {"recursion.flop_ratio", ratio(count(rec_flops), count(rec_nominal)),
       "ratio"},
      {"caps.base_products", mean([](auto& s) { return s.caps.base_products; }),
       "count"},
      {"caps.bfs_nodes", mean([](auto& s) { return s.caps.bfs_nodes; }),
       "count"},
      {"caps.dfs_nodes", mean([](auto& s) { return s.caps.dfs_nodes; }),
       "count"},
      {"caps.peak_buffer_mb", caps_peak / kMiB, "MB"},
      {"arena.acquires_per_op", acquires_per_op, "count"},
      {"arena.hit_rate", ratio(count(k.hits), count(k.acquires), 1.0),
       "fraction"},
      {"arena.lease_us", lease_us, "us"},
      {"arena.lease_ms_per_op", acquires_per_op * lease_us * 1e-3, "ms"},
      {"arena.peak_mb", arena_peak_bytes / kMiB, "MB"},
      {"tasking.tasks_per_op", per_op(k.tasks), "count"},
      {"tasking.syncs_per_op", per_op(k.syncs), "count"},
      {"tasking.spawn_us", med([](auto& s) { return s.spawn_s; }) * 1e6, "us"},
      {"abft.guard_us", med([](auto& s) { return s.guard_s; }) * 1e6, "us"},
      {"abft.verifications_per_op", per_op(k.verifications), "count"},
      {"abft.detected", count(detected), "count"},
      {"serve.queue_wait_p50_ms", quantile(waits, 0.5), "ms"},
      {"serve.queue_wait_p99_ms", quantile(waits, 0.99), "ms"},
      {"serve.service_ms", median(services), "ms"},
      {"serve.admit_us",
       med([](auto& s) { return s.serve_one_s - s.matmul_s; }) * 1e6, "us"},
      {"serve.rejected", rejected_total, "count"},
      {"serve.rejected.queue_full", rej(serve::RejectReason::kQueueFull),
       "count"},
      {"serve.rejected.energy_budget", rej(serve::RejectReason::kEnergyBudget),
       "count"},
      {"serve.rejected.shedding", rej(serve::RejectReason::kShedding),
       "count"},
      {"serve.rejected.oversized", rej(serve::RejectReason::kOversized),
       "count"},
      {"serve.predict_ratio", median(predict), "ratio"},
      {"dist.messages_per_op", mean([](auto& s) { return s.dist_messages; }),
       "count"},
      {"dist.bytes_per_op", mean([](auto& s) { return s.dist_bytes; }),
       "bytes"},
      {"dist.retransmits", count(dist_retx), "count"},
      {"dist.local_ms", med([](auto& s) { return s.dist_local_s; }) * 1e3,
       "ms"},
      {"dist.comm_ms",
       med([](auto& s) { return s.dist_op_s - s.dist_local_s; }) * 1e3, "ms"},
      {"ledger.untracked_frac", ratio(x.ledger.untracked_s(), wall),
       "fraction"},
      {"trace.overhead_frac", traced_ratio(x) - 1.0, "fraction"},
      {"host.steal_frac", x.steal, "fraction"},
  };
}

void print_classes(const Ctx& x) {
  std::printf("%-10s %6s %6s %11s %11s %11s %11s\n", "class", "n", "ops",
              "p25_ms", "p50_ms", "p75_ms", "GFLOP/s");
  for (std::size_t cls = 0; cls < x.w.classes.size(); ++cls) {
    std::vector<double> lat;
    double busy = 0.0, flops = 0.0;
    for (const OpRecord& r : x.records) {
      if (r.cls != cls) continue;
      lat.push_back(r.latency_s * 1e3);
      busy += r.service_s;
      if (r.ok) flops += flops_of(r.n);
    }
    if (lat.empty()) continue;
    const OpClass& oc = x.w.classes[cls];
    std::printf("%-10s %6zu %6zu %11.3f %11.3f %11.3f %11.2f\n",
                kind_name(oc.kind), oc.n, lat.size(), quantile(lat, 0.25),
                median(lat), quantile(lat, 0.75), ratio(flops, busy) * 1e-9);
  }
}

void print_ledger(const Ctx& x) {
  const double wall = x.ledger.wall_s();
  std::printf("layer ledger (self time, traced wall %.3f s):\n", wall);
  for (const Ledger::Row& r : x.ledger.rows()) {
    std::printf("  %-18s %7zu spans %10.3f ms %6.2f%%\n", r.name.c_str(),
                r.count, r.self_s * 1e3, 100.0 * ratio(r.self_s, wall));
  }
  std::printf("  %-18s %24.3f ms %6.2f%%\n", "<untracked>",
              x.ledger.untracked_s() * 1e3,
              100.0 * ratio(x.ledger.untracked_s(), wall));
  std::printf("ledger identity: self %.6f s + untracked %.6f s vs wall "
              "%.6f s, closure error %.2e\n",
              x.ledger.self_sum_s(), x.ledger.untracked_s(), wall,
              x.ledger.closure_error());
}

/// The ledger check that can fail: op.e2e spans against the loop's own
/// clock on the untraced calls of the same classes (see traced_ratio).
bool ledger_agrees(const Ctx& x) {
  const double r = traced_ratio(x);
  const bool ok = r <= kSpanAgreement && r >= 1.0 / kSpanAgreement;
  std::printf("ledger check: traced op.e2e spans / untraced loop clock = "
              "%.3f, must lie within x%.1f either way: %s\n",
              r, kSpanAgreement, ok ? "ok" : "FAILED");
  return ok;
}

void append_results(const Ctx& x, const RunResult& res,
                    const std::string& hash) {
  if (x.opts.out_dir.empty()) return;
  const std::string path = x.opts.out_dir + "/results.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
               "\"sequence_hash\":\"%s\",\"host.steal_frac\":%.6f,"
               "\"noisy\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"metrics\":{",
               x.w.name.c_str(), static_cast<unsigned long long>(x.opts.seed),
               x.opts.trace ? 1 : 0, hash.c_str(), x.steal,
               x.steal > kNoisySteal ? "true" : "false",
               res.correct ? "true" : "false",
               static_cast<unsigned long long>(res.attempted),
               static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.9g", i == 0 ? "" : ",",
                 res.metrics[i].name.c_str(), res.metrics[i].value);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

}  // namespace

RunResult run_workload(const Workload& w, const RunOptions& opts) {
  Ctx x(w, opts);
  const std::string hash = sequence_hash(w, opts.seed, opts.seconds).hex();
  std::printf("workload %s  seed %llu  seconds %.1f  %s  sequence hash %s\n",
              w.name.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? "traced" : "untraced", hash.c_str());

  const std::size_t n = max_n(w);
  x.a = Matrix(n, n);
  x.b = Matrix(n, n);
  x.c = Matrix(n, n);
  x.scratch = Matrix(n, n);
  const std::uint64_t fallbacks0 =
      capow::backend::BackendRegistry::instance().fallbacks_total();
  const std::uint64_t detected0 = abft::counters().detected;

  first_setup(x);
  const double arena_peak =
      static_cast<double>(blas::WorkspaceArena::process_arena().stats()
                              .peak_outstanding_bytes);
  reference_checks(x);
  if (opts.trace) {
    x.probes = std::make_unique<LayerProbes>();
    x.ledger.begin_session();
  }
  if (w.open_loop) {
    run_open(x);
  } else {
    run_closed(x);
  }
  if (opts.trace) x.ledger.end_session();

  RunResult res;
  for (const OpRecord& r : x.records) {
    res.attempted += 1;
    if (!r.ok) res.failed += 1;
  }
  res.attempted += x.attempted;
  res.failed += x.failed;
  print_classes(x);
  if (w.open_loop) {
    std::printf("offered %.1f s at %.0f req/s (burst x%.1f), generator "
                "lateness p50 %.1f us\n",
                x.offered_s, kServeRatePerS, kServeBurstFactor,
                x.lateness_s * 1e6);
  }
  const std::uint64_t detected = abft::counters().detected - detected0;
  const std::uint64_t fallbacks =
      capow::backend::BackendRegistry::instance().fallbacks_total() -
      fallbacks0;
  if (opts.trace) {
    print_ledger(x);
    res.metrics = layer_metrics(x, fallbacks, detected, arena_peak);
    const bool closes = x.ledger.closure_error() < 1e-9;
    if (!closes) x.note_error("layer ledger does not close");
    const bool agrees = ledger_agrees(x);
    if (!agrees) x.note_error("op.e2e spans disagree with the loop's clock");
    if (!opts.out_dir.empty()) {
      x.ledger.write_chrome_trace(opts.out_dir + "/trace_" + w.name + ".json");
    }
    res.correct = closes && agrees && detected == 0 && fallbacks == 0 &&
                  std::all_of(x.samples.begin(), x.samples.end(),
                              [](const LayerSample& s) { return s.replay_ok; });
  } else {
    res.metrics = end_to_end_metrics(x, setup_seconds(x));
  }
  res.correct = res.correct && res.failed == 0;
  std::printf("failed_frac %.6f (%llu of %llu)\n",
              ratio(static_cast<double>(res.failed),
                    static_cast<double>(res.attempted)),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("host.steal_frac %.4f%s\n", x.steal,
              x.steal > kNoisySteal ? "  NOISY: host steal above 10%" : "");
  if (!x.first_error.empty()) {
    std::printf("first error: %s\n", x.first_error.c_str());
  }
  append_results(x, res, hash);
  return res;
}

}  // namespace perfbench
