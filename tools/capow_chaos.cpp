// capow-chaos: deterministic chaos harness for the elastic dist
// runtime. Runs one distributed workload (SUMMA or dist-CAPS) under a
// fault spec — typically a `rank.kill` schedule — with a chosen
// RecoveryPolicy, then prints a report whose every byte is a pure
// function of (workload, policy, faults, seed, n, ranks). CI runs the
// same configuration twice and diffs the stdout: any nondeterminism in
// the recovery path (membership agreement, panel restore, fault draws,
// the final-generation comm matrix) shows up as a text diff, not a
// flaky test.
//
// Wall-clock recovery latency is deliberately kept OUT of the stdout
// report (it varies run to run); pass --jsonl=FILE to append one JSON
// record that includes recovery_ns alongside the deterministic fields.
//
// Exit status: 0 when the run ended in a well-defined state (clean,
// recovered, or aborted under --policy=abort) AND every verification
// passed (output numerically correct, conservation closed, respawn
// bit-identical to the fault-free baseline); 1 otherwise; 2 on a usage
// error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capow/abft/abft.hpp"
#include "capow/blas/gemm_ref.hpp"
#include "capow/core/env.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/dist/summa.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "cli.hpp"

namespace {

using namespace capow;

/// FNV-1a over the raw matrix bytes: bit-identity is the claim the
/// respawn path makes, so the comparison hashes bits, not values.
std::uint64_t matrix_hash(const linalg::Matrix& m) {
  std::uint64_t h = 1469598103934665603ULL;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(m.data());
  const std::size_t count = m.rows() * m.cols() * sizeof(double);
  for (std::size_t i = 0; i < count; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

struct ChaosConfig {
  std::string workload = "summa";
  dist::RecoveryPolicy policy = dist::RecoveryPolicy::kRespawn;
  std::optional<fault::FaultPlan> faults;
  std::string faults_spec;
  int ranks = 4;
  std::size_t n = 48;
  std::uint64_t seed = 1;
  std::string jsonl_path;
};

struct ChaosOutcome {
  std::string status;             // "clean" | "recovered" | "aborted"
  std::string root_cause;         // aborted only
  int generations = 1;
  std::vector<int> failed_ranks;  // physical, sorted
  std::uint64_t output_hash = 0;
  std::uint64_t recovery_ns = 0;
  dist::CommMatrix cumulative;
  dist::CommMatrix final_generation;
};

/// One full workload execution under the current fault scope (the
/// caller decides whether an injector is installed). Both the chaos run
/// and the fault-free baseline go through this exact code path, so the
/// bit-identity comparison never compares across different kernels.
ChaosOutcome execute(const ChaosConfig& cfg, linalg::ConstMatrixView a,
                     linalg::ConstMatrixView b, linalg::Matrix& out) {
  ChaosOutcome r;
  dist::World world(cfg.ranks);
  dist::RecoveryOptions opts;
  opts.policy = cfg.policy;

  dist::PanelCacheSet cache(cfg.ranks);
  abft::AbftConfig abft_cfg;
  abft_cfg.mode = abft::AbftMode::kCorrect;

  const auto body = [&](dist::Communicator& comm,
                        const dist::RecoveryContext& ctx) {
    linalg::Matrix empty;
    const bool root = comm.rank() == 0;
    if (cfg.workload == "summa") {
      dist::summa_multiply(comm,
                           dist::GridSpec::largest_square(cfg.n, comm.size()),
                           root ? a : empty.view(), root ? b : empty.view(),
                           root ? out.view() : empty.view(), abft_cfg, ctx,
                           &cache);
    } else {
      dist::DistCapsOptions copts;
      copts.local.base_cutoff = 16;
      dist::dist_caps_multiply(comm, root ? a : empty.view(),
                               root ? b : empty.view(),
                               root ? out.view() : empty.view(), copts);
    }
  };

  try {
    const dist::RecoveryReport rep = world.run_elastic(opts, body);
    r.status = rep.recovered ? "recovered" : "clean";
    r.generations = rep.recoveries + 1;
    r.failed_ranks = rep.failed_ranks;
    r.recovery_ns = rep.recovery_ns;
  } catch (const std::exception& e) {
    r.status = "aborted";
    r.root_cause = e.what();
    r.failed_ranks = world.failed_ranks();
  }
  r.output_hash = matrix_hash(out);
  r.cumulative = world.comm_stats();
  r.final_generation = world.final_generation_stats();
  return r;
}

void print_matrix(const dist::CommMatrix& m) {
  if (m.empty()) {
    std::printf("  (empty)\n");
    return;
  }
  for (int src = 0; src < m.ranks(); ++src) {
    for (int dst = 0; dst < m.ranks(); ++dst) {
      const dist::EdgeStats& e = m.edge(src, dst);
      if (e.messages == 0 && e.recv_messages == 0 &&
          e.discarded_messages == 0) {
        continue;
      }
      std::printf("  %d->%d sent=%llu/%llu recv=%llu/%llu", src, dst,
                  static_cast<unsigned long long>(e.messages),
                  static_cast<unsigned long long>(e.payload_bytes),
                  static_cast<unsigned long long>(e.recv_messages),
                  static_cast<unsigned long long>(e.recv_bytes));
      if (e.discarded_messages > 0) {
        std::printf(" discarded=%llu/%llu",
                    static_cast<unsigned long long>(e.discarded_messages),
                    static_cast<unsigned long long>(e.discarded_bytes));
      }
      std::printf("\n");
    }
  }
}

std::string ranks_json(const std::vector<int>& ranks) {
  std::string out = "[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ranks[i]);
  }
  return out + "]";
}

int run(const ChaosConfig& cfg) {
  dist::reset_recovery_counters();

  linalg::Matrix a = linalg::random_matrix(cfg.n, cfg.n, cfg.seed);
  linalg::Matrix b = linalg::random_matrix(cfg.n, cfg.n, cfg.seed + 1);
  linalg::Matrix expect(cfg.n, cfg.n);
  blas::gemm_reference(a.view(), b.view(), expect.view());

  // Fault-free baseline through the identical elastic code path; its
  // hash is what "respawn is bit-identical to the fault-free run" is
  // measured against.
  linalg::Matrix baseline(cfg.n, cfg.n);
  const ChaosOutcome ref = execute(cfg, a.view(), b.view(), baseline);
  if (ref.status != "clean") {
    std::printf("error: fault-free baseline did not run clean (%s: %s)\n",
                ref.status.c_str(), ref.root_cause.c_str());
    return 1;
  }
  dist::reset_recovery_counters();

  // The chaos run: same configuration, injector installed.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> scope;
  if (cfg.faults) {
    injector = std::make_unique<fault::FaultInjector>(*cfg.faults);
    scope = std::make_unique<fault::FaultScope>(*injector);
  }
  linalg::Matrix got(cfg.n, cfg.n);
  const ChaosOutcome res = execute(cfg, a.view(), b.view(), got);
  scope.reset();

  // --- verification -------------------------------------------------
  const bool bit_identical = res.output_hash == ref.output_hash;
  const bool numerically_correct =
      res.status != "aborted" &&
      linalg::allclose(got.view(), expect.view(), 1e-9, 1e-9);
  const bool conserved =
      res.status == "aborted" || res.cumulative.conserved();

  bool ok = conserved;
  const char* verdict = "MISMATCH";
  if (res.status == "aborted") {
    // Abort is only an acceptable end state when it is the policy; the
    // root cause must be the injected kill, not a secondary CommError.
    verdict = "aborted";
    ok = ok && cfg.policy == dist::RecoveryPolicy::kAbort &&
         res.root_cause.find("rank.kill") != std::string::npos;
  } else if (bit_identical) {
    verdict = "bit-identical";
    ok = ok && numerically_correct;
  } else if (numerically_correct) {
    verdict = "numerically-correct";
    // Respawn restores the original membership, so anything short of
    // bit-identity means the recovery path perturbed the computation.
    ok = ok && cfg.policy != dist::RecoveryPolicy::kRespawn;
  } else {
    ok = false;
  }

  // --- deterministic report ----------------------------------------
  std::printf("capow-chaos report\n");
  std::printf("workload: %s\n", cfg.workload.c_str());
  std::printf("policy: %s\n", dist::recovery_policy_name(cfg.policy));
  std::printf("ranks: %d  n: %zu  seed: %llu\n", cfg.ranks, cfg.n,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("faults: %s\n",
              cfg.faults_spec.empty() ? "(none)" : cfg.faults_spec.c_str());
  std::printf("status: %s\n", res.status.c_str());
  if (!res.root_cause.empty()) {
    std::printf("root_cause: %s\n", res.root_cause.c_str());
  }
  std::printf("generations: %d\n", res.generations);
  std::printf("failed_ranks: %s\n", ranks_json(res.failed_ranks).c_str());
  std::printf("rank_failures_total: %llu\n",
              static_cast<unsigned long long>(dist::rank_failures_total()));
  std::printf("recoveries_total: %llu\n",
              static_cast<unsigned long long>(dist::recoveries_total()));
  std::printf("output_hash: %016llx\n",
              static_cast<unsigned long long>(res.output_hash));
  std::printf("baseline_hash: %016llx\n",
              static_cast<unsigned long long>(ref.output_hash));
  std::printf("output_vs_baseline: %s\n", verdict);
  std::uint64_t delivered = 0, received = 0, discarded = 0;
  for (int src = 0; src < res.cumulative.ranks(); ++src) {
    for (int dst = 0; dst < res.cumulative.ranks(); ++dst) {
      const dist::EdgeStats& e = res.cumulative.edge(src, dst);
      delivered += e.messages;
      received += e.recv_messages;
      discarded += e.discarded_messages;
    }
  }
  std::printf("conservation: %s (delivered=%llu received=%llu "
              "discarded=%llu)\n",
              conserved ? "ok" : "VIOLATED",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(discarded));
  std::printf("final-generation comm matrix:\n");
  print_matrix(res.final_generation);
  if (res.status == "recovered") {
    std::printf("cumulative comm matrix (with discards):\n");
    print_matrix(res.cumulative);
  }
  std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");

  if (!cfg.jsonl_path.empty()) {
    std::ofstream out(cfg.jsonl_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   cfg.jsonl_path.c_str());
      return 1;
    }
    out << "{\"tool\":\"capow_chaos\",\"workload\":\"" << cfg.workload
        << "\",\"policy\":\"" << dist::recovery_policy_name(cfg.policy)
        << "\",\"ranks\":" << cfg.ranks << ",\"n\":" << cfg.n
        << ",\"seed\":" << cfg.seed << ",\"faults\":\"" << cfg.faults_spec
        << "\",\"status\":\"" << res.status
        << "\",\"generations\":" << res.generations
        << ",\"failed_ranks\":" << ranks_json(res.failed_ranks)
        << ",\"rank_failures_total\":" << dist::rank_failures_total()
        << ",\"recoveries_total\":" << dist::recoveries_total()
        << ",\"bit_identical\":" << (bit_identical ? "true" : "false")
        << ",\"numerically_correct\":"
        << (numerically_correct ? "true" : "false")
        << ",\"conserved\":" << (conserved ? "true" : "false")
        << ",\"recovery_ns\":" << res.recovery_ns
        << ",\"verdict\":\"" << (ok ? "pass" : "fail") << "\"}\n";
  }
  return ok ? 0 : 1;
}

using Cfg = ChaosConfig;

const cli::Tool<Cfg> kTool{
    .name = "capow-chaos",
    .usage = "[flags]",
    .exit_codes = "exit: 0 every check passed, 1 otherwise, 2 usage error",
    .modes = {{nullptr, "run one dist workload under a fault spec", run}},
    .flags = {
        {"--workload=summa|dist_caps", "distributed kernel (default summa)",
         cli::kAllModes,
         [](Cfg& c, cli::Arg v) {
           if (v != "summa" && v != "dist_caps") {
             throw std::invalid_argument("unknown workload: " + v);
           }
           c.workload = v;
         }},
        {"--policy=abort|shrink|respawn", "recovery policy (default respawn)",
         cli::kAllModes,
         [](Cfg& c, cli::Arg v) { c.policy = dist::parse_recovery_policy(v); }},
        {"--faults=SPEC", "fault spec (overrides env CAPOW_FAULTS)",
         cli::kAllModes,
         [](Cfg& c, cli::Arg v) {
           c.faults_spec = v;
           c.faults.reset();
           if (!v.empty()) c.faults = fault::FaultPlan::parse(v);
         }},
        {"--ranks=N", "world size (default 4)", cli::kAllModes,
         [](Cfg& c, cli::Arg v) {
           c.ranks = static_cast<int>(
               core::parse_integer_in("--ranks", v, 1, 4096));
         }},
        {"--n=N", "matrix dimension (default 48)", cli::kAllModes,
         [](Cfg& c, cli::Arg v) {
           c.n = static_cast<std::size_t>(
               core::parse_integer_in("--n", v, 1, 1 << 20));
         }},
        {"--seed=N", "operand fill seed (default 1)", cli::kAllModes,
         [](Cfg& c, cli::Arg v) {
           c.seed = static_cast<std::uint64_t>(core::parse_integer_in(
               "--seed", v, 0, std::numeric_limits<long long>::max()));
         }},
        {"--jsonl=FILE", "append the full record, incl. recovery_ns",
         cli::kAllModes, cli::assign<&Cfg::jsonl_path>},
    },
};

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig cfg;
  const cli::Mode<ChaosConfig>& mode = cli::parse(argc, argv, kTool, cfg);
  if (!cfg.faults) {
    try {
      if (auto env = fault::FaultPlan::from_env()) {
        cfg.faults = *env;
        cfg.faults_spec = env->spec();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "capow-chaos: bad CAPOW_FAULTS: %s\n", e.what());
      return 2;
    }
  }
  try {
    return mode.run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
