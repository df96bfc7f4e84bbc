#include "capow/dist/recovery.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "capow/telemetry/tracer.hpp"

namespace capow::dist {

namespace {

std::atomic<std::uint64_t> g_rank_failures{0};
std::atomic<std::uint64_t> g_recoveries{0};

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// True when `e` is the one failure class recovery may absorb.
bool is_rank_killed(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const RankKilled&) {
    return true;
  } catch (...) {
    return false;
  }
}

bool is_comm(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const CommError&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

const char* recovery_policy_name(RecoveryPolicy p) noexcept {
  switch (p) {
    case RecoveryPolicy::kAbort:
      return "abort";
    case RecoveryPolicy::kShrink:
      return "shrink";
    case RecoveryPolicy::kRespawn:
      return "respawn";
  }
  return "?";
}

RecoveryPolicy parse_recovery_policy(const std::string& name) {
  if (name == "abort") return RecoveryPolicy::kAbort;
  if (name == "shrink") return RecoveryPolicy::kShrink;
  if (name == "respawn") return RecoveryPolicy::kRespawn;
  throw std::invalid_argument("unknown recovery policy '" + name +
                              "' (abort|shrink|respawn)");
}

std::uint64_t rank_failures_total() noexcept {
  return g_rank_failures.load(std::memory_order_relaxed);
}
std::uint64_t recoveries_total() noexcept {
  return g_recoveries.load(std::memory_order_relaxed);
}
void reset_recovery_counters() noexcept {
  g_rank_failures.store(0, std::memory_order_relaxed);
  g_recoveries.store(0, std::memory_order_relaxed);
}

RecoveryReport World::run_elastic(
    const RecoveryOptions& opts,
    const std::function<void(Communicator&, const RecoveryContext&)>& body) {
  reset_elastic_state();
  // An elastic session owns its wire sequencing: starting from zeroed
  // channel counters makes generation 0's fault draws — and therefore
  // the kill schedule — independent of anything the World ran before.
  reset_wire_sequencing();

  RecoveryReport report;
  CommMatrix cumulative;

  // Every surviving rank derives the failed set from wire traffic (a
  // P-length bitmap reduced to virtual root 0 and broadcast back), not
  // from driver state — the agreement protocol a real elastic runtime
  // runs, and real deterministic traffic in the final generation's comm
  // matrix. Generation 0 skips it and is byte-identical to a plain run.
  const auto wrapped = [this, &body, &opts](Communicator& comm) {
    RecoveryContext ctx;
    ctx.generation = generation();
    ctx.policy = opts.policy;
    if (ctx.generation > 0) {
      telemetry::SpanScope span("dist.recovery.agree", "dist", "generation",
                                ctx.generation);
      std::vector<double> bitmap(static_cast<std::size_t>(size()), 0.0);
      for (int p : failed_ranks()) {
        bitmap[static_cast<std::size_t>(p)] = 1.0;
      }
      comm.reduce_sum(0, bitmap);
      comm.broadcast(0, bitmap);
      for (int p = 0; p < size(); ++p) {
        if (bitmap[static_cast<std::size_t>(p)] > 0.0) {
          ctx.failed_ranks.push_back(p);
        }
      }
    }
    body(comm, ctx);
  };

  for (;;) {
    run_generation(wrapped);
    if (!blocks_.empty()) cumulative += final_generation_stats_;

    std::exception_ptr cause = root_cause();
    if (!cause) break;  // this generation completed

    // Recoverable iff the policy allows it, the budget has room, a rank
    // actually died this generation, and *every* non-CommError on file
    // is a RankKilled — any other root cause (logic error, injected
    // run failure) keeps run()'s abort semantics untouched.
    bool recoverable = opts.policy != RecoveryPolicy::kAbort &&
                       report.recoveries < opts.max_recoveries &&
                       has_failed_ranks();
    if (recoverable) {
      for (int r = 0; r < ranks_ && recoverable; ++r) {
        const std::exception_ptr& e = errors_[static_cast<std::size_t>(r)];
        if (e && !is_comm(e) && !is_rank_killed(e)) recoverable = false;
      }
    }
    if (!recoverable) {
      if (!blocks_.empty()) last_stats_ = cumulative;
      report.failed_ranks = failed_ranks();
      std::rethrow_exception(cause);
    }

    const auto t0 = std::chrono::steady_clock::now();
    {
      telemetry::SpanScope span("dist.recovery", "dist", "policy",
                                static_cast<std::int64_t>(opts.policy),
                                "generation", generation() + 1);
      const std::vector<int> dead = failed_ranks();
      g_rank_failures.fetch_add(
          dead.size() > report.failed_ranks.size()
              ? dead.size() - report.failed_ranks.size()
              : 0,
          std::memory_order_relaxed);
      report.failed_ranks = dead;

      // Stale traffic from the dying generation is flushed here, with
      // each unconsumed delivery accounted as discarded on its edge —
      // that is what keeps conserved() closing with a dead rank's
      // partial row retained.
      flush_stale_messages(cumulative);

      // Re-form the active set. Respawn keeps every physical slot (the
      // next generation's thread on a dead slot *is* the replacement
      // rank); shrink drops the dead.
      active_.clear();
      for (int r = 0; r < ranks_; ++r) {
        const bool is_dead =
            failed_[static_cast<std::size_t>(r)].load(
                std::memory_order_acquire);
        if (opts.policy == RecoveryPolicy::kRespawn || !is_dead) {
          active_.push_back(r);
        }
      }
      generation_.fetch_add(1, std::memory_order_acq_rel);
      // A recovered generation is a fresh run of the new set: zeroed
      // sequencing makes its fault draws (and comm matrix) a pure
      // function of seed + survivor set, never of how far the dying
      // generation got.
      reset_wire_sequencing();
      ++report.recoveries;
      report.recovered = true;
      g_recoveries.fetch_add(1, std::memory_order_relaxed);
    }
    report.recovery_ns += elapsed_ns(t0);
  }

  if (!blocks_.empty()) last_stats_ = cumulative;
  report.failed_ranks = failed_ranks();
  return report;
}

}  // namespace capow::dist
