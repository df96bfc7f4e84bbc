// Workload definitions, the seeded operation/arrival generators, and the
// program-side engine that runs one operation through capow's public
// entry points (capow::matmul, serve::Server::serve_one).
//
// Every matmul runs serially (null pool, capow's default). Multi-worker
// wall time on a small shared VM measures the hypervisor's scheduling
// more than capow. For the same reason there is no end-to-end workload
// on the dist runtime, whose ranks are threads by design: its 2×2 SUMMA
// and 2-rank dist-CAPS loop moved by 40–100% between runs whenever host
// steal rose above ~10%. The traced run still replays a dist-CAPS solve
// per operation for the dist.* layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capow/core/algorithms.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/serve/server.hpp"
#include "common.hpp"

namespace perfbench {

enum class Kind { kGemm, kStrassen, kCaps, kServe };

const char* kind_name(Kind k) noexcept;

/// The algorithm matmul() runs for `k`; serve maps to blocked GEMM,
/// capowd's choice at its sizes.
capow::core::AlgorithmId algorithm_of(Kind k) noexcept;

/// One shape × algorithm class of a workload.
struct OpClass {
  Kind kind;
  std::size_t n;
  unsigned weight = 1;  ///< open loop: relative share of requests
};

/// One generated operation.
struct Op {
  std::uint64_t index = 0;
  Kind kind = Kind::kGemm;
  std::size_t n = 0;
  std::size_t cls = 0;      ///< index into Workload::classes
  double due_s = 0.0;       ///< open loop: offset into the offered schedule
  bool guaranteed = false;  ///< serve: guaranteed tier with ABFT correct
  std::uint64_t seed = 0;   ///< operand / check seed
};

struct Workload {
  std::string name;
  bool open_loop = false;
  /// Closed loop: one round runs every class once, in a seeded order.
  /// Open loop: the shape mix requests draw from, by weight.
  std::vector<OpClass> classes;
};

/// Open-loop constants of `serve_open`. They are fixed here, never
/// derived from a run, so the offered load is the same on every commit.
/// At 200 req/s the single server is busy ~7% of the time (~15% in the
/// burst), so some requests queue; higher rates let host stalls into
/// the tail through the queue. The latency limit is 1.5× the n=224
/// service time on a 4-vCPU Xeon VM (~1 ms), above the p99 of all
/// requests: a request misses it only after queueing, and a 1.5×
/// slower serve path pushes most n=224 requests past it.
inline constexpr double kServeRatePerS = 200.0;
inline constexpr double kServeBurstStart = 0.45;  ///< share of the schedule
inline constexpr double kServeBurstEnd = 0.55;
inline constexpr double kServeBurstFactor = 2.0;
inline constexpr double kServeGuaranteedShare = 0.35;
inline constexpr double kServeLatencyLimitS = 0.0015;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Round `round` of a closed loop; op indices continue from first_index.
std::vector<Op> closed_round(const Workload& w, std::uint64_t seed,
                             std::uint64_t round, std::uint64_t first_index);

/// The whole seeded Poisson arrival schedule of an open loop, spanning
/// `seconds`, with one burst window at kServeBurstFactor × the rate.
std::vector<Op> open_schedule(const Workload& w, std::uint64_t seed,
                              double seconds);

/// Fingerprint of the generated sequence: the full schedule of an open
/// loop, or the first 64 rounds of a closed one (independent of how many
/// rounds a run reaches in its time).
SequenceHash sequence_hash(const Workload& w, std::uint64_t seed,
                           double seconds);

/// The serve request an op stands for.
capow::serve::Request request_for(const Op& op);

/// Program-side objects of one workload: capowd's Server. Constructing
/// one is part of the measured set-up.
class Engine {
 public:
  explicit Engine(const Workload& w);

  /// Runs `op` end to end into c. Returns false when capowd rejected the
  /// request (the reason is in last_reject()). Exceptions propagate.
  bool run(const Op& op, capow::linalg::ConstMatrixView a,
           capow::linalg::ConstMatrixView b, capow::linalg::MatrixView c);

  capow::serve::RejectReason last_reject() const noexcept {
    return last_reject_;
  }

 private:
  std::unique_ptr<capow::serve::Server> server_;
  capow::serve::RejectReason last_reject_ =
      capow::serve::RejectReason::kQueueFull;
};

/// Packed n×n view over the front of a matrix with capacity >= n².
inline capow::linalg::MatrixView packed(capow::linalg::Matrix& m,
                                        std::size_t n) {
  return {m.data(), n, n, n};
}

}  // namespace perfbench
