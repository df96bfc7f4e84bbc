// Per-layer replays for the traced run.
//
// After a traced end-to-end operation, the benchmark replays the same
// operands through the lower public entry points — the algorithm's own
// function under matmul(), the blas pack routines and microkernel, the
// Strassen and CAPS recursions and their base kernel, a private
// workspace arena, the inline task pool, the ABFT guard, capowd's
// serve_one() and a dist-CAPS solve — each under its own ledger span.
// Where a workload's end-to-end path bypasses a layer, the layer's time
// is what it costs on the same operands; its counts keep the exact zero
// of the bypass.
#pragma once

#include <cstdint>
#include <memory>

#include "capow/capsalg/caps.hpp"
#include "capow/dist/comm.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/serve/predictor.hpp"
#include "capow/serve/server.hpp"
#include "ledger.hpp"
#include "workload.hpp"

namespace perfbench {

/// Everything one traced operation's replays measured.
struct LayerSample {
  std::size_t n = 0;
  std::size_t cls = 0;
  double e2e_s = 0.0;        ///< the end-to-end call itself
  double matmul_s = 0.0;     ///< matmul() with the op's options
  double direct_s = 0.0;     ///< the algorithm's own entry point
  double serve_one_s = 0.0;  ///< serve_one() for the same operands
  double gemm_s = 0.0;       ///< blas::gemm
  double pack_s = 0.0;       ///< pack_a/pack_b over one call's panels
  double kernel_gflops = 0.0;
  double strassen_s = 0.0;
  double caps_s = 0.0;
  double base_call_s = 0.0;  ///< one strassen::base_gemm on a base block
  std::uint64_t strassen_base_products = 0;
  std::uint64_t strassen_leases = 0;
  std::uint64_t caps_leases = 0;
  std::uint64_t recursion_flops = 0;    ///< trace-counted, both recursions
  std::uint64_t recursion_nominal = 0;  ///< 2n³ per recursion replayed
  capow::capsalg::CapsStats caps{};
  double lease_s = 0.0;  ///< one acquire + release at the op's size mix
  double spawn_s = 0.0;  ///< one empty task run + wait, inline pool
  double guard_s = 0.0;  ///< AbftGuard construction + verify
  double dist_op_s = 0.0;
  double dist_local_s = 0.0;
  std::uint64_t dist_messages = 0;
  std::uint64_t dist_bytes = 0;
  std::uint64_t dist_retransmits = 0;
  bool replay_ok = true;  ///< every replayed product matched the e2e one
};

class LayerProbes {
 public:
  LayerProbes();
  ~LayerProbes();
  LayerProbes(const LayerProbes&) = delete;
  LayerProbes& operator=(const LayerProbes&) = delete;

  /// Replays `op` on (a, b). `c` holds the end-to-end product; `scratch`
  /// has capacity for n² doubles. `reverse` flips the replay order
  /// (alternated between operations so no layer always runs first).
  void replay(const Op& op, capow::linalg::ConstMatrixView a,
              capow::linalg::ConstMatrixView b,
              capow::linalg::ConstMatrixView c, capow::linalg::Matrix& scratch,
              bool reverse, Ledger& ledger, LayerSample& s);

  /// The algorithm capowd picks for an n×n request at its default options.
  capow::core::AlgorithmId serve_choice(std::size_t n);

  /// The model's predicted seconds for `algorithm` at n (capowd's
  /// default machine and modelled threads).
  double predicted_s(capow::core::AlgorithmId algorithm, std::size_t n);

 private:
  struct Resources;

  capow::serve::CostPredictor predictor_;
  std::unique_ptr<capow::serve::Server> server_;
  std::unique_ptr<capow::dist::World> world2_;
  std::unique_ptr<Resources> res_;
  std::uint64_t next_request_id_ = 1u << 30;
};

}  // namespace perfbench
