#include "probes.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "capow/abft/abft.hpp"
#include "capow/api/matmul.hpp"
#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/task_group.hpp"
#include "capow/trace/counters.hpp"

namespace perfbench {

namespace {

using capow::core::AlgorithmId;
namespace abft = capow::abft;
namespace blas = capow::blas;
namespace linalg = capow::linalg;
using linalg::ConstMatrixView;
using linalg::MatrixView;

// The defaults the workloads run with, read from the options structs so
// the replays follow them if they change.
const std::size_t kCutoff = capow::strassen::StrassenOptions{}.base_cutoff;
const std::size_t kDistributeThreshold =
    capow::dist::DistCapsOptions{}.distribute_threshold;

std::size_t round_up(std::size_t v, std::size_t m) {
  return (v + m - 1) / m * m;
}

/// Seconds per call of `fn`, repeated until `min_s` has passed.
template <typename Fn>
double per_call(Fn&& fn, double min_s) {
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

/// The pack_a/pack_b calls one blas::gemm makes for these operands, at
/// its resolved kernel and blocking.
double pack_sweep(ConstMatrixView a, ConstMatrixView b,
                  blas::WorkspaceArena& arena) {
  const blas::GemmOptions g{};
  const blas::MicroKernel& k = blas::resolve_kernel(g);
  const blas::BlockingParams bp = blas::resolve_blocking(g);
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  blas::WorkspaceCheckout bl =
      arena.acquire(round_up(std::min(bp.nc, n), bp.nr) * std::min(bp.kc, kk));
  blas::WorkspaceCheckout al =
      arena.acquire(round_up(std::min(bp.mc, m), bp.mr) * std::min(bp.kc, kk));
  const Clock::time_point t0 = Clock::now();
  for (std::size_t jc = 0; jc < n; jc += bp.nc) {
    const std::size_t nc = std::min(bp.nc, n - jc);
    for (std::size_t pc = 0; pc < kk; pc += bp.kc) {
      const std::size_t kc = std::min(bp.kc, kk - pc);
      k.pack_b(b, pc, jc, kc, nc, bl.data());
      for (std::size_t ic = 0; ic < m; ic += bp.mc) {
        k.pack_a(a, ic, pc, std::min(bp.mc, m - ic), kc, al.data());
      }
    }
  }
  return seconds_between(t0, Clock::now());
}

/// The registry microkernel's rate over pre-packed, cache-resident
/// stripes: one full mc×kc A block against one kc×nc B panel.
double kernel_gflops(ConstMatrixView a, ConstMatrixView b,
                     blas::WorkspaceArena& arena) {
  const blas::GemmOptions g{};
  const blas::MicroKernel& k = blas::resolve_kernel(g);
  const blas::BlockingParams bp = blas::resolve_blocking(g);
  const std::size_t n = a.rows();
  const std::size_t kc = std::min(bp.kc, n);
  const std::size_t mc = std::max(k.mr, std::min(bp.mc, n) / k.mr * k.mr);
  const std::size_t nc = std::max(k.nr, std::min(bp.nc, n) / k.nr * k.nr);
  blas::WorkspaceCheckout al = arena.acquire(mc * kc);
  blas::WorkspaceCheckout bl = arena.acquire(kc * nc);
  blas::WorkspaceCheckout cl = arena.acquire(mc * nc);
  k.pack_a(a, 0, 0, mc, kc, al.data());
  k.pack_b(b, 0, 0, kc, nc, bl.data());
  std::fill(cl.data(), cl.data() + mc * nc, 0.0);
  const double sweep_s = per_call(
      [&] {
        for (std::size_t jr = 0; jr < nc; jr += k.nr) {
          for (std::size_t ir = 0; ir < mc; ir += k.mr) {
            k.kernel(al.data() + ir * kc, bl.data() + jr * kc, kc,
                     cl.data() + ir * nc + jr, nc);
          }
        }
      },
      0.003);
  return 2.0 * static_cast<double>(mc * nc * kc) / sweep_s * 1e-9;
}

/// Lease sizes (in doubles) the op's own algorithm takes from its arena.
std::vector<std::size_t> lease_sizes(AlgorithmId algorithm, std::size_t n) {
  if (algorithm == AlgorithmId::kOpenBlas) {
    const blas::GemmOptions g{};
    const blas::BlockingParams bp = blas::resolve_blocking(g);
    const std::size_t kc = std::min(bp.kc, n);
    return {round_up(std::min(bp.nc, n), bp.nr) * kc,
            round_up(std::min(bp.mc, n), bp.mr) * kc};
  }
  const std::size_t padded = linalg::pad_dimension_for_recursion(n, kCutoff);
  const std::size_t levels = capow::strassen::recursion_levels(n, kCutoff);
  std::vector<std::size_t> sizes;
  for (std::size_t l = 1; l <= levels; ++l) {
    const std::size_t q = padded >> l;
    sizes.push_back(q * q);
  }
  if (sizes.empty()) sizes.push_back(n * n);
  return sizes;
}

double lease_probe(const std::vector<std::size_t>& sizes) {
  blas::WorkspaceArena arena;
  for (std::size_t s : sizes) arena.acquire(s);  // warm one buffer per size
  const double per_sweep = per_call(
      [&] {
        for (std::size_t s : sizes) {
          blas::WorkspaceCheckout lease = arena.acquire(s);
        }
      },
      0.001);
  return per_sweep / static_cast<double>(sizes.size());
}

double spawn_probe(capow::tasking::ThreadPool& pool) {
  capow::tasking::TaskGroup group(pool);
  return per_call(
      [&] {
        group.run([] {});
        group.wait();
      },
      0.0005);
}

/// Copies the leading h×h block of `src` into packed storage.
linalg::Matrix leading_block(ConstMatrixView src, std::size_t h) {
  linalg::Matrix m(h, h);
  linalg::copy(src.block(0, 0, h, h), m.view());
  return m;
}

/// A dist-CAPS multiply on a 2-rank world with rank 0 holding the
/// operands.
void run_dist_caps(capow::dist::World& world, ConstMatrixView a,
                   ConstMatrixView b, MatrixView c) {
  world.run([&](capow::dist::Communicator& comm) {
    if (comm.rank() == 0) {
      capow::dist::dist_caps_multiply(comm, a, b, c);
    } else {
      capow::dist::dist_caps_multiply(comm, {}, {}, {});
    }
  });
}

/// Rank 0's compute in one dist-CAPS op, replayed serially: on two ranks
/// it does four of the seven (n/2)² CAPS sub-products (or the whole
/// solve when n is odd or small).
double dist_local(ConstMatrixView a, ConstMatrixView b, Ledger& ledger) {
  const std::size_t n = a.rows();
  if (n % 2 != 0 || n <= kDistributeThreshold) {
    linalg::Matrix lc(n, n);
    Ledger::Scope span(ledger, "dist.local");
    capow::capsalg::multiply(a, b, lc.view());
    return span.stop();
  }
  const std::size_t h = n / 2;
  const linalg::Matrix la = leading_block(a, h), lb = leading_block(b, h);
  linalg::Matrix lc(h, h);
  Ledger::Scope span(ledger, "dist.local");
  for (int product = 0; product < 4; ++product) {
    capow::capsalg::multiply(la.view(), lb.view(), lc.view());
  }
  return span.stop();
}

struct RecorderTotals {
  std::uint64_t flops = 0;
  std::uint64_t leases = 0;
};

/// Runs fn under a fresh trace::Recorder and returns its flop count and
/// the process arena's acquire delta.
template <typename Fn>
RecorderTotals recorded(capow::trace::Recorder& rec, Fn&& fn) {
  rec.reset();
  blas::WorkspaceArena& arena = blas::WorkspaceArena::process_arena();
  const std::uint64_t before = arena.stats().acquires;
  {
    capow::trace::RecordingScope scope(rec);
    fn();
  }
  return {rec.total().flops, arena.stats().acquires - before};
}

bool close_to(ConstMatrixView x, ConstMatrixView y) {
  return largest_abs_diff(x, y) <= 1e-9 * static_cast<double>(x.rows());
}

}  // namespace

struct LayerProbes::Resources {
  capow::tasking::ThreadPool inline_pool{0};
  blas::WorkspaceArena arena;  // packing/kernel probe buffers
  capow::trace::Recorder recorder;
};

LayerProbes::LayerProbes()
    : predictor_(capow::serve::ServeOptions{}.machine,
                 capow::serve::ServeOptions{}.threads),
      server_(std::make_unique<capow::serve::Server>(
          capow::serve::ServeOptions{})),
      world2_(std::make_unique<capow::dist::World>(2)),
      res_(std::make_unique<Resources>()) {}

LayerProbes::~LayerProbes() = default;

AlgorithmId LayerProbes::serve_choice(std::size_t n) {
  return predictor_.choose(n, false).algorithm;
}

double LayerProbes::predicted_s(AlgorithmId algorithm, std::size_t n) {
  return predictor_.predict(algorithm, n).seconds;
}

void LayerProbes::replay(const Op& op, ConstMatrixView a, ConstMatrixView b,
                         ConstMatrixView c, linalg::Matrix& scratch,
                         bool reverse, Ledger& ledger, LayerSample& s) {
  const std::size_t n = op.n;
  const MatrixView out = packed(scratch, n);
  const AlgorithmId algorithm =
      op.kind == Kind::kServe ? serve_choice(n) : algorithm_of(op.kind);
  abft::AbftConfig cfg;
  cfg.mode = op.kind == Kind::kServe && op.guaranteed ? abft::AbftMode::kCorrect
                                                     : abft::AbftMode::kOff;
  const auto check = [&] { s.replay_ok = s.replay_ok && close_to(out, c); };

  // matmul(), the algorithm's entry point and serve_one() are all
  // replayed, even where one of them was the end-to-end call: the
  // per-layer differences then compare calls made back to back on warm
  // operands, not a replay against the first, colder call.
  std::vector<std::function<void()>> steps;
  steps.emplace_back([&] {
    capow::MatmulOptions mo;
    mo.algorithm = algorithm;
    mo.abft = cfg;
    Ledger::Scope span(ledger, "api.matmul");
    capow::matmul(a, b, out, mo);
    s.matmul_s = span.stop();
    check();
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "api.direct");
    switch (algorithm) {
      case AlgorithmId::kOpenBlas:
        abft::guarded_gemm(a, b, out, blas::GemmOptions{}, cfg);
        break;
      case AlgorithmId::kStrassen: {
        capow::strassen::StrassenOptions so;
        so.abft = cfg;
        capow::strassen::multiply(a, b, out, so);
        break;
      }
      case AlgorithmId::kCaps: {
        capow::capsalg::CapsOptions co;
        co.abft = cfg;
        capow::capsalg::multiply(a, b, out, co);
        break;
      }
    }
    s.direct_s = span.stop();
    check();
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "blas.gemm");
    blas::gemm(a, b, out);
    s.gemm_s = span.stop();
    check();
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "blas.pack");
    s.pack_s = pack_sweep(a, b, res_->arena);
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "blas.microkernel");
    s.kernel_gflops = kernel_gflops(a, b, res_->arena);
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "strassen");
    const RecorderTotals t = recorded(res_->recorder, [&] {
      capow::strassen::multiply(a, b, out);
    });
    s.strassen_s = span.stop();
    s.recursion_flops += t.flops;
    s.recursion_nominal += 2 * n * n * n;
    s.strassen_leases = t.leases;
    check();
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "caps");
    const RecorderTotals t = recorded(res_->recorder, [&] {
      capow::capsalg::multiply(a, b, out, {}, nullptr, &s.caps);
    });
    s.caps_s = span.stop();
    s.recursion_flops += t.flops;
    s.recursion_nominal += 2 * n * n * n;
    s.caps_leases = t.leases;
    check();
  });
  steps.emplace_back([&] {
    const std::size_t levels = capow::strassen::recursion_levels(n, kCutoff);
    const std::size_t m =
        linalg::pad_dimension_for_recursion(n, kCutoff) >> levels;
    std::uint64_t products = 1;
    for (std::size_t l = 0; l < levels; ++l) products *= 7;
    s.strassen_base_products = products;
    Ledger::Scope span(ledger, "recursion.base");
    s.base_call_s = per_call(
        [&] {
          capow::strassen::base_gemm(a.block(0, 0, m, m), b.block(0, 0, m, m),
                                     out.block(0, 0, m, m));
        },
        0.001);
  });
  steps.emplace_back([&] {
    const std::vector<std::size_t> sizes = lease_sizes(algorithm, n);
    Ledger::Scope span(ledger, "arena.lease");
    s.lease_s = lease_probe(sizes);
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "tasking.spawn");
    s.spawn_s = spawn_probe(res_->inline_pool);
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "abft.guard");
    const abft::AbftGuard guard(a, b, blas::WorkspaceArena::process_arena(),
                                abft::AbftConfig{}.tolerance);
    const bool ok = guard.verify(c).ok;
    s.guard_s = span.stop();
    s.replay_ok = s.replay_ok && ok;
  });
  steps.emplace_back([&] {
    // A capowd request lets the service choose; any other op pins the
    // algorithm it ran, so serve_one() and matmul() do the same multiply.
    capow::serve::Request req = request_for(op);
    req.id = next_request_id_++;
    if (op.kind != Kind::kServe) req.algorithm = algorithm;
    Ledger::Scope span(ledger, "serve.serve_one");
    const bool done = server_->serve_one(req, a, b, out) ==
                      capow::serve::Outcome::kCompleted;
    s.serve_one_s = span.stop();
    s.replay_ok = s.replay_ok && done;
    check();
  });
  steps.emplace_back([&] {
    Ledger::Scope span(ledger, "dist.dist_caps");
    run_dist_caps(*world2_, a, b, out);
    s.dist_op_s = span.stop();
    const capow::dist::CommMatrix& cm = world2_->comm_stats();
    s.dist_messages = cm.total_messages();
    s.dist_bytes = cm.total_payload_bytes();
    s.dist_retransmits = cm.total_retransmits();
    check();
  });
  steps.emplace_back([&] { s.dist_local_s = dist_local(a, b, ledger); });

  if (reverse) std::reverse(steps.begin(), steps.end());
  Ledger::Scope span(ledger, "replay");
  for (auto& step : steps) step();
}

}  // namespace perfbench
