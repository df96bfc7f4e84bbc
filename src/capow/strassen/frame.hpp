// The frame strassen::multiply and capsalg::multiply share around their
// recursions: argument validation, base-kernel resolution, the dense
// base case, peeling a border off a size that does not halve evenly,
// the end-to-end ABFT retry loop, the depth-0 guarded-product retry loop,
// the spawn-or-inline fan-out of sibling work, and the one node every
// Strassen and Winograd node and every CAPS step runs, serially or on a
// pool, guarded or not.
//
// Fault-site keys stay with the callers (each site keeps its own tag),
// so a seeded fault plan draws the same flips whichever algorithm runs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "capow/abft/abft.hpp"
#include "capow/blas/microkernel.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/matrix.hpp"
#include "capow/linalg/partition.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/counted_ops.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/task_group.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/trace/counters.hpp"

namespace capow::strassen {

/// One multiply's resolved settings, shared by every recursion node.
struct Frame {
  const char* who = "";  ///< the caller, as errors name it
  std::size_t base_cutoff = 0;
  tasking::ThreadPool* pool = nullptr;
  blas::WorkspaceArena* arena = nullptr;           ///< never null
  const blas::MicroKernel* base_kernel = nullptr;  ///< null = BOTS kernel
  abft::AbftMode abft_mode = abft::AbftMode::kOff;
  double abft_tolerance = 1e-7;
  int abft_retries = 2;
  /// mem.flip/compute.flip armed by the active fault plan.
  bool flips = false;
  /// Namespaces this attempt's flip draws; the end-to-end retry loop
  /// advances it so a re-run re-draws its faults deterministically
  /// instead of re-firing the identical flip.
  std::uint64_t flip_salt = 0;

  /// The pool when it has more than one worker to fan out onto.
  tasking::ThreadPool* workers() const noexcept {
    return pool != nullptr && pool->concurrency() > 1 ? pool : nullptr;
  }
  /// The pool a node at `depth` runs its seven products on as tasks:
  /// null from kTaskSpawnDepth down or without workers, where they run
  /// inline.
  tasking::ThreadPool* product_workers(std::size_t depth) const noexcept {
    return depth < kTaskSpawnDepth ? workers() : nullptr;
  }
  /// Whether products at `depth` run checksum-guarded. Only the
  /// top level is checked: per-product verification everywhere would
  /// turn the O(n^2) overhead into O(n^2 log n) for no extra coverage —
  /// a deep flip still fails its depth-0 product's checksums.
  bool guards(std::size_t depth) const noexcept {
    return depth == 0 && (abft_mode != abft::AbftMode::kOff || flips);
  }
  /// The dense base case: the packed registry kernel when one was
  /// resolved, else the BOTS loop kernel.
  void base(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            linalg::MatrixView c) const;
  /// After attempt `attempt` at `what` failed verification: throws
  /// abft::AbftError in detect mode or once the retry bound is spent.
  void failed_verification(const std::string& what, int attempt) const;
};

/// Validates a square multiply and resolves its frame. The base kernel
/// comes from resolve_base_kernel (strassen.hpp); a null arena leases
/// from blas::active_arena(). `who` names the caller in errors:
/// std::invalid_argument for non-square or mismatched operands, a C
/// that shares storage with A or B, and a zero cutoff,
/// std::runtime_error for a base kernel this CPU cannot run.
Frame open_frame(const char* who, linalg::ConstMatrixView a,
                 linalg::ConstMatrixView b, linalg::ConstMatrixView c,
                 std::size_t base_cutoff,
                 std::optional<blas::MicroKernelId> base_kernel,
                 blas::WorkspaceArena* arena, const abft::AbftConfig& abft,
                 tasking::ThreadPool* pool);

/// Runs fn(0) .. fn(count - 1): one task each on `pool`, joined before
/// returning, or inline when `pool` is null. On the pool, a task skips
/// its work once a lower-indexed one has failed, and the exception of
/// the lowest failed index is rethrown. So when failure does not depend
/// on timing (guarded products key every flip by product and attempt),
/// the pool throws what the inline loop throws.
template <typename Fn>
void fan_out(tasking::ThreadPool* pool, int count, Fn&& fn) {
  if (pool == nullptr) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<int> lowest_failed{count};
  tasking::TaskGroup group(*pool);
  for (int i = 0; i < count; ++i) {
    trace::count_task_spawn();
    group.run([&, i] {
      if (i > lowest_failed) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        int lowest = lowest_failed;
        while (i < lowest && !lowest_failed.compare_exchange_weak(lowest, i)) {
        }
      }
    });
  }
  group.wait();
  if (lowest_failed < count) std::rethrow_exception(errors[lowest_failed]);
  trace::count_sync();
}

/// One node of the fast recursion, over A's and B's quadrants qa, qb of
/// size h into C's quadrants qc at `depth`: the node Strassen, Winograd
/// and every CAPS step run, evaluating program `p` (scheme.hpp).
/// recurse(lhs, rhs, out) computes one product. `workers` is the pool
/// the seven products fan out on (Frame::product_workers(depth) for
/// Strassen nodes and CAPS BFS steps, null for a CAPS DFS step). Without
/// workers the program runs in order, in place, in its temporaries: three
/// h x h buffers per level for the classic scheme, two for Winograd. On
/// a pool the operand steps several products read run first; the seven
/// products then run as tasks in the program's store order, each forming
/// its own operand sums, and each the program stores into a reused
/// buffer, or that several products read, gets a buffer of its own; then
/// the combine steps run in order. So a failing fan-out throws for the
/// product the serial program meets first, and C receives the bits of
/// the program's textbook evaluation either way.
///
/// At a guarded depth attempt a of each product snapshots its operands'
/// checksums (ABFT on) and lets compute.flip strike the operands `p`
/// marks reformable and mem.flip the result, keyed by (`site`, the
/// frame's salt, product, a). A failed verification throws
/// abft::AbftError in detect mode; in correct mode the product re-runs,
/// re-forming those operands from the pristine parent quadrants, up to
/// the frame's retry bound. `label` names the algorithm in errors.
template <typename Recurse>
void node_step(const Frame& f, const scheme::Program& p, const char* label,
               std::uint64_t site,
               const linalg::Quadrants<linalg::ConstMatrixView>& qa,
               const linalg::Quadrants<linalg::ConstMatrixView>& qb,
               const linalg::Quadrants<linalg::MatrixView>& qc,
               std::size_t h, std::size_t depth,
               tasking::ThreadPool* workers, Recurse&& recurse) {
  // at[k]: the buffer holding the value step k writes.
  std::array<linalg::MatrixView, scheme::kMaxSteps> at;
  const auto in = [&](int v) -> linalg::ConstMatrixView {
    return v >= 0 ? at[v]
                  : scheme::quadrant(v >= scheme::entry(scheme::kA22) ? qa : qb,
                                     static_cast<std::size_t>((-1 - v) % 4));
  };
  const auto c_quadrant = [&](int b) {
    return scheme::quadrant(qc, static_cast<std::size_t>(b - scheme::kC11));
  };
  const auto add = [&](std::size_t k) {
    const int x = p.src[k][0];
    const bool subtract = p.steps[k].op == scheme::Step::kSub;
    if (x >= 0 && at[x].data() == at[k].data()) {
      CountedOps{}.accumulate(at[k], in(p.src[k][1]), subtract);
    } else {
      CountedOps{}.binary(in(x), in(p.src[k][1]), at[k], subtract);
    }
  };
  const auto product = [&](std::size_t k) {
    const int i = p.steps[k].product;
    const std::array<int, 2> src = p.src[k];
    const linalg::MatrixView out = at[k];
    if (!f.guards(depth)) {
      recurse(in(src[0]), in(src[1]), out);
      return;
    }
    const std::uint64_t product_key =
        fault::key(site, f.flip_salt, static_cast<std::uint64_t>(i));
    for (int attempt = 0;; ++attempt) {
      for (std::size_t q = 0; attempt > 0 && q < k; ++q) {
        if (p.reformable[q] && p.private_to(q, i)) add(q);
      }
      std::optional<abft::AbftGuard> guard;
      if (f.abft_mode != abft::AbftMode::kOff) {
        guard.emplace(in(src[0]), in(src[1]), *f.arena, f.abft_tolerance);
      }
      const std::uint64_t key =
          fault::key(product_key, static_cast<std::uint64_t>(attempt));
      for (std::uint64_t j = 0; j < 2; ++j) {
        if (src[j] >= 0 && p.reformable[src[j]]) {
          abft::inject_flip(fault::Site::kComputeFlip, fault::key(key, j + 1),
                            at[src[j]]);
        }
      }
      recurse(in(src[0]), in(src[1]), out);
      abft::inject_flip(fault::Site::kMemFlip, fault::key(key, 3), out);
      if (!guard || guard->verify(out).ok) return;
      f.failed_verification(
          std::string(label) + " product " + std::to_string(i + 1), attempt);
      abft::record_recomputed();
    }
  };

  if (workers == nullptr) {
    std::array<std::optional<blas::ArenaMatrix>, 3> temps;
    for (std::size_t k = 0; k < p.size; ++k) {
      const int d = p.steps[k].dst;
      if (d < scheme::kX) {
        at[k] = c_quadrant(d);
      } else {
        auto& t = temps[static_cast<std::size_t>(d - scheme::kX)];
        at[k] = (t ? *t : t.emplace(*f.arena, h, h)).view();
      }
      p.steps[k].op == scheme::Step::kMul ? product(k) : add(k);
    }
    return;
  }
  std::array<std::optional<blas::ArenaMatrix>, scheme::kMaxSteps> own;
  for (std::size_t k = 0; k < p.size; ++k) {
    if (p.shared(k)) {
      at[k] = own[k].emplace(*f.arena, h, h).view();
      add(k);
    }
  }
  fan_out(workers, 7, [&](int j) {
    const auto k = static_cast<std::size_t>(p.products[j]);
    const int i = p.steps[k].product;
    std::array<std::optional<blas::ArenaMatrix>, scheme::kMaxSteps> mine;
    for (std::size_t q = 0; q < k; ++q) {
      if (p.private_to(q, i)) {
        at[q] = mine[q].emplace(*f.arena, h, h).view();
        add(q);
      }
    }
    at[k] = p.first_write[k] ? c_quadrant(p.steps[k].dst)
                             : own[k].emplace(*f.arena, h, h).view();
    product(k);
  });
  for (std::size_t k = 0; k < p.size; ++k) {
    if (p.combines(k)) {
      at[k] = c_quadrant(p.steps[k].dst);
      add(k);
    }
  }
}

/// Runs root(a', b', c', salt) end to end on the leading m x m blocks
/// of the operands, m = peel_dimension(n, cutoff), which halve evenly
/// down to the base case. A border of p = n - m < 2^L rows and columns
/// takes three BOTS base products, 2(n^3 - m^3) flops, no copies and no
/// leases: C[:, m:] = A B[:, m:] and C[m:, :m] = A[m:, :] B[:, :m] beside
/// root (on a pool, as tasks next to it), then C11 += A12 B21. Then the
/// final-result mem.flip site, keyed (result_site, salt) — only the
/// end-to-end guard sees it. With ABFT on, that guard checks C and, in
/// correct mode, re-runs the whole computation under a fresh salt, up to
/// the frame's retry bound.
template <typename Root>
void run_frame(const Frame& f, std::uint64_t result_site,
               linalg::ConstMatrixView a, linalg::ConstMatrixView b,
               linalg::MatrixView c, Root&& root) {
  const std::size_t n = a.rows();
  const std::size_t m = peel_dimension(n, f.base_cutoff);
  const std::size_t p = n - m;
  const auto compute = [&](std::uint64_t salt) {
    if (p == 0) {
      root(a, b, c, salt);
    } else {
      // The three writes are disjoint, and root reads only A11 and B11.
      const linalg::MatrixView c11 = c.block(0, 0, m, m);
      fan_out(f.workers(), 3, [&](int k) {
        if (k == 0) {
          root(a.block(0, 0, m, m), b.block(0, 0, m, m), c11, salt);
        } else if (k == 1) {
          base_gemm(a, b.block(0, m, n, p), c.block(0, m, n, p));
        } else {
          base_gemm(a.block(m, 0, p, n), b.block(0, 0, n, m),
                    c.block(m, 0, p, m));
        }
      });
      base_gemm_accumulate(a.block(0, m, m, p), b.block(m, 0, p, m), c11);
    }
    if (f.flips) {
      abft::inject_flip(fault::Site::kMemFlip, fault::key(result_site, salt),
                        c);
    }
  };

  if (f.abft_mode == abft::AbftMode::kOff) {
    compute(0);
    return;
  }
  const abft::AbftGuard guard(a, b, *f.arena, f.abft_tolerance);
  for (int attempt = 0;; ++attempt) {
    compute(static_cast<std::uint64_t>(attempt));
    if (guard.verify(c).ok) return;
    f.failed_verification(std::string(f.who) + " result", attempt);
    abft::record_retried();
  }
}

}  // namespace capow::strassen
