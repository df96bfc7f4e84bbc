// The frame strassen::multiply and capsalg::multiply share around their
// recursions: argument validation, base-kernel resolution, the dense
// base case, peeling a border off a size that does not halve evenly,
// the end-to-end ABFT retry loop, the depth-0 guarded-product retry loop,
// the spawn-or-inline fan-out of sibling work, and the one classic step
// every Strassen node and CAPS step runs, serially or on a pool, guarded
// or not.
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
  /// Whether products at `depth` run under guarded_product(). Only the
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

/// The operands of one guarded product attempt, plus the private
/// buffers among them a compute.flip may corrupt (empty views for
/// operands that are parent quadrants or shared with sibling products).
struct AttemptOperands {
  linalg::ConstMatrixView lhs, rhs;
  linalg::MatrixView ta, tb;
};

/// Runs depth-0 product `i` into `out` under the ABFT ladder. Attempt k
/// takes its operands from prepare(k) — which re-forms them from the
/// pristine parent quadrants on a retry — snapshots their checksums
/// (ABFT on), lets compute.flip hit ta/tb, then calls
/// run(lhs, rhs, key), which computes `out` and owns its result flip
/// site. All of the attempt's flips draw under `key`, namespaced by
/// `site`, the frame's salt, i and k. A failed verification throws
/// abft::AbftError in detect mode; in correct mode the product re-runs
/// up to the frame's retry bound. `label` names the algorithm in errors.
template <typename Prepare, typename Run>
void guarded_product(const Frame& f, const char* label, std::uint64_t site,
                     int i, linalg::MatrixView out, Prepare&& prepare,
                     Run&& run) {
  const std::uint64_t product_key =
      fault::key(site, f.flip_salt, static_cast<std::uint64_t>(i));
  for (int attempt = 0;; ++attempt) {
    const AttemptOperands ops = prepare(attempt);
    std::optional<abft::AbftGuard> guard;
    if (f.abft_mode != abft::AbftMode::kOff) {
      guard.emplace(ops.lhs, ops.rhs, *f.arena, f.abft_tolerance);
    }
    const std::uint64_t key =
        fault::key(product_key, static_cast<std::uint64_t>(attempt));
    abft::inject_flip(fault::Site::kComputeFlip, fault::key(key, 1), ops.ta);
    abft::inject_flip(fault::Site::kComputeFlip, fault::key(key, 2), ops.tb);
    run(ops.lhs, ops.rhs, key);
    if (!guard || guard->verify(out).ok) return;
    f.failed_verification(
        std::string(label) + " product " + std::to_string(i + 1), attempt);
    abft::record_recomputed();
  }
}

/// Product i's operands in the classic scheme: quadrant views where the
/// scheme uses a quadrant directly, else sums in arena temporaries —
/// after the first level warms the pool, recursion levels reuse the same
/// L2/LLC-resident buffers instead of touching the allocator.
struct Operands {
  /// Forms product i's operands, releasing any earlier ones first.
  AttemptOperands form(int i,
                       const linalg::Quadrants<linalg::ConstMatrixView>& qa,
                       const linalg::Quadrants<linalg::ConstMatrixView>& qb,
                       blas::WorkspaceArena& arena, std::size_t h) {
    tb.reset();
    ta.reset();
    const scheme::Product& p = scheme::kProducts[i];
    lhs = scheme::operand(
        p.a, qa, [&] { return ta.emplace(arena, h, h).view(); },
        CountedOps{});
    rhs = scheme::operand(
        p.b, qb, [&] { return tb.emplace(arena, h, h).view(); },
        CountedOps{});
    return {lhs, rhs, ta ? ta->view() : linalg::MatrixView{},
            tb ? tb->view() : linalg::MatrixView{}};
  }

  std::optional<blas::ArenaMatrix> ta, tb;
  linalg::ConstMatrixView lhs, rhs;
};

/// The classic step over A's and B's quadrants qa, qb of size h into
/// C's quadrants qc, at `depth`: the one node Strassen and CAPS run.
/// recurse(lhs, rhs, out) computes one product into out. `workers` is
/// the pool the seven products fan out on: Strassen nodes and CAPS BFS
/// steps pass Frame::product_workers(depth), a CAPS DFS step passes
/// null. Without workers the step runs scheme::kSchedule serially with
/// one product temporary, so three h x h buffers are live per level —
/// the temporary and the operand sums of the product in flight. On a
/// pool the seven products run as tasks in kSchedule's store order, each
/// one the schedule passes through the temporary into a buffer of its
/// own, then the schedule's additions run in order; so a failing fan-out
/// throws for the product the serial schedule meets first. Either way C
/// receives the bits of evaluating kCombine left to right over the seven
/// products. At a guarded depth each product runs under
/// guarded_product(): a retry re-forms its operands from the pristine
/// parent quadrants and re-runs just that product — the finest
/// bit-identical recovery unit the recursion offers. `label` names the
/// algorithm in errors and `site` keys its flips.
template <typename Recurse>
void classic_step(const Frame& f, const char* label, std::uint64_t site,
                  const linalg::Quadrants<linalg::ConstMatrixView>& qa,
                  const linalg::Quadrants<linalg::ConstMatrixView>& qb,
                  const linalg::Quadrants<linalg::MatrixView>& qc,
                  std::size_t h, std::size_t depth,
                  tasking::ThreadPool* workers, Recurse&& recurse) {
  const auto product = [&](int i, linalg::MatrixView out) {
    Operands ops;
    if (!f.guards(depth)) {
      ops.form(i, qa, qb, *f.arena, h);
      recurse(ops.lhs, ops.rhs, out);
      return;
    }
    guarded_product(
        f, label, site, i, out,
        [&](int) { return ops.form(i, qa, qb, *f.arena, h); },
        [&](linalg::ConstMatrixView lhs, linalg::ConstMatrixView rhs,
            std::uint64_t key) {
          recurse(lhs, rhs, out);
          abft::inject_flip(fault::Site::kMemFlip, fault::key(key, 3), out);
        });
  };

  if (workers == nullptr) {
    blas::ArenaMatrix t(*f.arena, h, h);
    scheme::run_schedule(
        qc, [&](int) { return t.view(); }, product, CountedOps{});
    return;
  }
  std::array<std::optional<blas::ArenaMatrix>, 7> t;
  fan_out(workers, 7, [&](int k) {
    const int i = scheme::stored_product(k);
    const int dst = scheme::destination(i);
    product(i, dst == scheme::kT
                   ? t[i].emplace(*f.arena, h, h).view()
                   : scheme::quadrant(qc, static_cast<std::size_t>(dst)));
  });
  scheme::run_schedule(
      qc, [&](int i) { return t[i]->view(); },
      [](int, linalg::MatrixView) {}, CountedOps{});
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
