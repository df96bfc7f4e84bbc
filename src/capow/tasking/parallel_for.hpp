// parallel_for: OpenMP-style work sharing over an index range.
//
// The paper's CAPS parallelizes loops by work sharing ("loops are
// parallelized such that threaded work sharing ... can be realized");
// this is that primitive. Here blocked GEMM shares its panel loops
// through it; CAPS DFS levels run their sub-products in sequence through
// the classic step Strassen runs, without work sharing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>

#include "capow/tasking/task_group.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::tasking {

/// Chunking policy for parallel_for.
enum class Schedule {
  kStatic,   ///< contiguous near-equal chunks, one per worker
  kDynamic,  ///< grain-sized chunks claimed from a shared counter
};

/// Runs body(lo, hi) over disjoint sub-ranges covering [begin, end).
///
/// `grain` bounds the smallest chunk under dynamic scheduling and is the
/// minimum chunk under static scheduling. The calling thread participates
/// (it waits on the group, which helps execute). Exceptions propagate per
/// TaskGroup semantics.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t grain = 1,
                  Schedule schedule = Schedule::kStatic) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.concurrency();
  if (grain == 0) grain = 1;

  if (workers == 1 || n <= grain) {
    body(begin, end);
    return;
  }

  TaskGroup group(pool);
  if (schedule == Schedule::kStatic) {
    // ceil-divide into one chunk per worker, respecting the grain.
    const std::size_t chunks =
        std::min<std::size_t>(workers, (n + grain - 1) / grain);
    const std::size_t per = (n + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * per;
      const std::size_t hi = std::min(lo + per, end);
      if (lo >= hi) break;
      group.run([&body, lo, hi] { body(lo, hi); });
    }
  } else {
    auto next = std::make_shared<std::atomic<std::size_t>>(begin);
    for (std::size_t w = 0; w < workers; ++w) {
      group.run([&body, next, end, grain] {
        for (;;) {
          const std::size_t lo =
              next->fetch_add(grain, std::memory_order_relaxed);
          if (lo >= end) return;
          body(lo, std::min(lo + grain, end));
        }
      });
    }
  }
  group.wait();
}

/// Element-wise convenience overload: body(i) per index.
template <typename Body>
void parallel_for_each(ThreadPool& pool, std::size_t begin, std::size_t end,
                       Body&& body, std::size_t grain = 1,
                       Schedule schedule = Schedule::kStatic) {
  parallel_for(
      pool, begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain, schedule);
}

}  // namespace capow::tasking
