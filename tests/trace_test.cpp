// Tests for the cost-instrumentation recorder.
#include "capow/trace/counters.hpp"

#include <atomic>

#include <gtest/gtest.h>

#include "capow/tasking/parallel_for.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow::trace {
namespace {

TEST(CostCounters, Accumulate) {
  CostCounters a{.flops = 10, .dram_read_bytes = 100};
  CostCounters b{.flops = 5, .dram_write_bytes = 7, .syncs = 2};
  a += b;
  EXPECT_EQ(a.flops, 15u);
  EXPECT_EQ(a.dram_read_bytes, 100u);
  EXPECT_EQ(a.dram_write_bytes, 7u);
  EXPECT_EQ(a.dram_bytes(), 107u);
  EXPECT_EQ(a.syncs, 2u);
}

TEST(Recorder, MainThreadRecordsIntoSlotZero) {
  Recorder rec;
  RecordingScope scope(rec);
  count_flops(42);
  count_dram_read(64);
  count_dram_write(32);
  count_message(8);
  count_task_spawn(3);
  count_sync();
  EXPECT_EQ(rec.slot(0).flops, 42u);
  EXPECT_EQ(rec.slot(0).dram_read_bytes, 64u);
  EXPECT_EQ(rec.slot(0).dram_write_bytes, 32u);
  EXPECT_EQ(rec.slot(0).messages, 1u);
  EXPECT_EQ(rec.slot(0).message_bytes, 8u);
  EXPECT_EQ(rec.slot(0).tasks_spawned, 3u);
  EXPECT_EQ(rec.slot(0).syncs, 1u);
  EXPECT_TRUE(rec.parallel_slots().empty());
}

TEST(Recorder, ResetClears) {
  Recorder rec;
  RecordingScope scope(rec);
  count_flops(1);
  rec.reset();
  EXPECT_EQ(rec.total(), CostCounters{});
}

TEST(Recorder, WorkersRecordIntoTheirSlots) {
  Recorder rec;
  RecordingScope scope(rec);
  tasking::ThreadPool pool(2);
  tasking::parallel_for_each(pool, 0, 1000, [&](std::size_t) {
    count_flops(1);
  });
  EXPECT_EQ(rec.total().flops, 1000u);
  // All recorded flops live in parallel slots (workers executed the body;
  // the main thread may have helped via TaskGroup::wait, landing in slot
  // 0 — allow that split but require the sum).
  std::uint64_t par = 0;
  for (const auto& s : rec.parallel_slots()) par += s.flops;
  EXPECT_EQ(par + rec.slot(0).flops, 1000u);
  EXPECT_GE(rec.max_parallel_flops(), par > 0 ? 1u : 0u);
}

TEST(RecordingScope, FreeFunctionsNoopWithoutScope) {
  EXPECT_EQ(RecordingScope::current(), nullptr);
  count_flops(5);  // must not crash
  count_dram_read(1);
  count_sync();
}

TEST(RecordingScope, InstallAndRestore) {
  Recorder rec;
  {
    RecordingScope scope(rec);
    EXPECT_EQ(RecordingScope::current(), &rec);
    count_flops(7);
    count_dram_read(3);
    count_dram_write(4);
    count_message(10);
    count_task_spawn(2);
    count_sync(3);
  }
  EXPECT_EQ(RecordingScope::current(), nullptr);
  EXPECT_EQ(rec.slot(0).flops, 7u);
  EXPECT_EQ(rec.slot(0).dram_bytes(), 7u);
  EXPECT_EQ(rec.slot(0).messages, 1u);
  EXPECT_EQ(rec.slot(0).message_bytes, 10u);
  EXPECT_EQ(rec.slot(0).tasks_spawned, 2u);
  EXPECT_EQ(rec.slot(0).syncs, 3u);
}

TEST(RecordingScope, NestedScopesRestorePrevious) {
  Recorder outer, inner;
  RecordingScope s1(outer);
  {
    RecordingScope s2(inner);
    count_flops(1);
  }
  count_flops(2);
  EXPECT_EQ(inner.total().flops, 1u);
  EXPECT_EQ(outer.total().flops, 2u);
}

TEST(Recorder, MaxParallelFlopsIgnoresSequentialSlot) {
  Recorder rec;
  RecordingScope scope(rec);
  count_flops(1000);  // slot 0
  EXPECT_EQ(rec.max_parallel_flops(), 0u);
}

TEST(Recorder, TotalSumsAllSlots) {
  Recorder rec;
  tasking::ThreadPool pool(3);
  RecordingScope scope(rec);
  tasking::parallel_for_each(pool, 0, 300, [&](std::size_t) {
    count_flops(2);
    count_dram_read(8);
  });
  count_flops(5);
  EXPECT_EQ(rec.total().flops, 605u);
  EXPECT_EQ(rec.total().dram_read_bytes, 2400u);
}

TEST(Recorder, EachSlotIsOneCacheLine) {
  // One CostCounters per slot, padded to a cache line so workers never
  // share a line: the whole recorder is kMaxSlots lines (4 KB), small
  // enough to live on the stack.
  EXPECT_EQ(alignof(Recorder), 64u);
  EXPECT_EQ(sizeof(Recorder), Recorder::kMaxSlots * 64u);
}

TEST(Recorder, ResetClearsEverySlot) {
  Recorder rec;
  RecordingScope scope(rec);
  count_flops(3);
  {
    ScopedRecorderSlot unit(0);
    count_flops(5);
    count_sync();
  }
  {
    ScopedRecorderSlot unit(1000);  // clamps to the last slot
    count_message(16);
  }
  ASSERT_EQ(rec.parallel_slots().size(), 2u);
  rec.reset();
  for (std::size_t i = 0; i < Recorder::kMaxSlots; ++i) {
    EXPECT_EQ(rec.slot(i), CostCounters{}) << "slot " << i;
  }
  EXPECT_TRUE(rec.parallel_slots().empty());
  EXPECT_EQ(rec.max_parallel_flops(), 0u);
}

TEST(Recorder, ParallelSlotsListNonEmptyUnitsInSlotOrder) {
  Recorder rec;
  RecordingScope scope(rec);
  count_flops(100);  // sequential slot, never listed
  {
    ScopedRecorderSlot unit(3);
    count_flops(30);
  }
  {
    ScopedRecorderSlot unit(0);
    count_flops(10);
  }
  {
    ScopedRecorderSlot unit(5);
    count_sync();  // a slot with no flops still counts as non-empty
  }
  const auto par = rec.parallel_slots();
  ASSERT_EQ(par.size(), 3u);
  EXPECT_EQ(par[0].flops, 10u);
  EXPECT_EQ(par[1].flops, 30u);
  EXPECT_EQ(par[2].flops, 0u);
  EXPECT_EQ(par[2].syncs, 1u);
  EXPECT_EQ(rec.max_parallel_flops(), 30u);
  EXPECT_EQ(rec.total().flops, 140u);
}

TEST(ScopedRecorderSlot, RoutesNonWorkerThreadAndRestoresOnExit) {
  Recorder rec;
  RecordingScope scope(rec);
  EXPECT_EQ(Recorder::slot_for_current_thread(), 0u);
  {
    ScopedRecorderSlot outer(2);
    EXPECT_EQ(Recorder::slot_for_current_thread(), 3u);
    count_flops(5);
    {
      ScopedRecorderSlot inner(0);
      EXPECT_EQ(Recorder::slot_for_current_thread(), 1u);
      count_flops(1);
    }
    count_flops(2);
  }
  EXPECT_EQ(Recorder::slot_for_current_thread(), 0u);
  count_flops(4);
  EXPECT_EQ(rec.slot(0).flops, 4u);
  EXPECT_EQ(rec.slot(1).flops, 1u);
  EXPECT_EQ(rec.slot(3).flops, 7u);
}

TEST(ScopedRecorderSlot, ClampsLargeUnitsAndTreatsNegativeAsSequential) {
  {
    ScopedRecorderSlot unit(1000);
    EXPECT_EQ(Recorder::slot_for_current_thread(), Recorder::kMaxSlots - 1);
  }
  {
    ScopedRecorderSlot unit(-5);
    EXPECT_EQ(Recorder::slot_for_current_thread(), 0u);
  }
  EXPECT_EQ(Recorder::slot_for_current_thread(), 0u);
}

TEST(ScopedRecorderSlot, PoolWorkersKeepTheirOwnSlot) {
  tasking::ThreadPool pool(2);
  std::atomic<int> mismatches{0};
  tasking::parallel_for_each(pool, 0, 64, [&](std::size_t) {
    const int w = tasking::ThreadPool::worker_index();
    ScopedRecorderSlot unit(40);
    // A worker's own index wins over the claim; a non-worker helping in
    // wait() takes the claimed unit.
    const std::size_t expect =
        w >= 0 ? static_cast<std::size_t>(w) + 1 : 41u;
    if (Recorder::slot_for_current_thread() != expect) ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Recorder::slot_for_current_thread(), 0u);
}

}  // namespace
}  // namespace capow::trace
