#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>

#include "capow/api/matmul.hpp"
#include "capow/harness/telemetry_export.hpp"
#include "capow/machine/machine.hpp"
#include "capow/tasking/parallel_for.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/telemetry/export.hpp"
#include "capow/telemetry/ring.hpp"
#include "capow/telemetry/tracer.hpp"

namespace {

using namespace capow;
using telemetry::EventKind;
using telemetry::EventRecord;
using telemetry::EventRing;
using telemetry::SpanScope;
using telemetry::TraceEvent;
using telemetry::Tracer;
using telemetry::TracingScope;

EventRecord make_record(const char* name, std::uint64_t t) {
  EventRecord r;
  r.name = name;
  r.category = "test";
  r.t_begin_ns = t;
  r.t_end_ns = t + 1;
  return r;
}

TEST(EventRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 8u);
  EXPECT_EQ(EventRing(9).capacity(), 16u);
  EXPECT_EQ(EventRing(64).capacity(), 64u);
}

TEST(EventRing, RetainsAllWhenUnderCapacity) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(make_record("e", i));
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap[i].t_begin_ns, i);
  }
}

TEST(EventRing, WraparoundKeepsNewestAndCountsDropped) {
  EventRing ring(8);  // capacity exactly 8
  for (std::uint64_t i = 0; i < 20; ++i) ring.push(make_record("e", i));
  EXPECT_EQ(ring.pushed(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest retained first: records 12..19.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(snap[i].t_begin_ns, 12 + i);
  }
}

TEST(Interning, SameStringSamePointer) {
  const char* a = telemetry::intern("telemetry_test.interned");
  const char* b = telemetry::intern(std::string("telemetry_test.intern") +
                                    "ed");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "telemetry_test.interned");
  EXPECT_NE(a, telemetry::intern("telemetry_test.other"));
}

TEST(SpanScope, InactiveWithoutTracer) {
  ASSERT_EQ(Tracer::active(), nullptr);
  SpanScope span("telemetry_test.orphan", "test");
  EXPECT_FALSE(span.active());
}

TEST(Tracer, CollectsSpansInstantsAndCounters) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    {
      SpanScope span("telemetry_test.outer", "test", "depth",
                     std::int64_t{1});
      SpanScope inner("telemetry_test.inner", "test");
      EXPECT_TRUE(span.active());
      EXPECT_TRUE(inner.active());
    }
    telemetry::instant("telemetry_test.mark", "test");
    telemetry::counter("telemetry_test.value", 42.5);
  }
  const auto events = tracer.collect();
  bool saw_outer = false, saw_inner = false, saw_mark = false,
       saw_counter = false;
  for (const auto& e : events) {
    const std::string name = e.rec.name;
    if (name == "telemetry_test.outer") {
      saw_outer = true;
      EXPECT_EQ(e.rec.kind, EventKind::kSpan);
      EXPECT_GE(e.rec.t_end_ns, e.rec.t_begin_ns);
      ASSERT_STREQ(e.rec.arg_name[0], "depth");
      EXPECT_EQ(e.rec.arg[0], 1);
    } else if (name == "telemetry_test.inner") {
      saw_inner = true;
    } else if (name == "telemetry_test.mark") {
      saw_mark = true;
      EXPECT_EQ(e.rec.kind, EventKind::kInstant);
    } else if (name == "telemetry_test.value") {
      saw_counter = true;
      EXPECT_EQ(e.rec.kind, EventKind::kCounter);
      EXPECT_DOUBLE_EQ(e.rec.value, 42.5);
    }
  }
  EXPECT_TRUE(saw_outer && saw_inner && saw_mark && saw_counter);
}

TEST(Tracer, NestedSpansCloseInOrder) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    SpanScope outer("telemetry_test.nest_outer", "test");
    {
      SpanScope inner("telemetry_test.nest_inner", "test");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  const auto events = tracer.collect();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    const std::string name = e.rec.name;
    if (name == "telemetry_test.nest_outer") outer = &e;
    if (name == "telemetry_test.nest_inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Inner nests inside outer on the timeline.
  EXPECT_LE(outer->rec.t_begin_ns, inner->rec.t_begin_ns);
  EXPECT_GE(outer->rec.t_end_ns, inner->rec.t_end_ns);
}

TEST(Tracer, MultiThreadSpansCarryDistinctTidsAndSortByTime) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 16; ++i) {
          SpanScope span("telemetry_test.mt_work", "test");
          std::this_thread::yield();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto events = tracer.collect();
  std::set<std::uint64_t> tids;
  std::uint64_t last_begin = 0;
  std::size_t work_spans = 0;
  for (const auto& e : events) {
    EXPECT_GE(e.rec.t_begin_ns, tracer.start_ns());
    EXPECT_GE(e.rec.t_begin_ns, last_begin);  // sorted by begin time
    last_begin = e.rec.t_begin_ns;
    if (std::string(e.rec.name) == "telemetry_test.mt_work") {
      ++work_spans;
      tids.insert(e.tid);
    }
  }
  EXPECT_EQ(work_spans, 64u);
  EXPECT_EQ(tids.size(), 4u);  // one ring per thread, distinct ids
}

TEST(Tracer, SessionFiltersOutEarlierEvents) {
  {
    Tracer first;
    TracingScope scope(first);
    SpanScope span("telemetry_test.stale", "test");
  }
  Tracer second;
  {
    TracingScope scope(second);
    SpanScope span("telemetry_test.fresh", "test");
  }
  bool saw_stale = false, saw_fresh = false;
  for (const auto& e : second.collect()) {
    const std::string name = e.rec.name;
    if (name == "telemetry_test.stale") saw_stale = true;
    if (name == "telemetry_test.fresh") saw_fresh = true;
  }
  EXPECT_FALSE(saw_stale);
  EXPECT_TRUE(saw_fresh);
}

TEST(TelemetryMacros, EmitSpansUnderActiveTracer) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    {
      SpanScope span("telemetry_test.macro_span", "test");
      SpanScope args("telemetry_test.macro_args", "test", "a", 3, "b", 4);
    }
    telemetry::instant("telemetry_test.macro_instant", "test");
    telemetry::counter("telemetry_test.macro_counter", 7.0);
  }
  std::set<std::string> names;
  for (const auto& e : tracer.collect()) names.insert(e.rec.name);
  EXPECT_TRUE(names.count("telemetry_test.macro_span"));
  EXPECT_TRUE(names.count("telemetry_test.macro_args"));
  EXPECT_TRUE(names.count("telemetry_test.macro_instant"));
  EXPECT_TRUE(names.count("telemetry_test.macro_counter"));
}

TEST(TelemetryMacros, ThreadPoolTasksAreTraced) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    tasking::ThreadPool pool(2);
    tasking::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.run([] {});
    }
    group.wait();
  }
  std::size_t runs = 0, waits = 0;
  for (const auto& e : tracer.collect()) {
    const std::string name = e.rec.name;
    if (name == "task.run" || name == "task.run.help") ++runs;
    if (name == "taskgroup.wait") ++waits;
  }
  EXPECT_GE(runs, 8u);
  EXPECT_GE(waits, 1u);
}

TEST(JsonObject, FieldTypesAndEscaping) {
  telemetry::JsonObject o;
  o.field("s", "a\"b\\c\n")
      .field("d", 1.5)
      .field("i", std::int64_t{-3})
      .field("u", std::uint64_t{7})
      .field("b", true)
      .raw("arr", "[1,2]");
  EXPECT_EQ(o.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"d\":1.5,\"i\":-3,\"u\":7,"
            "\"b\":true,\"arr\":[1,2]}");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(telemetry::json_escape(std::string_view("a\x01z", 3)),
            "a\\u0001z");
  EXPECT_EQ(telemetry::json_escape("t\tr\r"), "t\\tr\\r");
}

TEST(ChromeTraceWriter, EmitsWellFormedEventObjects) {
  telemetry::ChromeTraceWriter w;
  w.set_process_name(1, "proc");
  w.set_thread_name(1, 2, "thr");
  w.add_complete(1, 2, "span", "cat", 10.0, 5.0, {{"x", 1.0}});
  w.add_instant(1, 2, "mark", "cat", 11.0);
  w.add_counter(1, "power", 12.0, {{"package", 30.0}, {"pp0", 20.0}});
  EXPECT_EQ(w.event_count(), 5u);
  const std::string out = w.str();
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":5.000"), std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"package\":30,\"pp0\":20}"),
            std::string::npos);
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ChromeTraceWriter, ConvertsCollectedTracerEvents) {
  Tracer tracer;
  {
    TracingScope scope(tracer);
    SpanScope span("telemetry_test.exported", "test", "n",
                   std::int64_t{256});
    telemetry::counter("telemetry_test.exported_counter", 9.0);
  }
  telemetry::ChromeTraceWriter w;
  w.add_events(tracer.collect(), 1, tracer.start_ns());
  const std::string out = w.str();
  EXPECT_NE(out.find("telemetry_test.exported"), std::string::npos);
  EXPECT_NE(out.find("\"n\":256"), std::string::npos);
  EXPECT_NE(out.find("\"value\":9"), std::string::npos);
}

TEST(MetricsRegistry, TextExpositionShape) {
  telemetry::MetricsRegistry reg;
  reg.family("capow_test_metric", "A test metric", "gauge")
      .sample({{"algorithm", "CAPS"}, {"n", "512"}}, 1.25)
      .sample({{"algorithm", "CAPS"}, {"n", "1024"}}, 2.5);
  reg.set("capow_test_total", "A counter", {}, 3.0, "counter");
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("# HELP capow_test_metric A test metric"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE capow_test_metric gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("capow_test_metric{algorithm=\"CAPS\",n=\"512\"} 1.25"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE capow_test_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("capow_test_total 3"), std::string::npos);
}

TEST(MetricsRegistry, LaterSampleOverwrites) {
  telemetry::MetricsRegistry reg;
  reg.family("m", "").sample({{"k", "v"}}, 1.0).sample({{"k", "v"}}, 2.0);
  EXPECT_NE(reg.to_text().find("m{k=\"v\"} 2"), std::string::npos);
  EXPECT_EQ(reg.to_text().find("m{k=\"v\"} 1"), std::string::npos);
}

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.sizes = {64, 128};
  cfg.thread_counts = {1, 2};
  cfg.quiesce_seconds = 0.0;
  return cfg;
}

TEST(HarnessExport, WorkProfileMatchesRunOneSwitch) {
  const auto cfg = small_config();
  for (auto a : core::kAllAlgorithms) {
    const auto profile =
        matmul_profile(128, cfg.machine, 2, {.algorithm = a});
    EXPECT_FALSE(profile.phases.empty());
    EXPECT_GT(profile.total_flops(), 0.0);
  }
}

TEST(HarnessExport, ChromeTraceCoversEveryRunWithPowerTrack) {
  harness::ExperimentRunner runner(small_config());
  std::ostringstream os;
  harness::export_chrome_trace(runner, os);
  const std::string out = os.str();
  // 3 algorithms x 2 sizes x 2 thread counts = 12 run processes.
  for (const char* alg : {"OpenBLAS", "Strassen", "CAPS"}) {
    for (const char* n : {"64", "128"}) {
      for (const char* t : {"1", "2"}) {
        const std::string label =
            std::string(alg) + " n=" + n + " t=" + t;
        EXPECT_NE(out.find(label), std::string::npos) << label;
      }
    }
  }
  EXPECT_NE(out.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"power_w\""), std::string::npos);
  EXPECT_NE(out.find("\"package\":"), std::string::npos);
  EXPECT_NE(out.find("\"pp0\":"), std::string::npos);
}

TEST(HarnessExport, JsonlHasOneRecordPerRun) {
  harness::ExperimentRunner runner(small_config());
  std::ostringstream os;
  harness::export_jsonl(runner, os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"algorithm\":"), std::string::npos);
    EXPECT_NE(line.find("\"ep_w_per_s\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 12u);
}

TEST(HarnessExport, MetricsLabelEveryConfiguration) {
  harness::ExperimentRunner runner(small_config());
  std::ostringstream os;
  harness::export_metrics(runner, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE capow_run_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE capow_flops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("capow_package_watts{algorithm=\"Strassen\","
                      "n=\"128\",threads=\"2\"}"),
            std::string::npos);
  EXPECT_NE(text.find("capow_ep_watts_per_second{algorithm=\"CAPS\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Dropped-event accounting

TEST(DroppedEvents, TotalGrowsWhenARingWrapsAndIsMonotonic) {
  const std::uint64_t before = telemetry::total_dropped_events();

  constexpr std::size_t kPushed = 2 * telemetry::kRingCapacity;
  Tracer tracer;
  std::uint64_t session_dropped = 0;
  {
    TracingScope scope(tracer);
    // A fresh thread registers an empty ring; pushing twice its capacity
    // in spans must shed the older half.
    std::thread worker([] {
      for (std::size_t i = 0; i < kPushed; ++i) {
        telemetry::SpanScope span("drop.me", "test");
      }
    });
    worker.join();
    session_dropped = tracer.dropped();
  }

  const std::uint64_t after = telemetry::total_dropped_events();
  EXPECT_GE(session_dropped, kPushed - telemetry::kRingCapacity);
  EXPECT_GE(after - before, session_dropped);
  EXPECT_GE(telemetry::total_dropped_events(), after);  // monotonic
}

}  // namespace
