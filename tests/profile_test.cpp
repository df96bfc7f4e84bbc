#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "capow/core/ep_model.hpp"
#include "capow/harness/experiment.hpp"
#include "capow/harness/telemetry_export.hpp"
#include "capow/profile/attribution.hpp"
#include "capow/profile/ep_phases.hpp"
#include "capow/telemetry/tracer.hpp"

namespace {

using namespace capow;
using profile::AttributionInput;
using profile::attribute;
using profile::Plane;
using profile::PowerSlice;
using profile::Profile;
using profile::ProfileNode;

constexpr auto kPkg = static_cast<std::size_t>(Plane::kPackage);
constexpr auto kPp0 = static_cast<std::size_t>(Plane::kPp0);

telemetry::TraceEvent span(std::uint64_t tid, const char* name,
                           std::uint64_t begin_ns, std::uint64_t end_ns) {
  telemetry::TraceEvent e;
  e.tid = tid;
  e.rec.name = name;
  e.rec.category = "test";
  e.rec.t_begin_ns = begin_ns;
  e.rec.t_end_ns = end_ns;
  e.rec.kind = telemetry::EventKind::kSpan;
  return e;
}

PowerSlice slice(std::uint64_t begin_ns, std::uint64_t end_ns,
                 double package_w, double pp0_w) {
  PowerSlice s;
  s.t_begin_ns = begin_ns;
  s.t_end_ns = end_ns;
  s.watts[kPkg] = package_w;
  s.watts[kPp0] = pp0_w;
  return s;
}

/// Conservation: Σ self + untracked == integrated timeline, per plane,
/// within an ulp-scaled tolerance.
void expect_conserved(const Profile& p) {
  for (std::size_t pl = 0; pl < profile::kPlaneCount; ++pl) {
    const double integrated = p.plane_total_j[pl];
    const double attributed = p.attributed_j(static_cast<Plane>(pl));
    const double tol = 1e-12 * std::max(1.0, std::abs(integrated));
    EXPECT_NEAR(attributed, integrated, tol)
        << "plane " << profile::plane_name(static_cast<Plane>(pl));
  }
}

// ---------------------------------------------------------------------------
// attribute(): core math

TEST(Attribution, SingleSpanFullyCoveredGetsWholeIntegral) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 1'000'000));  // 1 ms
  in.slices.push_back(slice(0, 1'000'000, 20.0, 12.0));
  const Profile p = attribute(in);

  ASSERT_EQ(p.root.children.size(), 1u);
  const ProfileNode& w = p.root.children[0];
  EXPECT_EQ(w.name, "work");
  EXPECT_EQ(w.count, 1u);
  EXPECT_EQ(w.self_ns, 1'000'000u);
  EXPECT_EQ(w.total_ns, 1'000'000u);
  // 20 W * 1 ms = 20 mJ package, 12 mJ pp0.
  EXPECT_NEAR(w.self_j[kPkg], 0.020, 1e-15);
  EXPECT_NEAR(w.self_j[kPp0], 0.012, 1e-15);
  EXPECT_DOUBLE_EQ(p.untracked_j[kPkg], 0.0);
  EXPECT_EQ(p.untracked_ns, 0u);
  expect_conserved(p);
}

TEST(Attribution, NestedSpansSplitSelfAndTotal) {
  AttributionInput in;
  in.events.push_back(span(0, "parent", 0, 1000));
  in.events.push_back(span(0, "child", 250, 750));
  in.slices.push_back(slice(0, 1000, 10.0, 5.0));
  const Profile p = attribute(in);

  const ProfileNode* parent = p.root.child("parent");
  ASSERT_NE(parent, nullptr);
  const ProfileNode* child = parent->child("child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->self_ns, 500u);
  EXPECT_EQ(parent->total_ns, 1000u);
  EXPECT_EQ(child->self_ns, 500u);
  // 10 W over 1 us total = 1e-5 J; half each.
  EXPECT_NEAR(child->self_j[kPkg], 5e-6, 1e-18);
  EXPECT_NEAR(parent->self_j[kPkg], 5e-6, 1e-18);
  EXPECT_NEAR(parent->total_j[kPkg], 1e-5, 1e-18);
  expect_conserved(p);
}

TEST(Attribution, OverlappingSpansAcrossThreadsSplitEqually) {
  // Two threads fully overlapped for [0, 1000), one alone for
  // [1000, 2000). Package power flat at 30 W.
  AttributionInput in;
  in.events.push_back(span(0, "a", 0, 2000));
  in.events.push_back(span(1, "b", 0, 1000));
  in.slices.push_back(slice(0, 2000, 30.0, 0.0));
  const Profile p = attribute(in);

  const ProfileNode* a = p.root.child("a");
  const ProfileNode* b = p.root.child("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Total integral: 30 W * 2 us = 6e-5 J. During the overlap each
  // thread gets half of 30 W * 1 us = 1.5e-5; thread 0 alone gets the
  // full 3e-5 of the second microsecond.
  EXPECT_NEAR(b->self_j[kPkg], 1.5e-5, 1e-18);
  EXPECT_NEAR(a->self_j[kPkg], 4.5e-5, 1e-18);
  // ns are thread-time, not split.
  EXPECT_EQ(a->self_ns, 2000u);
  EXPECT_EQ(b->self_ns, 1000u);
  expect_conserved(p);
}

TEST(Attribution, ThreeWaySplitIsExactThirds) {
  AttributionInput in;
  for (std::uint64_t t = 0; t < 3; ++t) {
    in.events.push_back(span(t, "w", 0, 900));
  }
  in.slices.push_back(slice(0, 900, 21.0, 0.0));
  const Profile p = attribute(in);
  const ProfileNode* w = p.root.child("w");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->count, 3u);
  // All three instances share one node; 21 W * 0.9 us, split 3 ways,
  // re-summed = the whole thing.
  EXPECT_NEAR(w->self_j[kPkg], 21.0 * 900e-9, 1e-15);
  expect_conserved(p);
}

TEST(Attribution, UntrackedBucketCollectsUnspannedTime) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 400, 600));
  in.slices.push_back(slice(0, 1000, 10.0, 4.0));
  const Profile p = attribute(in);

  // Span covers 200 of 1000 ns: 2e-6 J to the span, 8e-6 untracked.
  EXPECT_NEAR(p.root.child("work")->self_j[kPkg], 10.0 * 200e-9, 1e-18);
  EXPECT_NEAR(p.untracked_j[kPkg], 10.0 * 800e-9, 1e-18);
  EXPECT_NEAR(p.untracked_j[kPp0], 4.0 * 800e-9, 1e-18);
  EXPECT_EQ(p.untracked_ns, 800u);
  expect_conserved(p);
}

TEST(Attribution, SpanStraddlingFirstAndLastSampleAccruesNoUncoveredJoules) {
  // Power timeline covers [1000, 2000) only; the span runs [0, 3000).
  AttributionInput in;
  in.events.push_back(span(0, "long", 0, 3000));
  in.slices.push_back(slice(1000, 2000, 50.0, 25.0));
  const Profile p = attribute(in);

  const ProfileNode* l = p.root.child("long");
  ASSERT_NE(l, nullptr);
  // Full duration in ns...
  EXPECT_EQ(l->self_ns, 3000u);
  // ...but only the covered microsecond in joules.
  EXPECT_NEAR(l->self_j[kPkg], 50.0 * 1000e-9, 1e-18);
  EXPECT_NEAR(l->self_j[kPp0], 25.0 * 1000e-9, 1e-18);
  EXPECT_DOUBLE_EQ(p.untracked_j[kPkg], 0.0);
  expect_conserved(p);
}

TEST(Attribution, ZeroSampleRunYieldsNsOnlyProfile) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 5000));
  const Profile p = attribute(in);

  EXPECT_EQ(p.root.child("work")->self_ns, 5000u);
  EXPECT_DOUBLE_EQ(p.root.child("work")->self_j[kPkg], 0.0);
  EXPECT_DOUBLE_EQ(p.plane_total_j[kPkg], 0.0);
  EXPECT_EQ(p.slice_stats.count, 0u);
  expect_conserved(p);
}

TEST(Attribution, ZeroEventsStillIntegratesTimelineIntoUntracked) {
  AttributionInput in;
  in.slices.push_back(slice(0, 1'000'000, 15.0, 7.0));
  const Profile p = attribute(in);
  EXPECT_TRUE(p.root.children.empty());
  EXPECT_NEAR(p.untracked_j[kPkg], 0.015, 1e-15);
  EXPECT_NEAR(p.plane_total_j[kPp0], 0.007, 1e-15);
  expect_conserved(p);
}

TEST(Attribution, InstantsAndCountersAreIgnored) {
  AttributionInput in;
  auto instant = span(0, "mark", 500, 500);
  instant.rec.kind = telemetry::EventKind::kInstant;
  auto counter = span(0, "gauge", 600, 600);
  counter.rec.kind = telemetry::EventKind::kCounter;
  in.events.push_back(instant);
  in.events.push_back(counter);
  in.events.push_back(span(0, "work", 0, 1000));
  in.slices.push_back(slice(0, 1000, 10.0, 1.0));
  const Profile p = attribute(in);
  ASSERT_EQ(p.root.children.size(), 1u);
  EXPECT_EQ(p.root.children[0].name, "work");
  expect_conserved(p);
}

TEST(Attribution, RepeatedSpanNamesAggregate) {
  AttributionInput in;
  in.events.push_back(span(0, "iter", 0, 100));
  in.events.push_back(span(0, "iter", 200, 300));
  in.events.push_back(span(0, "iter", 400, 500));
  in.slices.push_back(slice(0, 500, 10.0, 0.0));
  const Profile p = attribute(in);
  const ProfileNode* iter = p.root.child("iter");
  ASSERT_NE(iter, nullptr);
  EXPECT_EQ(iter->count, 3u);
  EXPECT_EQ(iter->total_ns, 300u);
  EXPECT_NEAR(iter->self_j[kPkg], 10.0 * 300e-9, 1e-18);
  expect_conserved(p);
}

TEST(Attribution, MalformedChildOverlapIsClampedIntoParent) {
  // Child claims to outlive its parent; attribution clamps it.
  AttributionInput in;
  in.events.push_back(span(0, "parent", 0, 1000));
  in.events.push_back(span(0, "child", 500, 2000));
  in.slices.push_back(slice(0, 2000, 10.0, 0.0));
  const Profile p = attribute(in);
  const ProfileNode* parent = p.root.child("parent");
  ASSERT_NE(parent, nullptr);
  const ProfileNode* child = parent->child("child");
  ASSERT_NE(child, nullptr);
  // Child energy stops at the parent's end; [1000, 2000) is untracked.
  EXPECT_NEAR(child->self_j[kPkg], 10.0 * 500e-9, 1e-18);
  EXPECT_NEAR(p.untracked_j[kPkg], 10.0 * 1000e-9, 1e-18);
  expect_conserved(p);
}

TEST(Attribution, VaryingPowerIntegratesPerSlice) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 3000));
  in.slices.push_back(slice(0, 1000, 10.0, 5.0));
  in.slices.push_back(slice(1000, 2000, 20.0, 10.0));
  in.slices.push_back(slice(2000, 3000, 30.0, 15.0));
  const Profile p = attribute(in);
  EXPECT_NEAR(p.root.child("work")->self_j[kPkg], (10 + 20 + 30) * 1000e-9,
              1e-15);
  EXPECT_NEAR(p.peak_w[kPkg], 30.0, 0.0);
  EXPECT_EQ(p.slice_stats.count, 3u);
  EXPECT_NEAR(p.slice_stats.mean_seconds, 1e-6, 1e-18);
  expect_conserved(p);
}

TEST(Attribution, ConservationHoldsUnderRandomizedLoad) {
  // Fuzz: random spans on random threads, random power, seeded.
  std::mt19937 rng(20260805);
  std::uniform_int_distribution<std::uint64_t> tid_d(0, 5);
  std::uniform_int_distribution<std::uint64_t> t_d(0, 1'000'000);
  std::uniform_real_distribution<double> w_d(1.0, 80.0);
  for (int round = 0; round < 5; ++round) {
    AttributionInput in;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t b = t_d(rng);
      const std::uint64_t e = b + 1 + t_d(rng) % 50'000;
      const char* name = (i % 3 == 0) ? "alpha" : (i % 3 == 1) ? "beta"
                                                               : "gamma";
      in.events.push_back(span(tid_d(rng), name, b, e));
    }
    std::uint64_t t = 0;
    while (t < 1'100'000) {
      const std::uint64_t step = 1000 + t_d(rng) % 20'000;
      in.slices.push_back(slice(t, t + step, w_d(rng), w_d(rng)));
      t += step;
    }
    const Profile p = attribute(in);
    expect_conserved(p);
    EXPECT_GT(p.plane_total_j[kPkg], 0.0);
  }
}

// ---------------------------------------------------------------------------
// slices_from_samples

TEST(SlicesFromSamples, BuildsContiguousSlicesWithBaseOffset) {
  std::vector<profile::TimelinePoint> pts = {
      {0.001, 20.0, 10.0}, {0.002, 30.0, 15.0}};
  const auto slices = profile::slices_from_samples(pts, 500);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].t_begin_ns, 500u);
  EXPECT_EQ(slices[0].t_end_ns, 1'000'500u);
  EXPECT_EQ(slices[1].t_begin_ns, 1'000'500u);
  EXPECT_EQ(slices[1].t_end_ns, 2'000'500u);
  EXPECT_DOUBLE_EQ(slices[0].watts[kPkg], 20.0);
  EXPECT_DOUBLE_EQ(slices[1].watts[kPp0], 15.0);
}

TEST(SlicesFromSamples, SkipsNonIncreasingTimestamps) {
  std::vector<profile::TimelinePoint> pts = {
      {0.001, 20.0, 10.0}, {0.001, 99.0, 99.0}, {0.002, 30.0, 15.0}};
  const auto slices = profile::slices_from_samples(pts);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_DOUBLE_EQ(slices[1].watts[kPkg], 30.0);
}

// ---------------------------------------------------------------------------
// write_folded / write_text

TEST(FoldedOutput, EmitsStacksWithMillijouleWeights) {
  AttributionInput in;
  in.events.push_back(span(0, "parent", 0, 2'000'000));
  in.events.push_back(span(0, "child", 0, 1'000'000));
  in.slices.push_back(slice(0, 2'000'000, 10.0, 0.0));
  const Profile p = attribute(in);

  std::ostringstream os;
  profile::write_folded(p, os, profile::FoldedWeight::kMillijoules);
  // 10 W over 2 ms = 20 mJ, split 10/10 between parent-self and child.
  EXPECT_EQ(os.str(), "parent 10\nparent;child 10\n");
}

TEST(FoldedOutput, NanosecondWeightsAndPrefix) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 1500));
  const Profile p = attribute(in);

  std::ostringstream os;
  profile::write_folded(p, os, profile::FoldedWeight::kNanoseconds,
                        Plane::kPackage, "run1");
  EXPECT_EQ(os.str(), "run1;work 1500\n");
}

TEST(FoldedOutput, UntrackedEnergyAppearsAsTopLevelFrame) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 500'000));
  in.slices.push_back(slice(0, 1'000'000, 10.0, 0.0));
  const Profile p = attribute(in);

  std::ostringstream os;
  profile::write_folded(p, os, profile::FoldedWeight::kMillijoules);
  const std::string out = os.str();
  EXPECT_NE(out.find("work 5\n"), std::string::npos);
  EXPECT_NE(out.find("<untracked> 5\n"), std::string::npos);
}

TEST(FoldedOutput, ZeroWeightFramesAreSkipped) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 0, 1000));
  const Profile p = attribute(in);  // no power -> zero mJ everywhere
  std::ostringstream os;
  profile::write_folded(p, os, profile::FoldedWeight::kMillijoules);
  EXPECT_TRUE(os.str().empty());
}

TEST(TextOutput, ContainsLedgerSamplingAndSpanRows) {
  AttributionInput in;
  in.events.push_back(span(0, "work", 400, 600));
  in.slices.push_back(slice(0, 1000, 10.0, 4.0));
  const Profile p = attribute(in);

  std::ostringstream os;
  profile::write_text(p, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("plane"), std::string::npos);
  EXPECT_NE(out.find("package"), std::string::npos);
  EXPECT_NE(out.find("pp0"), std::string::npos);
  EXPECT_NE(out.find("sampling:"), std::string::npos);
  EXPECT_NE(out.find("work"), std::string::npos);
  EXPECT_NE(out.find("<untracked>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ep_phases

TEST(EpPhases, PhaseEnergiesComputeEqOneFromSelfTimeAndEnergy) {
  AttributionInput in;
  in.events.push_back(span(0, "compute", 0, 1'000'000));
  in.events.push_back(span(0, "comm", 1'000'000, 3'000'000));
  in.slices.push_back(slice(0, 3'000'000, 12.0, 6.0));
  const Profile p = attribute(in);

  const auto phases = profile::phase_energies(p, Plane::kPackage);
  ASSERT_EQ(phases.size(), 2u);
  // Sorted by name: comm, compute.
  EXPECT_EQ(phases[0].phase, "comm");
  EXPECT_EQ(phases[1].phase, "compute");
  EXPECT_NEAR(phases[1].seconds, 1e-3, 1e-12);
  EXPECT_NEAR(phases[1].watts, 12.0, 1e-9);
  EXPECT_NEAR(phases[1].ep, 12.0 / 1e-3, 1e-6);
  EXPECT_NEAR(phases[0].ep, 12.0 / 2e-3, 1e-6);
}

TEST(EpPhases, ScalingFlagsSuperlinearPhase) {
  // Hand-build a 1-thread and 4-thread profile of the same two phases.
  // "good" halves EP gain with p (sublinear EP growth ~ p: ideal);
  // "hot" speeds up 4x AND draws more power: superlinear.
  auto make = [](double hot_seconds, double hot_w, double good_seconds,
                 double good_w) {
    AttributionInput in;
    const auto hot_ns = static_cast<std::uint64_t>(hot_seconds * 1e9);
    const auto good_ns = static_cast<std::uint64_t>(good_seconds * 1e9);
    in.events.push_back(span(0, "hot", 0, hot_ns));
    in.events.push_back(span(0, "good", hot_ns, hot_ns + good_ns));
    in.slices.push_back(slice(0, hot_ns, hot_w, 0.0));
    in.slices.push_back(slice(hot_ns, hot_ns + good_ns, good_w, 0.0));
    return attribute(in);
  };
  const Profile p1 = make(0.004, 20.0, 0.002, 20.0);
  // hot: 4x faster, 2x power -> EP_p/EP_1 = (2*4) = 8 > 4 superlinear.
  // good: 4x faster at equal power -> S = 4 = p, ideal.
  const Profile p4 = make(0.001, 40.0, 0.0005, 20.0);

  std::vector<std::pair<unsigned, const Profile*>> sweep = {{1u, &p1},
                                                            {4u, &p4}};
  const auto scaling = profile::phase_ep_scaling(sweep, Plane::kPackage);
  ASSERT_EQ(scaling.size(), 2u);
  EXPECT_EQ(scaling[0].phase, "good");
  EXPECT_FALSE(scaling[0].superlinear());
  EXPECT_EQ(scaling[1].phase, "hot");
  EXPECT_TRUE(scaling[1].superlinear());
  ASSERT_EQ(scaling[1].series.size(), 2u);
  EXPECT_NEAR(scaling[1].series[1].s, 8.0, 1e-6);
}

TEST(EpPhases, PhaseWithoutBaseProfileIsDropped) {
  AttributionInput in;
  in.events.push_back(span(0, "only-at-4", 0, 1000));
  in.slices.push_back(slice(0, 1000, 10.0, 0.0));
  const Profile p4 = attribute(in);
  const Profile p1 = attribute(AttributionInput{});  // empty base

  std::vector<std::pair<unsigned, const Profile*>> sweep = {{1u, &p1},
                                                            {4u, &p4}};
  EXPECT_TRUE(profile::phase_ep_scaling(sweep, Plane::kPackage).empty());
}

// ---------------------------------------------------------------------------
// Harness integration: the simulated experiment matrix profiles
// deterministically and conserves energy per configuration.

TEST(HarnessProfile, RunAttributionProfileConservesEnergy) {
  harness::ExperimentConfig config;
  for (auto algorithm : core::kAllAlgorithms) {
    const auto p = harness::run_attribution_profile(config, algorithm, 256, 2);
    EXPECT_GT(p.plane_total_j[kPkg], 0.0);
    EXPECT_FALSE(p.root.children.empty());
    for (std::size_t pl = 0; pl < profile::kPlaneCount; ++pl) {
      const double integrated = p.plane_total_j[pl];
      const double attributed = p.attributed_j(static_cast<Plane>(pl));
      EXPECT_NEAR(attributed, integrated,
                  1e-12 * std::max(1.0, std::abs(integrated)));
    }
  }
}

TEST(HarnessProfile, ExportsAreDeterministic) {
  const auto render = [] {
    harness::ExperimentConfig config;
    config.sizes = {256};
    config.thread_counts = {1, 2};
    harness::ExperimentRunner runner(config);
    runner.run();
    std::ostringstream prof, flame, ep;
    harness::export_profile(runner, prof);
    harness::export_flamegraph(runner, flame,
                               profile::FoldedWeight::kMillijoules);
    harness::export_ep_phases(runner, ep);
    return prof.str() + "\x1f" + flame.str() + "\x1f" + ep.str();
  };
  const std::string a = render();
  const std::string b = render();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("blocked-dgemm"), std::string::npos);
  EXPECT_NE(a.find("base-products"), std::string::npos);
  EXPECT_NE(a.find("\"superlinear\""), std::string::npos);
}

TEST(HarnessProfile, MetricsExportCarriesPhaseFamilies) {
  harness::ExperimentConfig config;
  config.sizes = {256};
  config.thread_counts = {1, 2};
  harness::ExperimentRunner runner(config);
  runner.run();
  std::ostringstream os;
  harness::export_metrics(runner, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("capow_phase_energy_joules{"), std::string::npos);
  EXPECT_NE(out.find("capow_phase_ep_scaling{"), std::string::npos);
  EXPECT_NE(out.find("capow_trace_dropped_events_total"), std::string::npos);
  EXPECT_NE(out.find("plane=\"pp0\""), std::string::npos);
}

}  // namespace
