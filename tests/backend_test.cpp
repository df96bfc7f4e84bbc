// Tests for the capow::backend device table: registry identity,
// fallback-aware dispatch, the sim_accel spec and the heterogeneous EP
// study it feeds.
#include <gtest/gtest.h>

#include <string>

#include "capow/backend/backend.hpp"
#include "capow/backend/sim_accel.hpp"
#include "capow/harness/backend_study.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow {
namespace {

using backend::BackendId;
using backend::BackendRegistry;
using core::AlgorithmId;

TEST(BackendRegistry, TwoDeviceClassesRegistered) {
  BackendRegistry& reg = BackendRegistry::instance();
  ASSERT_EQ(reg.all().size(), backend::kBackendCount);
  const backend::Backend* cpu = reg.find(BackendId::kCpu);
  const backend::Backend* sim = reg.find(BackendId::kSimAccel);
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(cpu->id, BackendId::kCpu);
  EXPECT_STREQ(cpu->name, "cpu");
  EXPECT_EQ(sim->id, BackendId::kSimAccel);
  EXPECT_STREQ(sim->name, "sim_accel");
  EXPECT_EQ(&reg.host(), cpu);
}

TEST(BackendRegistry, FindByName) {
  BackendRegistry& reg = BackendRegistry::instance();
  EXPECT_EQ(reg.find("cpu"), reg.find(BackendId::kCpu));
  EXPECT_EQ(reg.find("sim_accel"), reg.find(BackendId::kSimAccel));
  EXPECT_EQ(reg.find("gpu"), nullptr);
}

// all() is indexed by id, and every row carries what the study reads:
// a name backend_name() agrees with, a description, a valid machine
// model and a GEMM efficiency in (0, 1].
TEST(BackendRegistry, RowsAreIndexedByIdAndDescribeTheirDevice) {
  const BackendRegistry& reg = BackendRegistry::instance();
  for (std::size_t i = 0; i < reg.all().size(); ++i) {
    const backend::Backend& row = reg.all()[i];
    EXPECT_EQ(static_cast<std::size_t>(row.id), i);
    EXPECT_STREQ(backend::backend_name(row.id), row.name);
    EXPECT_FALSE(std::string(row.description).empty()) << row.name;
    EXPECT_NO_THROW(row.spec.validate()) << row.name;
    EXPECT_GT(row.gemm_efficiency, 0.0) << row.name;
    EXPECT_LE(row.gemm_efficiency, 1.0) << row.name;
  }
}

TEST(BackendRegistry, UnknownIdsFindNothing) {
  const BackendRegistry& reg = BackendRegistry::instance();
  EXPECT_EQ(reg.find(static_cast<BackendId>(-1)), nullptr);
  EXPECT_EQ(reg.find(static_cast<BackendId>(backend::kBackendCount)),
            nullptr);
  EXPECT_STREQ(backend::backend_name(static_cast<BackendId>(7)), "?");
}

TEST(BackendRegistry, CapabilitiesMatchTheDesign) {
  BackendRegistry& reg = BackendRegistry::instance();
  const backend::Backend& cpu = *reg.find(BackendId::kCpu);
  const backend::Backend& sim = *reg.find(BackendId::kSimAccel);
  // Host runs everything; the accelerator only dense GEMM.
  for (AlgorithmId a : {AlgorithmId::kOpenBlas, AlgorithmId::kStrassen,
                        AlgorithmId::kCaps}) {
    EXPECT_TRUE(cpu.supports(a));
  }
  EXPECT_TRUE(sim.supports(AlgorithmId::kOpenBlas));
  EXPECT_FALSE(sim.supports(AlgorithmId::kStrassen));
  EXPECT_FALSE(sim.supports(AlgorithmId::kCaps));
  // Power-plane binding: socket for the host, compute die for the card.
  EXPECT_EQ(cpu.power_plane, machine::PowerPlane::kPackage);
  EXPECT_EQ(sim.power_plane, machine::PowerPlane::kPP0);
}

TEST(BackendDispatch, NativeOpsStayPut) {
  BackendRegistry& reg = BackendRegistry::instance();
  const std::uint64_t before = reg.fallbacks_total();
  const auto cpu_all = reg.dispatch(BackendId::kCpu, AlgorithmId::kStrassen);
  EXPECT_FALSE(cpu_all.fell_back);
  EXPECT_EQ(cpu_all.chosen, reg.find(BackendId::kCpu));
  const auto sim_gemm =
      reg.dispatch(BackendId::kSimAccel, AlgorithmId::kOpenBlas);
  EXPECT_FALSE(sim_gemm.fell_back);
  EXPECT_EQ(sim_gemm.chosen, reg.find(BackendId::kSimAccel));
  EXPECT_EQ(reg.fallbacks_total(), before);
}

TEST(BackendDispatch, UnsupportedOpFallsBackToHostAndCounts) {
  BackendRegistry& reg = BackendRegistry::instance();
  const std::uint64_t before = reg.fallbacks_total();
  const auto dec = reg.dispatch(BackendId::kSimAccel, AlgorithmId::kCaps);
  EXPECT_TRUE(dec.fell_back);
  EXPECT_EQ(dec.requested, reg.find(BackendId::kSimAccel));
  EXPECT_EQ(dec.chosen, &reg.host());
  EXPECT_EQ(reg.fallbacks_total(), before + 1);
}

// An id that names no row is modelled on the host as asked, not as a
// fallback: only a registered device that lacks the op counts.
TEST(BackendDispatch, UnregisteredRequestIsModelledOnTheHost) {
  BackendRegistry& reg = BackendRegistry::instance();
  const std::uint64_t before = reg.fallbacks_total();
  const auto dec = reg.dispatch(static_cast<BackendId>(7), AlgorithmId::kCaps);
  EXPECT_FALSE(dec.fell_back);
  EXPECT_EQ(dec.requested, &reg.host());
  EXPECT_EQ(dec.chosen, &reg.host());
  EXPECT_EQ(reg.fallbacks_total(), before);
}

TEST(BackendDispatch, ResetFallbacksZeroesTheCounter) {
  BackendRegistry& reg = BackendRegistry::instance();
  reg.dispatch(BackendId::kSimAccel, AlgorithmId::kStrassen);
  ASSERT_GT(reg.fallbacks_total(), 0u);
  reg.reset_fallbacks();
  EXPECT_EQ(reg.fallbacks_total(), 0u);
  reg.dispatch(BackendId::kSimAccel, AlgorithmId::kStrassen);
  EXPECT_EQ(reg.fallbacks_total(), 1u);
}

// A fallback row is never silent: each one leaves a backend.fallback
// instant under an installed tracer, and a native dispatch leaves none.
TEST(BackendDispatch, FallbackMarksATelemetryInstant) {
  BackendRegistry& reg = BackendRegistry::instance();
  telemetry::Tracer tracer;
  {
    telemetry::TracingScope scope(tracer);
    reg.dispatch(BackendId::kSimAccel, AlgorithmId::kOpenBlas);
    reg.dispatch(BackendId::kCpu, AlgorithmId::kCaps);
    reg.dispatch(BackendId::kSimAccel, AlgorithmId::kCaps);
  }
  int instants = 0;
  for (const telemetry::TraceEvent& e : tracer.collect()) {
    if (std::string(e.rec.name) == "backend.fallback") {
      EXPECT_EQ(e.rec.kind, telemetry::EventKind::kInstant);
      ++instants;
    }
  }
  EXPECT_EQ(instants, 1);
}

TEST(SimAccel, SpecValidatesAndInvertsTheMachineBalance) {
  const machine::MachineSpec spec = backend::sim_accel_spec();
  EXPECT_NO_THROW(spec.validate());
  const machine::MachineSpec host = machine::haswell_e3_1225();
  // The design point: more compute, *much* more bandwidth — so the
  // flops-per-byte balance is far below the paper's platform.
  EXPECT_GT(spec.peak_flops(), host.peak_flops());
  EXPECT_LT(spec.flops_per_byte(), host.flops_per_byte() / 5.0);
}

TEST(SimAccel, CrossoverLandsOnDeviceUnlikeTheHost) {
  const auto rows = harness::backend_crossover_rows();
  ASSERT_EQ(rows.size(), backend::kBackendCount);
  const auto& cpu = rows[static_cast<int>(BackendId::kCpu)];
  const auto& sim = rows[static_cast<int>(BackendId::kSimAccel)];
  EXPECT_EQ(cpu.id, BackendId::kCpu);
  EXPECT_EQ(sim.id, BackendId::kSimAccel);
  // Bandwidth-rich balance pulls Eq (9) down by about an order of
  // magnitude; the accelerator's crossover problem trivially fits.
  EXPECT_LT(sim.crossover_n, cpu.crossover_n / 5.0);
  EXPECT_TRUE(sim.fits_in_memory);
}

TEST(BackendStudy, EmitsRowsForEveryBackendWithFallbacksMarked) {
  harness::BackendStudyConfig cfg;
  cfg.sizes = {256};
  cfg.threads = {1, 2};
  const auto rows = harness::run_backend_study(cfg);
  // 2 backends x 3 algorithms x 1 size x 2 thread counts.
  ASSERT_EQ(rows.size(), 12u);
  std::size_t native = 0, fallback = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.ep, 0.0);
    if (r.fell_back) {
      ++fallback;
      EXPECT_EQ(r.requested, BackendId::kSimAccel);
      EXPECT_EQ(r.chosen, BackendId::kCpu);
    } else {
      ++native;
    }
  }
  // Host: all 6 native; accelerator: 2 native GEMM rows, 4 fallbacks.
  EXPECT_EQ(native, 8u);
  EXPECT_EQ(fallback, 4u);
  // 1-thread rows base their own Eq (5): S == 1 exactly.
  for (const auto& r : rows) {
    if (r.threads == 1) {
      EXPECT_DOUBLE_EQ(r.scaling, 1.0);
    }
  }
}

TEST(BackendStudy, DeterministicAcrossRuns) {
  harness::BackendStudyConfig cfg;
  cfg.sizes = {512};
  cfg.threads = {1, 4};
  const auto first = harness::run_backend_study(cfg);
  const auto second = harness::run_backend_study(cfg);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seconds, second[i].seconds);
    EXPECT_EQ(first[i].ep, second[i].ep);
    EXPECT_EQ(first[i].fell_back, second[i].fell_back);
  }
}

TEST(BackendStudy, TablesCarryOneRowPerMeasurement) {
  harness::BackendStudyConfig cfg;
  cfg.sizes = {256};
  cfg.threads = {1};
  const auto rows = harness::run_backend_study(cfg);
  EXPECT_EQ(harness::backend_ep_table(rows).row_count(), rows.size());
  EXPECT_EQ(
      harness::backend_crossover_table(harness::backend_crossover_rows())
          .row_count(),
      backend::kBackendCount);
}

}  // namespace
}  // namespace capow
