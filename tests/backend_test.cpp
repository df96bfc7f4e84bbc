// Tests for the capow::backend device seam: registry identity, parse /
// env / resolve rules, fallback-aware dispatch (with the golden
// bit-identity + counter contract), the per-device allocator registry,
// the ambient-arena scope machinery, and the heterogeneous EP study.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "capow/api/matmul.hpp"
#include "capow/backend/backend.hpp"
#include "capow/backend/memory.hpp"
#include "capow/backend/sim_accel.hpp"
#include "capow/core/crossover.hpp"
#include "capow/harness/backend_study.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"

namespace capow {
namespace {

using backend::AllocatorRegistry;
using backend::BackendId;
using backend::BackendRegistry;
using core::AlgorithmId;
using linalg::allclose;
using linalg::Matrix;
using linalg::random_matrix;

TEST(BackendRegistry, TwoDeviceClassesRegistered) {
  BackendRegistry& reg = BackendRegistry::instance();
  ASSERT_EQ(reg.all().size(), backend::kBackendCount);
  backend::Backend* cpu = reg.find(BackendId::kCpu);
  backend::Backend* sim = reg.find(BackendId::kSimAccel);
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(cpu->id(), BackendId::kCpu);
  EXPECT_STREQ(cpu->name(), "cpu");
  EXPECT_EQ(sim->id(), BackendId::kSimAccel);
  EXPECT_STREQ(sim->name(), "sim_accel");
  EXPECT_EQ(&reg.host(), cpu);
}

TEST(BackendRegistry, FindByName) {
  BackendRegistry& reg = BackendRegistry::instance();
  EXPECT_EQ(reg.find("cpu"), reg.find(BackendId::kCpu));
  EXPECT_EQ(reg.find("sim_accel"), reg.find(BackendId::kSimAccel));
  EXPECT_EQ(reg.find("gpu"), nullptr);
}

TEST(BackendRegistry, CapabilitiesMatchTheDesign) {
  BackendRegistry& reg = BackendRegistry::instance();
  backend::Backend& cpu = *reg.find(BackendId::kCpu);
  backend::Backend& sim = *reg.find(BackendId::kSimAccel);
  // Host runs everything; the accelerator only dense GEMM.
  for (AlgorithmId a : {AlgorithmId::kOpenBlas, AlgorithmId::kStrassen,
                        AlgorithmId::kCaps}) {
    EXPECT_TRUE(cpu.supports(a));
  }
  EXPECT_TRUE(sim.supports(AlgorithmId::kOpenBlas));
  EXPECT_FALSE(sim.supports(AlgorithmId::kStrassen));
  EXPECT_FALSE(sim.supports(AlgorithmId::kCaps));
  // Power-plane binding: socket for the host, compute die for the card.
  EXPECT_EQ(cpu.power_plane(), machine::PowerPlane::kPackage);
  EXPECT_EQ(sim.power_plane(), machine::PowerPlane::kPP0);
}

TEST(BackendRegistry, HostArenaIsTheProcessArena) {
  backend::Backend& cpu = BackendRegistry::instance().host();
  EXPECT_EQ(&cpu.arena(), &blas::WorkspaceArena::process_arena());
  backend::Backend& sim =
      *BackendRegistry::instance().find(BackendId::kSimAccel);
  EXPECT_NE(&sim.arena(), &cpu.arena());
}

TEST(BackendParse, NamesAutoAndUnknown) {
  EXPECT_EQ(backend::parse_backend("cpu"), BackendId::kCpu);
  EXPECT_EQ(backend::parse_backend("sim_accel"), BackendId::kSimAccel);
  EXPECT_EQ(backend::parse_backend("auto"), std::nullopt);
  EXPECT_EQ(backend::parse_backend(""), std::nullopt);
  try {
    backend::parse_backend("tpu");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    // The message lists what *is* registered.
    EXPECT_NE(msg.find("cpu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim_accel"), std::string::npos) << msg;
  }
}

TEST(BackendParse, ResolvePrecedence) {
  // Explicit request always wins; with neither request nor env (the
  // suite runs without CAPOW_BACKEND unless the CI matrix pins it) the
  // host is the default.
  EXPECT_EQ(backend::resolve_backend(BackendId::kSimAccel),
            BackendId::kSimAccel);
  EXPECT_EQ(backend::resolve_backend(BackendId::kCpu), BackendId::kCpu);
  const auto env = backend::env_backend_override();
  EXPECT_EQ(backend::resolve_backend(std::nullopt),
            env.value_or(BackendId::kCpu));
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

// The fallback golden contract: an unsupported op requested on
// sim_accel runs on the host, produces a bit-identical result to an
// explicit cpu-backend run, and moves the fallback counter by exactly
// one dispatch.
TEST(BackendDispatch, FallbackGoldenBitIdenticalWithCounterOne) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 21), b = random_matrix(n, n, 22);
  Matrix on_cpu(n, n), via_fallback(n, n);

  MatmulOptions opts;
  opts.algorithm = AlgorithmId::kStrassen;
  opts.backend = BackendId::kCpu;
  matmul(a.view(), b.view(), on_cpu.view(), opts);

  BackendRegistry::instance().reset_fallbacks();
  opts.backend = BackendId::kSimAccel;
  matmul(a.view(), b.view(), via_fallback.view(), opts);
  EXPECT_EQ(BackendRegistry::instance().fallbacks_total(), 1u);
  EXPECT_TRUE(allclose(via_fallback.view(), on_cpu.view(), 0.0, 0.0));
}

TEST(BackendDispatch, SimAccelGemmLeasesFromItsOwnArena) {
  blas::WorkspaceArena& device_arena =
      AllocatorRegistry::instance().arena_for(BackendId::kSimAccel);
  const blas::ArenaStats dev_before = device_arena.stats();
  const blas::ArenaStats host_before =
      blas::WorkspaceArena::process_arena().stats();

  const std::size_t n = 192;
  Matrix a = random_matrix(n, n, 51), b = random_matrix(n, n, 52);
  Matrix c(n, n);
  MatmulOptions opts;
  opts.backend = BackendId::kSimAccel;  // dense GEMM: native, no fallback
  matmul(a.view(), b.view(), c.view(), opts);

  const blas::ArenaStats dev_after = device_arena.stats();
  const blas::ArenaStats host_after =
      blas::WorkspaceArena::process_arena().stats();
  EXPECT_GT(dev_after.acquires, dev_before.acquires);
  // Packing buffers went to device memory, not the host pool.
  EXPECT_EQ(host_after.acquires, host_before.acquires);
  // Everything returned: no leases outlive the call.
  EXPECT_EQ(dev_after.outstanding_bytes, 0u);
}

TEST(ArenaScopes, ActiveArenaDefaultsToProcessArena) {
  EXPECT_EQ(&blas::active_arena(), &blas::WorkspaceArena::process_arena());
  blas::WorkspaceArena other;
  {
    blas::ArenaScope scope(other);
    EXPECT_EQ(&blas::active_arena(), &other);
    blas::WorkspaceArena inner;
    {
      blas::ArenaScope nested(inner);
      EXPECT_EQ(&blas::active_arena(), &inner);
    }
    EXPECT_EQ(&blas::active_arena(), &other);
  }
  EXPECT_EQ(&blas::active_arena(), &blas::WorkspaceArena::process_arena());
}

TEST(ArenaScopes, BackendScopeInstallsDeviceArenaAndIdentity) {
  backend::Backend& sim =
      *BackendRegistry::instance().find(BackendId::kSimAccel);
  EXPECT_EQ(&backend::current_backend(), &BackendRegistry::instance().host());
  {
    backend::BackendScope scope(sim);
    EXPECT_EQ(&backend::current_backend(), &sim);
    EXPECT_EQ(&blas::active_arena(), &sim.arena());
  }
  EXPECT_EQ(&backend::current_backend(), &BackendRegistry::instance().host());
  EXPECT_EQ(&blas::active_arena(), &blas::WorkspaceArena::process_arena());
}

TEST(ArenaScopes, ScopeIsPerThread) {
  backend::Backend& sim =
      *BackendRegistry::instance().find(BackendId::kSimAccel);
  backend::BackendScope scope(sim);
  std::atomic<bool> other_thread_saw_host{false};
  std::thread t([&] {
    other_thread_saw_host =
        &backend::current_backend() == &BackendRegistry::instance().host() &&
        &blas::active_arena() == &blas::WorkspaceArena::process_arena();
  });
  t.join();
  EXPECT_TRUE(other_thread_saw_host.load());
}

// Allocator-registry stress: concurrent checkouts across both device
// pools stay consistent, and — the PR-4 arena guarantee, preserved
// through the seam — a warmed pool serves the steady state without a
// single fresh allocation.
TEST(AllocatorRegistryStress, ConcurrentCheckoutsAcrossTwoBackends) {
  AllocatorRegistry& reg = AllocatorRegistry::instance();
  blas::WorkspaceArena& host = reg.arena_for(BackendId::kCpu);
  blas::WorkspaceArena& dev = reg.arena_for(BackendId::kSimAccel);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 200;
  const std::size_t sizes[] = {512, 4096, 16384};

  // Warm both pools with every size class each worker will request.
  std::vector<blas::WorkspaceCheckout> warm;
  for (std::size_t s : sizes) {
    for (std::size_t i = 0; i < kThreads; ++i) {
      warm.push_back(host.acquire(s));
      warm.push_back(dev.acquire(s));
    }
  }
  warm.clear();
  host.reset_stats();
  dev.reset_stats();

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t s = sizes[(w + i) % 3];
        blas::WorkspaceCheckout a = host.acquire(s);
        blas::WorkspaceCheckout b = dev.acquire(s);
        a.data()[0] = static_cast<double>(w);
        b.data()[s - 1] = static_cast<double>(i);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  const blas::ArenaStats hs = host.stats();
  const blas::ArenaStats ds = dev.stats();
  EXPECT_EQ(hs.acquires, kThreads * kIters);
  EXPECT_EQ(ds.acquires, kThreads * kIters);
  // Zero warm-path allocations: every steady-state checkout was a hit.
  EXPECT_EQ(hs.misses, 0u);
  EXPECT_EQ(ds.misses, 0u);
  EXPECT_EQ(hs.outstanding_bytes, 0u);
  EXPECT_EQ(ds.outstanding_bytes, 0u);
}

TEST(AllocatorRegistryApi, StatsAndTrimCoverEveryBackend) {
  AllocatorRegistry& reg = AllocatorRegistry::instance();
  { blas::WorkspaceCheckout c = reg.arena_for(BackendId::kSimAccel).acquire(64); }
  const auto stats = reg.stats();
  ASSERT_EQ(stats.size(), backend::kAllocatorCount);
  EXPECT_GT(stats[static_cast<int>(BackendId::kSimAccel)].acquires, 0u);
  reg.trim_all();
  EXPECT_EQ(reg.arena_for(BackendId::kSimAccel).stats().pooled_bytes, 0u);
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
