#include "capow/backend/backend.hpp"

#include <atomic>

#include "capow/backend/sim_accel.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::backend {

namespace {

std::atomic<std::uint64_t> g_fallbacks{0};

}  // namespace

const char* backend_name(BackendId id) noexcept {
  const Backend* b = BackendRegistry::instance().find(id);
  return b != nullptr ? b->name : "?";
}

BackendRegistry::BackendRegistry() {
  // The host: the paper's measurement platform, which runs every
  // algorithm and is measured on the whole socket.
  rows_[static_cast<int>(BackendId::kCpu)] = Backend{
      .id = BackendId::kCpu,
      .name = "cpu",
      .description =
          "host CPU (the paper's E3-1225 Haswell measurement platform)",
      .runs_recursions = true,
      .spec = machine::haswell_e3_1225(),
      .power_plane = machine::PowerPlane::kPackage,
      .gemm_efficiency = blas::kTunedGemmEfficiency,
  };
  // The simulated accelerator (sim_accel.hpp): dense GEMM only. Its
  // compute-die rail is PP0; board power (HBM PHYs, regulators) rides in
  // uncore_static on PACKAGE. Dense GEMM sustains a higher fraction of
  // peak on the wide, bandwidth-rich device than the 0.42 the Haswell
  // calibration hits.
  rows_[static_cast<int>(BackendId::kSimAccel)] = Backend{
      .id = BackendId::kSimAccel,
      .name = "sim_accel",
      .description =
          "simulated wide-vector accelerator (768 GF/s, 450 GB/s HBM)",
      .runs_recursions = false,
      .spec = sim_accel_spec(),
      .power_plane = machine::PowerPlane::kPP0,
      .gemm_efficiency = 0.55,
  };
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* registry = new BackendRegistry();
  return *registry;
}

const Backend& BackendRegistry::host() const noexcept {
  return rows_[static_cast<int>(BackendId::kCpu)];
}

const Backend* BackendRegistry::find(BackendId id) const noexcept {
  const int i = static_cast<int>(id);
  if (i < 0 || i >= static_cast<int>(kBackendCount)) return nullptr;
  return &rows_[i];
}

const Backend* BackendRegistry::find(std::string_view name) const noexcept {
  for (const Backend& b : all()) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

std::span<const Backend> BackendRegistry::all() const noexcept {
  return rows_;
}

DispatchDecision BackendRegistry::dispatch(BackendId requested,
                                           core::AlgorithmId op) {
  DispatchDecision d;
  d.requested = find(requested);
  if (d.requested == nullptr) d.requested = &host();
  d.chosen = d.requested;
  if (!d.requested->supports(op)) {
    d.chosen = &host();
    d.fell_back = true;
    g_fallbacks.fetch_add(1, std::memory_order_relaxed);
    telemetry::instant("backend.fallback", "backend");
  }
  return d;
}

std::uint64_t BackendRegistry::fallbacks_total() const noexcept {
  return g_fallbacks.load(std::memory_order_relaxed);
}

void BackendRegistry::reset_fallbacks() noexcept {
  g_fallbacks.store(0, std::memory_order_relaxed);
}

}  // namespace capow::backend
