#include "capow/backend/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "capow/backend/memory.hpp"
#include "capow/backend/sim_accel.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::backend {

namespace {

// The host device: the paper's measurement platform. Everything routes
// exactly where the pre-seam code went — process arena, full kernel
// registry, Haswell spec, PACKAGE plane — so dispatching on `cpu` is
// bit-identical (and allocation-identical) to not dispatching at all.
class CpuBackend final : public Backend {
 public:
  BackendId id() const noexcept override { return BackendId::kCpu; }
  const char* name() const noexcept override { return "cpu"; }
  const char* description() const noexcept override {
    return "host CPU (the paper's E3-1225 Haswell measurement platform)";
  }
  bool supports(core::AlgorithmId) const noexcept override { return true; }
  std::span<const blas::MicroKernel> kernels() const noexcept override {
    return blas::kernel_registry();
  }
  blas::WorkspaceArena& arena() const noexcept override {
    return AllocatorRegistry::instance().arena_for(BackendId::kCpu);
  }
  const machine::MachineSpec& device_spec() const noexcept override {
    return spec_;
  }
  machine::PowerPlane power_plane() const noexcept override {
    // The paper measures the whole socket.
    return machine::PowerPlane::kPackage;
  }
  double gemm_efficiency() const noexcept override {
    return blas::kTunedGemmEfficiency;
  }

 private:
  machine::MachineSpec spec_ = machine::haswell_e3_1225();
};

// The simulated accelerator (sim_accel.hpp). Runs dense GEMM natively
// against its own device arena and machine model; the recursive
// task-parallel algorithms are unsupported and take the fallback path.
class SimAccelBackend final : public Backend {
 public:
  BackendId id() const noexcept override { return BackendId::kSimAccel; }
  const char* name() const noexcept override { return "sim_accel"; }
  const char* description() const noexcept override {
    return "simulated wide-vector accelerator (768 GF/s, 450 GB/s HBM)";
  }
  bool supports(core::AlgorithmId op) const noexcept override {
    return op == core::AlgorithmId::kOpenBlas;
  }
  std::span<const blas::MicroKernel> kernels() const noexcept override {
    // Host arithmetic stands in for the device's — same registry, so
    // results stay bit-identical across backends by construction.
    return blas::kernel_registry();
  }
  blas::WorkspaceArena& arena() const noexcept override {
    return AllocatorRegistry::instance().arena_for(BackendId::kSimAccel);
  }
  const machine::MachineSpec& device_spec() const noexcept override {
    return spec_;
  }
  machine::PowerPlane power_plane() const noexcept override {
    // The compute-die rail of the modeled card; board power (HBM PHYs,
    // regulators) rides in uncore_static on PACKAGE.
    return machine::PowerPlane::kPP0;
  }
  double gemm_efficiency() const noexcept override {
    // Dense GEMM sustains a higher fraction of peak on the wide,
    // bandwidth-rich device than the 0.42 the Haswell calibration hits.
    return 0.55;
  }

 private:
  machine::MachineSpec spec_ = sim_accel_spec();
};

std::atomic<std::uint64_t> g_fallbacks{0};

std::string registered_names() {
  std::string names;
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    if (!names.empty()) names += ", ";
    names += backend_name(static_cast<BackendId>(i));
  }
  return names;
}

thread_local Backend* t_current_backend = nullptr;

}  // namespace

const char* backend_name(BackendId id) noexcept {
  switch (id) {
    case BackendId::kCpu:
      return "cpu";
    case BackendId::kSimAccel:
      return "sim_accel";
  }
  return "?";
}

BackendRegistry::BackendRegistry() {
  // Leaked like process_arena(): dispatch decisions captured by
  // detached threads must stay valid at exit.
  static CpuBackend* cpu = new CpuBackend();
  static SimAccelBackend* sim = new SimAccelBackend();
  backends_[static_cast<int>(BackendId::kCpu)] = cpu;
  backends_[static_cast<int>(BackendId::kSimAccel)] = sim;
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry* registry = new BackendRegistry();
  return *registry;
}

Backend& BackendRegistry::host() noexcept {
  return *backends_[static_cast<int>(BackendId::kCpu)];
}

Backend* BackendRegistry::find(BackendId id) noexcept {
  const int i = static_cast<int>(id);
  if (i < 0 || i >= static_cast<int>(kBackendCount)) return nullptr;
  return backends_[i];
}

Backend* BackendRegistry::find(std::string_view name) noexcept {
  for (Backend* b : all()) {
    if (b != nullptr && name == b->name()) return b;
  }
  return nullptr;
}

std::span<Backend* const> BackendRegistry::all() noexcept {
  return {backends_, kBackendCount};
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

std::optional<BackendId> parse_backend(std::string_view value) {
  if (value.empty() || value == "auto") return std::nullopt;
  for (std::size_t i = 0; i < kBackendCount; ++i) {
    const auto id = static_cast<BackendId>(i);
    if (value == backend_name(id)) return id;
  }
  throw std::invalid_argument("CAPOW_BACKEND: unknown backend '" +
                              std::string(value) + "' (expected auto, " +
                              registered_names() + ")");
}

std::optional<BackendId> env_backend_override() {
  static const std::optional<BackendId> parsed = [] {
    const char* value = std::getenv("CAPOW_BACKEND");
    return value != nullptr ? parse_backend(value) : std::nullopt;
  }();
  return parsed;
}

BackendId resolve_backend(std::optional<BackendId> requested) {
  if (requested.has_value()) return *requested;
  if (const auto env = env_backend_override(); env.has_value()) return *env;
  return BackendId::kCpu;
}

Backend& current_backend() noexcept {
  return t_current_backend != nullptr ? *t_current_backend
                                      : BackendRegistry::instance().host();
}

BackendScope::BackendScope(Backend& b) noexcept
    : prev_(t_current_backend), arena_scope_(b.arena()) {
  t_current_backend = &b;
}

BackendScope::~BackendScope() { t_current_backend = prev_; }

}  // namespace capow::backend
