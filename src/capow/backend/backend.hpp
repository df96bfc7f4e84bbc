// capow::backend — the device table of the model-only heterogeneous
// study.
//
// The paper evaluates one homogeneous CPU; the roadmap's north star is
// the same EP model evaluated per device class. capow::matmul() always
// computes on the host, so a device here is a row, not an execution
// target: its identity, which algorithms it would run natively, and the
// machine model and RAPL-style power plane the simulator reads for it.
// run_backend_study (harness/backend_study.hpp) and
// `capow-report --backends` are its readers.
//
// BackendRegistry keeps the rows and the study's *fallback dispatch*
// decision: an op a device does not run natively is modelled on the
// host CPU row instead, counted by fallbacks_total() and marked by a
// `backend.fallback` telemetry instant, so a fallback row is never
// silent.
//
// Two device classes register: `cpu` (the paper's Haswell, measured on
// PACKAGE) and `sim_accel` (sim_accel.hpp): a simulated wide-vector
// accelerator that runs dense GEMM natively and falls back for the
// recursive algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "capow/core/algorithms.hpp"
#include "capow/machine/machine.hpp"

namespace capow::backend {

/// Identity of one registered device class.
enum class BackendId : int { kCpu = 0, kSimAccel = 1 };
inline constexpr std::size_t kBackendCount = 2;

/// Registry key of `id` ("cpu", "sim_accel"); "?" for an unknown id.
const char* backend_name(BackendId id) noexcept;

/// One device class of the study.
struct Backend {
  BackendId id{};
  const char* name = "";  ///< registry key
  const char* description = "";
  /// Whether Strassen and CAPS run natively; dense GEMM always does.
  bool runs_recursions = false;
  /// Machine model sim::simulate evaluates the device with: compute
  /// roof, memory bandwidth, cache hierarchy, power coefficients.
  machine::MachineSpec spec;
  /// The plane that carries the device's compute power — what the EP
  /// study reads as "the device's watts" (host: PACKAGE, the paper's
  /// measurement; sim_accel: PP0, the compute-die rail of the card).
  machine::PowerPlane power_plane = machine::PowerPlane::kPackage;
  /// Fraction of peak a tuned dense GEMM attains — the `y` scaling of
  /// the Eq (9) crossover study.
  double gemm_efficiency = 0.0;

  /// Whether `op` runs natively on this device. An unsupported op is
  /// not an error: BackendRegistry::dispatch falls back to the host.
  bool supports(core::AlgorithmId op) const noexcept {
    return runs_recursions || op == core::AlgorithmId::kOpenBlas;
  }
};

/// Outcome of one fallback-aware dispatch decision.
struct DispatchDecision {
  const Backend* requested = nullptr;  ///< the device the caller asked for
  const Backend* chosen = nullptr;     ///< the device the row is modelled on
  bool fell_back = false;              ///< chosen != requested
};

/// Process-wide table of registered device classes.
class BackendRegistry {
 public:
  static BackendRegistry& instance();

  /// The host CPU row — always registered, never falls back.
  const Backend& host() const noexcept;

  /// Lookup by id/name; null when not registered.
  const Backend* find(BackendId id) const noexcept;
  const Backend* find(std::string_view name) const noexcept;

  /// Every registered device, ordered by id.
  std::span<const Backend> all() const noexcept;

  /// Fallback dispatch: the requested device when it supports `op`,
  /// else the host — incrementing the process fallback counter and
  /// emitting a `backend.fallback` telemetry instant.
  DispatchDecision dispatch(BackendId requested, core::AlgorithmId op);

  /// Process-lifetime fallback count.
  std::uint64_t fallbacks_total() const noexcept;
  /// Test support: zero the fallback counter.
  void reset_fallbacks() noexcept;

 private:
  BackendRegistry();
  Backend rows_[kBackendCount];
};

}  // namespace capow::backend
