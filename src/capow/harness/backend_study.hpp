// The heterogeneous EP study: the paper's energy-performance model
// evaluated per device class.
//
// The paper measures EP = EAvg/T (Eq 1) and S = EP_p/EP_1 (Eq 5) on one
// homogeneous Haswell box. The device table (backend/backend.hpp) makes
// the same study run *across* modelled device classes: for every
// (backend, algorithm) pair BackendRegistry decides where the op is
// modelled (an accelerator that lacks Strassen/CAPS falls back to the
// host row, counted), the algorithm's closed-form cost profile is built
// against that device, and sim::simulate derives time and per-plane
// power from its machine model — with EP read on the device's own
// power plane (host: PACKAGE, the paper's measurement; sim_accel: PP0,
// the modeled compute-die rail). Nothing is executed.
//
// Two tables come out, surfaced by `capow-report --backends`:
//   * per-backend EP rows (time, avg W on the device plane, EP, S vs
//     the same backend's 1-thread base, and how the op was dispatched),
//   * per-device Eq (9) crossover rows — where each machine balance
//     puts the Strassen/blocked break-even, and whether that problem
//     even fits in the device's memory (the paper's platform: no; the
//     bandwidth-rich accelerator: comfortably).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "capow/backend/backend.hpp"
#include "capow/core/algorithms.hpp"
#include "capow/harness/table.hpp"

namespace capow::harness {

/// Sweep configuration for the heterogeneous study.
struct BackendStudyConfig {
  std::vector<std::size_t> sizes = {512, 1024};
  std::vector<unsigned> threads = {1, 2, 4};
};

/// One simulated (backend, algorithm, n, threads) measurement.
struct BackendStudyRow {
  backend::BackendId requested{};  ///< the backend the row targeted
  backend::BackendId chosen{};     ///< where dispatch actually placed it
  bool fell_back = false;
  core::AlgorithmId algorithm{};
  std::size_t n = 0;
  unsigned threads = 0;
  double seconds = 0.0;
  double avg_power_w = 0.0;  ///< on the chosen backend's power plane
  double ep = 0.0;           ///< Eq (1) on that plane
  double scaling = 0.0;      ///< Eq (5) vs the 1-thread row (0 if absent)
};

/// Eq (9) evaluated for one device class.
struct BackendCrossoverRow {
  backend::BackendId id{};
  double peak_gflops = 0.0;
  double gemm_efficiency = 0.0;
  double y_mflops = 0.0;  ///< attained rate: peak * efficiency
  double z_mbs = 0.0;     ///< memory bandwidth
  double crossover_n = 0.0;
  bool fits_in_memory = false;
};

/// Runs the sweep over every registered backend x algorithm. Rows are
/// ordered backend-major, then algorithm, size, threads — so each
/// (backend, algorithm, n) group's 1-thread row precedes the rows whose
/// S it bases. Placement goes through BackendRegistry::dispatch, so
/// every fallback row is counted.
std::vector<BackendStudyRow> run_backend_study(const BackendStudyConfig& cfg);

/// Eq (9) rows for every registered backend.
std::vector<BackendCrossoverRow> backend_crossover_rows();

/// Formats the study as a capow-report Table
/// (backend | algorithm | dispatch | n | p | time | avg W | EP | S).
TextTable backend_ep_table(const std::vector<BackendStudyRow>& rows);

/// Formats the crossover comparison
/// (backend | peak GF/s | eff | y | z | Eq9 n | fits).
TextTable backend_crossover_table(
    const std::vector<BackendCrossoverRow>& rows);

}  // namespace capow::harness
