#include "capow/harness/backend_study.hpp"

#include <map>
#include <string>
#include <tuple>

#include "capow/api/matmul.hpp"
#include "capow/core/crossover.hpp"
#include "capow/core/ep_model.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/executor.hpp"

namespace capow::harness {

std::vector<BackendStudyRow> run_backend_study(
    const BackendStudyConfig& cfg) {
  std::vector<BackendStudyRow> rows;
  backend::BackendRegistry& registry = backend::BackendRegistry::instance();
  constexpr core::AlgorithmId kAlgorithms[] = {core::AlgorithmId::kOpenBlas,
                                               core::AlgorithmId::kStrassen,
                                               core::AlgorithmId::kCaps};
  // EP_1 per (requested backend, algorithm, n) — the Eq (5) base. Keyed
  // on the *requested* backend so a fallback row scales against its own
  // group's 1-thread measurement (also a fallback, same device).
  std::map<std::tuple<int, int, std::size_t>, double> ep1;

  for (const backend::Backend& b : registry.all()) {
    for (core::AlgorithmId alg : kAlgorithms) {
      // An accelerator without Strassen/CAPS falls back to the host row
      // here, moving BackendRegistry::fallbacks_total().
      const backend::DispatchDecision dec = registry.dispatch(b.id, alg);
      const machine::MachineSpec& spec = dec.chosen->spec;
      const machine::PowerPlane plane = dec.chosen->power_plane;
      for (std::size_t n : cfg.sizes) {
        for (unsigned p : cfg.threads) {
          // The device exposes at most core_count-way parallelism.
          const unsigned threads =
              p <= spec.core_count ? p : spec.core_count;
          const sim::RunResult run =
              sim::simulate(spec,
                            matmul_profile(n, spec, threads,
                                           {.algorithm = alg}),
                            threads);
          BackendStudyRow row;
          row.requested = b.id;
          row.chosen = dec.chosen->id;
          row.fell_back = dec.fell_back;
          row.algorithm = alg;
          row.n = n;
          row.threads = threads;
          row.seconds = run.seconds;
          row.avg_power_w = run.avg_power_w(plane);
          row.ep = core::energy_performance(row.avg_power_w, row.seconds);
          const auto key = std::make_tuple(static_cast<int>(b.id),
                                           static_cast<int>(alg), n);
          if (threads == 1) ep1[key] = row.ep;
          const auto base = ep1.find(key);
          row.scaling = base != ep1.end() && base->second > 0.0
                            ? core::scaling_ratio(row.ep, base->second)
                            : 0.0;
          rows.push_back(row);
        }
      }
    }
  }
  return rows;
}

std::vector<BackendCrossoverRow> backend_crossover_rows() {
  std::vector<BackendCrossoverRow> rows;
  for (const backend::Backend& b :
       backend::BackendRegistry::instance().all()) {
    const machine::MachineSpec& spec = b.spec;
    BackendCrossoverRow row;
    row.id = b.id;
    row.peak_gflops = spec.peak_flops() / 1e9;
    row.gemm_efficiency = b.gemm_efficiency;
    row.y_mflops = spec.peak_flops() * row.gemm_efficiency / 1e6;
    row.z_mbs = spec.memory.bandwidth_bytes_per_s / 1e6;
    row.crossover_n =
        core::strassen_crossover_dimension(spec, row.gemm_efficiency);
    row.fits_in_memory =
        core::crossover_fits_in_memory(spec, row.crossover_n);
    rows.push_back(row);
  }
  return rows;
}

TextTable backend_ep_table(const std::vector<BackendStudyRow>& rows) {
  TextTable t({"backend", "algorithm", "dispatch", "n", "p", "time_s",
               "avg_w", "ep_w_per_s", "s_ep"});
  for (const BackendStudyRow& r : rows) {
    t.add_row({backend::backend_name(r.requested),
               core::algorithm_name(r.algorithm),
               r.fell_back ? std::string("fallback:") +
                                 backend::backend_name(r.chosen)
                           : std::string("native"),
               std::to_string(r.n), std::to_string(r.threads),
               fmt(r.seconds, 4), fmt(r.avg_power_w, 2), fmt(r.ep, 2),
               r.scaling > 0.0 ? fmt(r.scaling, 2) : "-"});
  }
  return t;
}

TextTable backend_crossover_table(
    const std::vector<BackendCrossoverRow>& rows) {
  TextTable t({"backend", "peak_gflops", "gemm_eff", "y_mflops", "z_mbs",
               "eq9_crossover_n", "fits_in_memory"});
  for (const BackendCrossoverRow& r : rows) {
    t.add_row({backend::backend_name(r.id), fmt(r.peak_gflops, 1),
               fmt(r.gemm_efficiency, 2), fmt(r.y_mflops, 0),
               fmt(r.z_mbs, 0), fmt(r.crossover_n, 0),
               r.fits_in_memory ? "yes" : "no"});
  }
  return t;
}

}  // namespace capow::harness
