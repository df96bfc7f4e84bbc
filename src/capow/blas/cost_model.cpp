#include "capow/blas/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace capow::blas {

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

double blocked_gemm_traffic_bytes(std::size_t m, std::size_t n,
                                  std::size_t k, const BlockingParams& bp) {
  const double w = sizeof(double);
  double bytes = static_cast<double>(m) * static_cast<double>(n) * w;  // C zero-fill
  for (std::size_t jc = 0; jc < n; jc += bp.nc) {
    const std::size_t nc_cur = std::min(bp.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += bp.kc) {
      const std::size_t kc_cur = std::min(bp.kc, k - pc);
      bytes += static_cast<double>(kc_cur * nc_cur) * w;  // pack B
      for (std::size_t ic = 0; ic < m; ic += bp.mc) {
        const std::size_t mc_cur = std::min(bp.mc, m - ic);
        bytes += static_cast<double>(mc_cur * kc_cur) * w;      // pack A
        bytes += 2.0 * static_cast<double>(mc_cur * nc_cur) * w;  // C r+w
      }
    }
  }
  return bytes;
}

std::uint64_t blocked_gemm_sync_count(std::size_t n, std::size_t k,
                                      const BlockingParams& bp) {
  const std::uint64_t jc_steps = (n + bp.nc - 1) / bp.nc;
  const std::uint64_t pc_steps = (k + bp.kc - 1) / bp.kc;
  return jc_steps * pc_steps;
}

sim::WorkProfile blocked_gemm_profile(std::size_t n,
                                      const machine::MachineSpec& spec,
                                      unsigned threads) {
  // Block for the kernel blas::gemm runs when given this machine: the
  // host's choice capped at the modelled core's flops per cycle, so the
  // model never depends on a wider host ISA than `spec` has.
  const BlockingParams bp = select_blocking(spec, model_kernel(spec));
  const double w = sizeof(double);
  const double traffic = blocked_gemm_traffic_bytes(n, n, n, bp);
  const double footprint = 3.0 * static_cast<double>(n) * n * w;

  double dram_bytes;
  double cache_bytes;
  if (footprint <= static_cast<double>(spec.llc_capacity_bytes())) {
    // LLC-resident problem: only compulsory traffic (read A and B, the
    // zero-fill and final write of C) reaches DRAM.
    dram_bytes = 4.0 * static_cast<double>(n) * n * w;
    cache_bytes = std::max(traffic - dram_bytes, 0.0);
  } else {
    dram_bytes = traffic;
    cache_bytes = 0.0;
  }

  const std::size_t mblocks = (n + bp.mc - 1) / bp.mc;
  const unsigned p = std::min<unsigned>(
      {threads, spec.core_count, static_cast<unsigned>(mblocks)});
  // Static work sharing over mblocks row blocks: the critical path is the
  // worker with ceil(mblocks / p) blocks.
  const double imbalance =
      static_cast<double>((mblocks + p - 1) / p) * p /
      static_cast<double>(mblocks);

  const bool parallel = threads > 1 && mblocks > 1;
  const std::uint64_t syncs =
      parallel ? blocked_gemm_sync_count(n, n, bp) : 0;

  sim::WorkProfile wp;
  wp.name = "blocked-dgemm";
  wp.add(sim::PhaseCost{
      .label = "blocked-dgemm",
      .flops = gemm_flops(n, n, n),
      .dram_bytes = dram_bytes,
      .cache_bytes = cache_bytes,
      .parallelism = parallel ? p : 1,
      .efficiency = kTunedGemmEfficiency,
      .imbalance = std::max(imbalance, 1.0),
      .sync_events = syncs,
      .spawn_events = syncs * p,
  });
  return wp;
}

}  // namespace capow::blas
