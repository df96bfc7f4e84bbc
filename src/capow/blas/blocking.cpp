#include "capow/blas/blocking.hpp"

#include <algorithm>

namespace capow::blas {

namespace {

std::size_t round_down_multiple(std::size_t v, std::size_t m) {
  return std::max<std::size_t>(v / m, 1) * m;
}

}  // namespace

BlockingParams select_blocking(const machine::MachineSpec& spec,
                               const MicroKernel& kernel) {
  BlockingParams p{};
  p.mr = kernel.mr;
  p.nr = kernel.nr;

  const std::size_t l1 = spec.cache_capacity_bytes(0);
  const std::size_t l2 = spec.cache_capacity_bytes(1);
  const std::size_t llc = spec.llc_capacity_bytes();
  if (l1 == 0 || l2 == 0 || llc == 0) return default_blocking_for(kernel);

  // kc: an mr x kc A-stripe plus a kc x nr B-stripe should fit in half
  // of L1 alongside the C tile.
  const std::size_t kc_budget = l1 / 2 / (8 * (p.mr + p.nr));
  p.kc = std::clamp<std::size_t>(round_down_multiple(kc_budget, 8), 64, 512);

  // mc: packed A (mc x kc) in half of L2.
  const std::size_t mc_budget = l2 / 2 / (8 * p.kc);
  p.mc = std::clamp<std::size_t>(round_down_multiple(mc_budget, p.mr),
                                 p.mr, 512);

  // nc: packed B (kc x nc) in half of the LLC.
  const std::size_t nc_budget = llc / 2 / (8 * p.kc);
  p.nc = std::clamp<std::size_t>(round_down_multiple(nc_budget, p.nr),
                                 p.nr, 8192);
  return p;
}

BlockingParams default_blocking() {
  return BlockingParams{.mc = 128, .kc = 256, .nc = 2048, .mr = 4, .nr = 4};
}

BlockingParams default_blocking_for(const MicroKernel& kernel) {
  BlockingParams p = default_blocking();
  p.mr = kernel.mr;
  p.nr = kernel.nr;
  p.mc = round_down_multiple(p.mc, p.mr);
  p.nc = round_down_multiple(p.nc, p.nr);
  return p;
}

}  // namespace capow::blas
