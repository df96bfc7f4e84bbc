// The arena bound of a serial fast recursion, shared by the Strassen
// and CAPS footprint tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "capow/blas/workspace.hpp"
#include "capow/strassen/cost_model.hpp"

namespace capow::footprint {

/// `buffers` h x h arena leases — a node program's temporaries — over
/// every level the recursion of an n x n multiply runs at `base_cutoff`,
/// on the leading m x m blocks the recursion peels n to (the border
/// products lease nothing). The last level's h may sit below the cutoff:
/// n = 896 at 64 recurses down to h = 56. Each lease counts whole arena
/// size classes, as the arena's outstanding bytes do.
inline std::uint64_t quadrants_per_level(std::size_t n,
                                         std::size_t base_cutoff,
                                         std::size_t buffers) {
  const strassen::model::Geometry g =
      strassen::model::geometry(n, base_cutoff);
  const std::uint64_t page = blas::kArenaClassBytes;
  std::uint64_t bytes = 0;
  for (std::size_t l = 0; l < g.levels; ++l) {
    const std::uint64_t h = g.m >> (l + 1);
    bytes += buffers * ((h * h * sizeof(double) + page - 1) / page * page);
  }
  return bytes;
}

}  // namespace capow::footprint
