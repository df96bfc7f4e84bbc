// Structural locality traces: replay the exact serial access pattern of
// the Strassen and CAPS recursions through the cache-hierarchy
// simulator.
//
// This is the validation instrument for the cost models' central
// approximation — the closed-form DRAM-vs-cache classification of
// addition traffic. The trace walks the operations the implementations
// perform (operand sums, recursive products, combines, base multiplies),
// with temporaries placed by a stack allocator that mirrors nested
// buffer lifetimes, and asks the simulated hierarchy what actually
// missed to DRAM. CAPS's BFS levels keep the textbook order (seven
// product buffers, then the combines, as the paper's buffered BFS step
// does); Strassen and CAPS's DFS levels replay the classic program a
// serial node runs (scheme::kClassic).
//
// Conventions: logical_bytes uses the instrumentation's counting rules
// (so it equals the cost models' raw traffic exactly — asserted in
// tests), while the cache accesses follow the kernels' *real* pattern
// (e.g. the base multiply re-streams B per output row).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capow/cachesim/cache.hpp"
#include "capow/machine/machine.hpp"

namespace capow::cachesim {

/// Outcome of one locality replay.
struct LocalityReport {
  std::uint64_t logical_bytes = 0;  ///< instrumentation-convention bytes
  std::uint64_t dram_bytes = 0;     ///< LLC-miss bytes from the simulator
  std::vector<LevelStats> levels;   ///< per-level hit/miss statistics

  /// Fraction of the logical traffic that actually reached DRAM.
  double dram_fraction() const noexcept {
    return logical_bytes == 0
               ? 0.0
               : static_cast<double>(dram_bytes) /
                     static_cast<double>(logical_bytes);
  }
};

/// Replays a serial classic-Strassen multiply of dimension n (must be
/// base*2^k for the given cutoff) on `spec`'s single-core hierarchy.
/// Throws std::invalid_argument for dimensions with a border to peel
/// or a zero cutoff.
LocalityReport strassen_locality(std::size_t n, std::size_t base_cutoff,
                                 const machine::MachineSpec& spec);

/// Replays a serial CAPS multiply (BFS above `bfs_cutoff_depth`, DFS
/// below) under the same rules: a BFS level materializes all fourteen
/// operands before its products, a DFS level runs the node schedule
/// with one product temporary.
LocalityReport caps_locality(std::size_t n, std::size_t base_cutoff,
                             std::size_t bfs_cutoff_depth,
                             const machine::MachineSpec& spec);

}  // namespace capow::cachesim
