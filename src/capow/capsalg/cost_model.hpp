// Closed-form cost model for CAPS, mirroring caps.cpp exactly.
//
// Per node (half-dimension h): 10 binary operand ops and the 8 combine
// ops of the classic step, exactly as a Strassen node does; a BFS node
// also books 4 operand copies (the paper's extra buffering). A DFS node
// saves memory, not additions: it books one product temporary plus one
// product's operand sums where a BFS node books 21 buffers. Raw totals
// match the instrumentation byte-for-byte.
//
// The communication-avoidance property appears here as the *absence* of
// the untied-task interleave factor the classic Strassen model pays
// (strassen::kUntiedLiveWindow): BFS levels own disjoint operand buffers
// per worker, so above-LLC addition traffic streams once.
//
// The models read the options capsalg::multiply() reads: base_cutoff and
// bfs_cutoff_depth. They do not model base_kernel (they always charge the
// BOTS base case the paper measures), arena or abft.
#pragma once

#include <cstddef>

#include "capow/capsalg/caps.hpp"
#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"

namespace capow::capsalg {

/// Total flops capsalg::multiply() executes for dimension n.
double caps_total_flops(std::size_t n, const CapsOptions& opts);

/// Total logical traffic (bytes) the instrumentation counts.
double caps_total_traffic_bytes(std::size_t n, const CapsOptions& opts);

/// Peak tracked buffer bytes capsalg::multiply() allocates (the BFS
/// memory-for-communication trade), assuming serial buffer lifetime
/// along one BFS spine: 21 quadrant buffers per live BFS level plus the
/// DFS transient set.
double caps_peak_buffer_bytes(std::size_t n, const CapsOptions& opts);

/// Simulator work profile for an n x n CAPS multiply.
sim::WorkProfile caps_profile(std::size_t n,
                              const machine::MachineSpec& spec,
                              unsigned threads,
                              const CapsOptions& opts = {});

}  // namespace capow::capsalg
