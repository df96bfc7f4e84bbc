// Closed-form cost model for task-parallel Strassen.
//
// Mirrors strassen.cpp's recursion exactly on the peeled dimension m
// (peel_dimension): per level l (7^l nodes of dimension m/2^l), a node
// performs the operand and combine additions of its scheme's program
// (scheme.hpp) on (m/2^(l+1))^2 quadrants, then 7^L base products of the
// cutoff dimension, plus run_frame's three border products when n > m.
// Raw flop and traffic totals match the instrumentation byte-for-byte
// (tests assert equality); the DRAM-vs-cache split and the phase list
// feed the simulator.
//
// The models read the options strassen::multiply() reads: base_cutoff
// and winograd. They do not model base_kernel (they always charge the
// BOTS base case the paper measures), arena or abft.
#pragma once

#include <cstddef>

#include "capow/machine/machine.hpp"
#include "capow/sim/cost_profile.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow::strassen {

/// Fraction of per-core peak the BOTS-style base kernel attains. The
/// BOTS dense solver is manually unrolled C (no packing, no FMA
/// intrinsics); ~5 GF/s/core on the paper's part, i.e. ~10% of the
/// 51.2 GF/s machine peak. This single constant (together with the
/// roofline) reproduces the paper's ~2.9x average Strassen slowdown.
inline constexpr double kBotsBaseKernelEfficiency = 0.10;

/// Effective FP efficiency of the O(n^2) addition passes: one flop per
/// three words moved means the adds run at load/store speed, a few
/// GF/s/core even from cache.
inline constexpr double kAddKernelEfficiency = 0.06;

/// Live-window multiplier for the *untied-task* Strassen: with task
/// stealing, each worker interleaves roughly this many generations of
/// sibling subtrees, so the set of quadrant buffers competing for the
/// shared LLC at once is ~kUntiedLiveWindow x threads rather than 1 per
/// worker in multi-thread runs. Addition traffic whose windowed working
/// set overflows the LLC is re-streamed from DRAM. The CAPS model's BFS
/// levels pin one subtree per worker instead (window = threads) — the
/// shared-memory analogue of its communication avoidance.
inline constexpr unsigned kUntiedLiveWindow = 3;

/// Total flops strassen::multiply() executes for dimension n: the
/// recursion on the peeled dimension plus the border products.
double strassen_total_flops(std::size_t n, const StrassenOptions& opts);

/// Total logical traffic (bytes) the instrumentation counts for
/// strassen::multiply() at dimension n, border products included.
double strassen_total_traffic_bytes(std::size_t n,
                                    const StrassenOptions& opts);

/// Simulator work profile for an n x n Strassen multiply with `threads`
/// workers on `spec`. Operand steps the node program shares between
/// products (scheme::Program::shared) run before the products fan out,
/// at node concurrency; the rest run inside the seven product tasks.
sim::WorkProfile strassen_profile(std::size_t n,
                                  const machine::MachineSpec& spec,
                                  unsigned threads,
                                  const StrassenOptions& opts = {});

/// Recursion geometry and helpers the Strassen and CAPS cost models
/// share.
namespace model {

inline constexpr double kWord = sizeof(double);

struct Geometry {
  std::size_t n;         ///< caller's dimension
  std::size_t m;         ///< leading dimension the recursion runs on
  std::size_t p;         ///< border rows and columns, n - m
  std::size_t levels;    ///< recursion levels on m
  std::size_t base_dim;  ///< dimension of base-case products
};

Geometry geometry(std::size_t n, std::size_t cutoff);

/// 7^l as a double.
double pow7(std::size_t l);

/// Flops of the three border base products, 2(n^3 - m^3).
double border_flops(const Geometry& g);

/// Bytes the border base products move under base_gemm's convention
/// (operands read, result written once; 0 without a border).
double border_traffic(const Geometry& g);

/// Worst-per-worker over evenly distributed units: ceil(u/p)*p/u,
/// capped at 4.
double static_imbalance(double units, unsigned p);

/// Adds the phases outside the recursion: the whole multiply as one
/// BOTS base case when n is at or below the cutoff — then returns true,
/// as nothing else runs — else the border products, if any. On more than
/// one thread two of them run as tasks beside the recursion; the phase
/// counts those spawns but, phases being sequential, not the overlap.
bool add_entry_phases(sim::WorkProfile& wp, const Geometry& g,
                      std::size_t cutoff, unsigned threads);

}  // namespace model

}  // namespace capow::strassen
