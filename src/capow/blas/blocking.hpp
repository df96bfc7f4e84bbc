// Cache-aware blocking selection for the Goto-style blocked DGEMM.
//
// The paper (Section IV-A): "the OpenBLAS algorithm attempts to optimize
// a blocking matrix-matrix multiplication by determining what the best
// blocking factor is for the platform based upon cache hierarchy and
// respective capacity of each cache level." select_blocking() is that
// determination: it sizes the packed A block for L2, the packed B panel
// for the LLC, and the register tile for the microkernel.
#pragma once

#include <cstddef>

#include "capow/blas/microkernel.hpp"
#include "capow/machine/machine.hpp"

namespace capow::blas {

/// Goto-style blocking parameters: C is computed in mc x nc tiles from
/// packed A (mc x kc, L2-resident) and packed B (kc x nc, LLC-resident)
/// panels, with an mr x nr register microkernel.
struct BlockingParams {
  std::size_t mc;  ///< rows of the packed A block
  std::size_t kc;  ///< shared (inner) dimension block
  std::size_t nc;  ///< columns of the packed B panel
  std::size_t mr;  ///< microkernel rows
  std::size_t nr;  ///< microkernel columns
};

/// Chooses blocking for `spec`'s cache hierarchy around `kernel`'s
/// register tile (mr, nr):
///  - kc * mr * 8 and kc * nr * 8 stripes stay L1-friendly,
///  - mc * kc * 8 fills about half of L2 (leaving room for B stripes),
///  - kc * nc * 8 fills about half of the LLC.
/// All values are multiples of the microkernel tile and at least one
/// tile. Falls back to default_blocking_for(kernel) when the spec has no
/// caches.
BlockingParams select_blocking(const machine::MachineSpec& spec,
                               const MicroKernel& kernel);

/// Default blocking used when no machine is supplied (sized for the
/// Haswell preset).
BlockingParams default_blocking();

/// Default blocking matched to `kernel`'s register tile: the same
/// Haswell-preset mc/kc/nc footprint with mc rounded to a multiple of
/// the kernel's mr and nc to a multiple of its nr.
BlockingParams default_blocking_for(const MicroKernel& kernel);

}  // namespace capow::blas
