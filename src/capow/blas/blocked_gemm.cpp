#include "capow/blas/blocked_gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "capow/fault/fault.hpp"
#include "capow/tasking/parallel_for.hpp"
#include "capow/telemetry/tracer.hpp"
#include "capow/trace/counters.hpp"

namespace capow::blas {

namespace {

std::size_t round_up_multiple(std::size_t v, std::size_t m) {
  return ((v + m - 1) / m) * m;
}

// Multiplies one packed A block against the packed B panel into the C
// tile anchored at (ic, jc): accumulating, or on the first kc panel
// (`overwrite`) replacing what C held.
void block_multiply(const MicroKernel& k, const double* packed_a,
                    const double* packed_b, std::size_t mc_cur,
                    std::size_t nc_cur, std::size_t kc_cur,
                    linalg::MatrixView c, std::size_t ic, std::size_t jc,
                    bool overwrite) {
  for (std::size_t jr = 0; jr < nc_cur; jr += k.nr) {
    const double* bstripe = packed_b + jr * kc_cur;
    const std::size_t cols = std::min(k.nr, nc_cur - jr);
    for (std::size_t ir = 0; ir < mc_cur; ir += k.mr) {
      const double* astripe = packed_a + ir * kc_cur;
      const std::size_t rows = std::min(k.mr, mc_cur - ir);
      run_micro_tile(k, astripe, bstripe, kc_cur, c, ic + ir, jc + jr, rows,
                     cols, overwrite);
    }
  }
  // One C tile pass: read + write mc x nc, plus the 2*mc*nc*kc flops.
  trace::count_dram_read(mc_cur * nc_cur * sizeof(double));
  trace::count_dram_write(mc_cur * nc_cur * sizeof(double));
  trace::count_flops(2ull * mc_cur * nc_cur * kc_cur);
}

}  // namespace

const MicroKernel& resolve_kernel(const GemmOptions& opts) {
  if (opts.blocking) {
    const MicroKernel* k =
        find_kernel_for_tile(opts.blocking->mr, opts.blocking->nr);
    if (k == nullptr) {
      throw std::invalid_argument(
          "blocked_gemm: no registered microkernel matches the requested " +
          std::to_string(opts.blocking->mr) + "x" +
          std::to_string(opts.blocking->nr) +
          " tile (valid kernel=tile combinations: " + kernel_tile_listing() +
          ")");
    }
    if (opts.kernel && *opts.kernel != k->id) {
      throw std::invalid_argument(
          "blocked_gemm: requested kernel disagrees with the blocking "
          "parameters' " +
          std::to_string(opts.blocking->mr) + "x" +
          std::to_string(opts.blocking->nr) + " tile, which pins kernel '" +
          k->name +
          "' (valid kernel=tile combinations: " + kernel_tile_listing() +
          ")");
    }
    if (!k->supported()) {
      throw std::runtime_error(std::string("blocked_gemm: kernel '") +
                               k->name + "' is not supported by this CPU");
    }
    return *k;
  }
  return opts.machine && !opts.kernel ? model_kernel(*opts.machine)
                                      : select_kernel(opts.kernel);
}

BlockingParams resolve_blocking(const GemmOptions& opts) {
  const MicroKernel& kern = resolve_kernel(opts);
  return opts.blocking ? *opts.blocking
         : opts.machine ? select_blocking(*opts.machine, kern)
                        : default_blocking_for(kern);
}

void gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
          linalg::MatrixView c, const GemmOptions& opts) {
  linalg::check_product("blas::gemm", a, b, c);
  const MicroKernel& kern = resolve_kernel(opts);
  const BlockingParams bp = resolve_blocking(opts);
  WorkspaceArena& arena =
      opts.arena != nullptr ? *opts.arena : WorkspaceArena::process_arena();
  tasking::ThreadPool* pool = opts.pool;

  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  telemetry::SpanScope span("gemm.blocked", "blas", "m", m, "n", n);

  // No zero pass over C: each tile's first kc panel (pc == 0) writes
  // 0.0 + its product, so C is touched once per panel. The logical
  // initialising write stays counted, which keeps the traffic model.
  // With k == 0 there is no panel and C is simply zeroed.
  if (k == 0) c.zero();
  trace::count_dram_write(m * n * sizeof(double));

  // Flip draws are keyed on (salt, panel coordinates, element) only, so
  // the injected-fault set is independent of thread interleaving.
  const std::uint64_t flip_base = fault::key(0xb1a5u, opts.fault_salt);

  for (std::size_t jc = 0; jc < n; jc += bp.nc) {
    const std::size_t nc_cur = std::min(bp.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += bp.kc) {
      const std::size_t kc_cur = std::min(bp.kc, k - pc);
      telemetry::SpanScope panel_span("gemm.panel", "blas", "jc", jc, "pc",
                                      pc);
      const std::size_t padded_nc = round_up_multiple(nc_cur, bp.nr);
      WorkspaceCheckout b_lease = arena.acquire(padded_nc * kc_cur);
      double* packed_b = b_lease.data();
      kern.pack_b(b, pc, jc, kc_cur, nc_cur, packed_b);
      trace::count_dram_read(kc_cur * nc_cur * sizeof(double));
      fault::maybe_flip(fault::Site::kComputeFlip,
                        fault::key(flip_base, jc, pc), packed_b, 1,
                        padded_nc * kc_cur, padded_nc * kc_cur);

      const std::size_t mblocks = (m + bp.mc - 1) / bp.mc;
      // Each worker leases one A buffer sized for a full mc block and
      // reuses it across all its row blocks.
      const std::size_t a_capacity =
          round_up_multiple(std::min(bp.mc, m), bp.mr) * kc_cur;
      auto body = [&](std::size_t blk_lo, std::size_t blk_hi) {
        WorkspaceCheckout a_lease = arena.acquire(a_capacity);
        double* packed_a = a_lease.data();
        for (std::size_t blk = blk_lo; blk < blk_hi; ++blk) {
          const std::size_t ic = blk * bp.mc;
          const std::size_t mc_cur = std::min(bp.mc, m - ic);
          kern.pack_a(a, ic, pc, mc_cur, kc_cur, packed_a);
          trace::count_dram_read(mc_cur * kc_cur * sizeof(double));
          block_multiply(kern, packed_a, packed_b, mc_cur, nc_cur, kc_cur, c,
                         ic, jc, /*overwrite=*/pc == 0);
        }
      };
      if (pool != nullptr && pool->concurrency() > 1 && mblocks > 1) {
        tasking::parallel_for(*pool, 0, mblocks, body);
        trace::count_sync();
      } else {
        body(0, mblocks);
      }
    }
    // Silent in-memory corruption of the finished C column panel.
    linalg::MatrixView panel = c.block(0, jc, m, nc_cur);
    fault::maybe_flip(fault::Site::kMemFlip, fault::key(flip_base, 0xc0u, jc),
                      panel.data(), panel.rows(), panel.cols(), panel.ld());
  }
}

void small_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                linalg::MatrixView c, const MicroKernel& kern,
                WorkspaceArena& arena, bool accumulate) {
  linalg::check_product("blas::small_gemm", a, b, c, {.disjoint = false});
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const std::size_t padded_m = round_up_multiple(m, kern.mr);
  const std::size_t padded_n = round_up_multiple(n, kern.nr);

  // Both packed operands share one lease; B follows A.
  WorkspaceCheckout lease = arena.acquire((padded_m + padded_n) * k);
  double* packed_a = lease.data();
  double* packed_b = packed_a + padded_m * k;
  kern.pack_a(a, 0, 0, m, k, packed_a);
  kern.pack_b(b, 0, 0, k, n, packed_b);

  for (std::size_t jr = 0; jr < n; jr += kern.nr) {
    const double* bstripe = packed_b + jr * k;
    const std::size_t cols = std::min(kern.nr, n - jr);
    for (std::size_t ir = 0; ir < m; ir += kern.mr) {
      const double* astripe = packed_a + ir * k;
      const std::size_t rows = std::min(kern.mr, m - ir);
      run_micro_tile(kern, astripe, bstripe, k, c, ir, jr, rows, cols,
                     /*overwrite=*/!accumulate);
    }
  }

  // Logical traffic identical to strassen::base_gemm so the packed base
  // case is cost-model-neutral: operands in, result out, 2mnk flops.
  trace::count_flops(2ull * m * n * k);
  trace::count_dram_read((m * k + k * n) * sizeof(double));
  trace::count_dram_write(m * n * sizeof(double));
}

}  // namespace capow::blas
