#include "capow/strassen/frame.hpp"

#include <stdexcept>
#include <string>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow::strassen {

void Frame::base(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                 linalg::MatrixView c) const {
  if (base_kernel != nullptr) {
    blas::small_gemm(a, b, c, *base_kernel, *arena);
  } else {
    base_gemm(a, b, c);
  }
}

void Frame::failed_verification(const std::string& what,
                                int attempt) const {
  if (abft_mode == abft::AbftMode::kDetect) {
    throw abft::AbftError("abft: silent corruption detected in " + what);
  }
  if (attempt >= abft_retries) {
    throw abft::AbftError("abft: " + what + " still corrupt after " +
                          std::to_string(attempt + 1) + " attempt(s)");
  }
}

const blas::MicroKernel* resolve_base_kernel(
    std::optional<blas::MicroKernelId> requested) {
  if (!requested) requested = blas::env_kernel_override();
  return requested ? blas::find_kernel(*requested) : nullptr;
}

Frame open_frame(const char* who, linalg::ConstMatrixView a,
                 linalg::ConstMatrixView b, linalg::ConstMatrixView c,
                 std::size_t base_cutoff,
                 std::optional<blas::MicroKernelId> base_kernel,
                 blas::WorkspaceArena* arena, const abft::AbftConfig& abft,
                 tasking::ThreadPool* pool) {
  linalg::check_product(who, a, b, c, {.square = true});
  if (base_cutoff == 0) {
    throw std::invalid_argument(std::string(who) + ": base_cutoff == 0");
  }
  Frame f;
  f.who = who;
  f.base_cutoff = base_cutoff;
  f.pool = pool;
  f.arena = arena != nullptr ? arena : &blas::WorkspaceArena::process_arena();
  f.base_kernel = resolve_base_kernel(base_kernel);
  if (f.base_kernel != nullptr && !f.base_kernel->supported()) {
    throw std::runtime_error(std::string(who) + ": base kernel '" +
                             f.base_kernel->name +
                             "' is not supported by this CPU");
  }
  f.abft_mode = abft::resolve_mode(abft);
  f.abft_tolerance = abft.tolerance;
  f.abft_retries = abft.max_retries;
  f.flips = abft::flips_armed();
  return f;
}

}  // namespace capow::strassen
