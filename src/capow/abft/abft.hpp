// capow::abft — checksum-protected matmul: silent-data-corruption
// detection and online recovery (Huang–Abraham ABFT).
//
// PR 2 made the runtime survive *detected* faults (a corrupted message
// fails its link CRC and is retransmitted); nothing caught a *silent*
// flip in a packed panel, a quadrant temporary, or a received payload —
// the run completed and reported a wrong product with perfect
// telemetry. This module closes that gap: an AbftGuard snapshots the
// checksums of A and B (e^T A and B e, O(n^2)) before a multiply and
// afterwards verifies C's column sums against (e^T A)·B and its row
// sums against A·(B e). A corrupted element shows up in exactly one row
// sum and one column sum, so the row x column intersection localizes
// it; recovery then climbs a ladder of increasingly blunt instruments:
//
//   detect -> correct damaged block x panel rectangles in place ->
//   recompute whole damaged panels -> retry the full multiply ->
//   throw AbftError (the harness watchdog's bounded-retry territory).
//
// Every recovery step *re-runs the original floating-point schedule on
// the original operands* (pinned blocking for gemm sub-sweeps, the same
// recursion for Strassen/CAPS products) rather than patching values
// arithmetically: delta-patching is not bit-exact, and this repo's
// contract is that a corrected run is bit-identical to a fault-free
// one. Verification tolerance is relative to a compensated magnitude
// accumulator (see checksum.hpp), sitting ~4 orders above the
// algorithms' own rounding noise and ~3 below the smallest injected
// flip, so neither false positives nor masked faults occur in practice.
//
// Exercise the ladder deterministically with the mem.flip/compute.flip
// fault sites (CAPOW_FAULTS="seed=...,mem.flip=p,compute.flip=p") and
// select the mode per call via AbftConfig or process-wide via
// CAPOW_ABFT=off|detect|correct.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "capow/blas/blocked_gemm.hpp"
#include "capow/blas/workspace.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/matrix.hpp"

namespace capow::abft {

/// What a guarded multiply does about checksum mismatches.
enum class AbftMode {
  kOff = 0,  ///< no checksums, no verification (seed behavior)
  kDetect,   ///< verify and throw AbftError on corruption
  kCorrect,  ///< verify, localize, recompute, retry; throw only when
             ///< every rung of the ladder fails
};

/// "off", "detect", or "correct".
const char* to_string(AbftMode m) noexcept;

/// Inverse of to_string(); nullopt for unrecognized text.
std::optional<AbftMode> parse_mode(const std::string& text) noexcept;

/// Per-call ABFT configuration, threaded through MatmulOptions and the
/// algorithm option structs.
struct AbftConfig {
  /// Unset defers to the CAPOW_ABFT environment variable (the
  /// whole-stack switch, like CAPOW_KERNEL), then to kOff.
  std::optional<AbftMode> mode;
  /// Residuals are flagged above tolerance x Σ|terms|. The default sits
  /// between the algorithms' rounding noise (~1e-11 relative at paper
  /// sizes) and the smallest injected flip signal (~1e-4).
  double tolerance = 1e-7;
  /// Full re-run attempts after localized recomputation fails.
  int max_retries = 2;
};

/// Effective mode: explicit config, else CAPOW_ABFT, else kOff. Throws
/// std::invalid_argument when CAPOW_ABFT holds an unknown mode.
AbftMode resolve_mode(const AbftConfig& cfg);

/// Unrecoverable (or detect-mode) checksum failure.
class AbftError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Process-wide ABFT event counters (exported as capow_abft_* metrics).
/// For a fixed fault seed these totals are deterministic across reruns
/// — asserted by tests, same contract as fault::FaultCounters.
struct AbftCounters {
  std::uint64_t verifications = 0;  ///< checksum verifications run
  std::uint64_t detected = 0;       ///< verifications that found damage
  std::uint64_t corrected = 0;      ///< single-intersection in-place fixes
  std::uint64_t recomputed = 0;     ///< localized block/quadrant recomputes
  std::uint64_t retried = 0;        ///< full re-runs of a multiply

  std::uint64_t total() const noexcept {
    return verifications + detected + corrected + recomputed + retried;
  }
  bool operator==(const AbftCounters&) const = default;
};

AbftCounters counters() noexcept;
void reset_counters() noexcept;

/// Recovery layers record what they did about a detection. The detected
/// variant is for checks outside AbftGuard::verify (message checksums).
void record_detected(std::uint64_t n = 1) noexcept;
void record_corrected(std::uint64_t n = 1) noexcept;
void record_recomputed(std::uint64_t n = 1) noexcept;
void record_retried(std::uint64_t n = 1) noexcept;

/// Outcome of one checksum verification. The bad_* vectors are empty on
/// a clean verify (no allocation on the hot path) and list damaged
/// coordinates ascending otherwise.
struct VerifyReport {
  bool ok = true;
  std::vector<std::size_t> bad_rows;
  std::vector<std::size_t> bad_cols;
  /// Largest residual seen, relative to its tolerance scale: < 1 is
  /// within tolerance, an injected flip lands orders of magnitude above.
  double max_residual = 0.0;
};

/// Checksum-augmented view over one multiply's operands. Construction
/// snapshots e^T A and B e (plus |.| magnitudes) AND reduces the
/// reference products A·(B e) and (e^T A)·B into one arena lease, so
/// verify() streams only C — one fused pass computing its row and
/// column sums. That keeps re-verification after each recovery rung
/// O(mn) flat and is what holds detect-mode overhead under the 5% bar.
/// The operand views must stay alive and *unmodified between
/// construction and the computation being checked* — snapshot the guard
/// before injecting or risking corruption, or verification would bless
/// a consistent-but-wrong product.
class AbftGuard {
 public:
  /// Throws std::invalid_argument when the inner dimensions disagree.
  AbftGuard(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
            blas::WorkspaceArena& arena, double tolerance);

  /// Verifies c ?= A·B via both checksum families. Scratch comes from
  /// the arena (zero-allocation when warm). Records one verification
  /// (plus one detection on failure) in the process counters. A NaN or
  /// Inf in C against finite references is damage; non-finite operands
  /// are not — their propagation into C is never flagged.
  VerifyReport verify(linalg::ConstMatrixView c) const;

  double tolerance() const noexcept { return tolerance_; }

 private:
  linalg::ConstMatrixView a_;
  linalg::ConstMatrixView b_;
  blas::WorkspaceArena* arena_;
  double tolerance_;
  std::size_t m_, k_, n_;
  /// [ca, camag, rb, rbmag](k each) +
  /// [rref = A·(B e), rmag](m each) + [cref = (e^T A)·B, cmag](n each)
  blas::WorkspaceCheckout sums_;
  /// Every reference sum is finite, i.e. A and B hold no NaN/Inf (and
  /// their products do not overflow).
  bool finite_refs_ = true;
};

/// True when an installed fault plan arms mem.flip/compute.flip — the
/// gate algorithms use to skip flip-injection calls entirely on clean
/// runs (their outputs must stay bit-identical to pre-ABFT behavior).
inline bool flips_armed() noexcept {
  const fault::FaultInjector* inj = fault::FaultInjector::active();
  return inj != nullptr && inj->plan().any_flip();
}

/// fault::maybe_flip over a matrix view (keeps call sites terse).
inline std::size_t inject_flip(fault::Site site, std::uint64_t block_key,
                               linalg::MatrixView v) noexcept {
  return fault::maybe_flip(site, block_key, v.data(), v.rows(), v.cols(),
                           v.ld());
}

/// blas::gemm wrapped in the full ABFT ladder. Off-mode is a plain
/// gemm() call. Detect/correct modes pin the resolved blocking so that
/// localized recomputation of a damaged mc-block x nc-panel rectangle
/// replays the identical floating-point schedule — the corrected result
/// is bit-identical to a fault-free run. Throws AbftError when the
/// damage survives localized recomputation and cfg.max_retries full
/// re-runs (or immediately in detect mode). Validates through
/// linalg::check_product before the guard's checksum pass.
void guarded_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                  linalg::MatrixView c, const blas::GemmOptions& opts = {},
                  const AbftConfig& cfg = {});

}  // namespace capow::abft
