#include "capow/abft/abft.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "capow/abft/checksum.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::abft {

namespace {

std::atomic<std::uint64_t> g_verifications{0};
std::atomic<std::uint64_t> g_detected{0};
std::atomic<std::uint64_t> g_corrected{0};
std::atomic<std::uint64_t> g_recomputed{0};
std::atomic<std::uint64_t> g_retried{0};

// Distinct anchor coordinates of the blocks (of size `step`) covering
// the ascending index list `idx`.
std::vector<std::size_t> block_anchors(const std::vector<std::size_t>& idx,
                                       std::size_t step) {
  std::vector<std::size_t> out;
  for (std::size_t v : idx) {
    const std::size_t a = (v / step) * step;
    if (out.empty() || out.back() != a) out.push_back(a);
  }
  return out;
}

std::string describe(const VerifyReport& rep) {
  return std::to_string(rep.bad_rows.size()) + " damaged row sum(s), " +
         std::to_string(rep.bad_cols.size()) +
         " damaged column sum(s), worst residual " +
         std::to_string(rep.max_residual) + "x tolerance";
}

}  // namespace

const char* to_string(AbftMode m) noexcept {
  switch (m) {
    case AbftMode::kOff:
      return "off";
    case AbftMode::kDetect:
      return "detect";
    case AbftMode::kCorrect:
      return "correct";
  }
  return "off";
}

std::optional<AbftMode> parse_mode(const std::string& text) noexcept {
  if (text == "off") return AbftMode::kOff;
  if (text == "detect") return AbftMode::kDetect;
  if (text == "correct") return AbftMode::kCorrect;
  return std::nullopt;
}

AbftMode resolve_mode(const AbftConfig& cfg) {
  if (cfg.mode) return *cfg.mode;
  const char* env = std::getenv("CAPOW_ABFT");
  if (env == nullptr || *env == '\0') return AbftMode::kOff;
  const std::optional<AbftMode> m = parse_mode(env);
  if (!m) {
    throw std::invalid_argument(std::string("CAPOW_ABFT: unknown mode '") +
                                env + "' (expected off, detect, or correct)");
  }
  return *m;
}

AbftCounters counters() noexcept {
  AbftCounters out;
  out.verifications = g_verifications.load(std::memory_order_relaxed);
  out.detected = g_detected.load(std::memory_order_relaxed);
  out.corrected = g_corrected.load(std::memory_order_relaxed);
  out.recomputed = g_recomputed.load(std::memory_order_relaxed);
  out.retried = g_retried.load(std::memory_order_relaxed);
  return out;
}

void reset_counters() noexcept {
  g_verifications.store(0, std::memory_order_relaxed);
  g_detected.store(0, std::memory_order_relaxed);
  g_corrected.store(0, std::memory_order_relaxed);
  g_recomputed.store(0, std::memory_order_relaxed);
  g_retried.store(0, std::memory_order_relaxed);
}

void record_detected(std::uint64_t n) noexcept {
  g_detected.fetch_add(n, std::memory_order_relaxed);
}

void record_corrected(std::uint64_t n) noexcept {
  g_corrected.fetch_add(n, std::memory_order_relaxed);
}

void record_recomputed(std::uint64_t n) noexcept {
  g_recomputed.fetch_add(n, std::memory_order_relaxed);
}

void record_retried(std::uint64_t n) noexcept {
  g_retried.fetch_add(n, std::memory_order_relaxed);
}

AbftGuard::AbftGuard(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                     blas::WorkspaceArena& arena, double tolerance)
    : a_(a),
      b_(b),
      arena_(&arena),
      tolerance_(tolerance),
      m_(a.rows()),
      k_(a.cols()),
      n_(b.cols()),
      sums_(arena.acquire(4 * a.cols() + 2 * a.rows() + 2 * b.cols())) {
  // C does not exist yet: a storage-less view of its shape leaves the
  // contract only the inner dimension to decide.
  linalg::check_product("abft::AbftGuard", a, b, {nullptr, m_, n_, n_},
                        {.disjoint = false});
  telemetry::SpanScope span("abft.checksum", "abft", "m", m_, "n", n_);
  // Layout: the operand checksums, then the fully reduced reference
  // sums C must reproduce. Building the references here (one fused
  // pass over A, one over B) is what lets verify() touch nothing but
  // C — and makes re-verification after a recovery step O(m n) flat.
  double* ca = sums_.data();
  double* camag = ca + k_;
  double* rb = ca + 2 * k_;
  double* rbmag = ca + 3 * k_;
  double* rref = ca + 4 * k_;        // A·(B e), m entries
  double* rmag = rref + m_;          // Σ_t |a(i,t)|·rbmag[t]
  double* cref = rref + 2 * m_;      // (e^T A)·B, n entries
  double* cmag = rref + 2 * m_ + n_; // Σ_t camag[t]·|b(t,j)|

  // Three operand streams total (B for its row sums, A fused, B for the
  // column references — the cross dependency ca <-> rb makes a fourth
  // stream unavoidable only for C, paid in verify()).
  row_sums(b_, rb, rbmag);
  guard_row_refs(a_, rb, rbmag, ca, camag, rref, rmag);
  guard_col_refs(b_, ca, camag, cref, cmag);
  finite_refs_ = std::all_of(rref, rref + 2 * (m_ + n_),
                             [](double v) { return std::isfinite(v); });
}

VerifyReport AbftGuard::verify(linalg::ConstMatrixView c) const {
  linalg::check_product("abft::AbftGuard::verify", a_, b_, c,
                        {.disjoint = false});
  telemetry::SpanScope span("abft.verify", "abft", "m", m_, "n", n_);
  VerifyReport rep;
  const double* rref = sums_.data() + 4 * k_;
  const double* rmag = rref + m_;
  const double* cref = rref + 2 * m_;
  const double* cmag = rref + 2 * m_ + n_;

  // The references were reduced at construction, so verification is one
  // streamed pass over C (its row and column sums together), then O(m+n)
  // scalar comparisons.
  blas::WorkspaceCheckout scratch = arena_->acquire(m_ + n_);
  double* row_act = scratch.data();
  double* col_act = row_act + m_;
  matrix_sums(c, row_act, col_act);
  // Flagged: a finite reference whose residual is not within tolerance —
  // `!(residual <= scale)`, so a NaN residual fails too. A non-finite
  // reference means non-finite operands, whose propagation is not
  // damage; nor is a non-finite sum of C when any reference is
  // non-finite, since the Strassen-family recursions spread one
  // non-finite input across rows and columns whose references stay
  // finite.
  const auto check = [&](double ref, double mag, double actual,
                         std::size_t index, std::vector<std::size_t>& bad) {
    const double residual = std::fabs(ref - actual);
    const double scale = tolerance_ * std::max(mag, 1.0);
    rep.max_residual = std::max(rep.max_residual, residual / scale);
    if (residual <= scale || !std::isfinite(ref) || !std::isfinite(mag) ||
        (!finite_refs_ && !std::isfinite(actual))) {
      return;
    }
    bad.push_back(index);
    if (std::isnan(residual)) {
      rep.max_residual = std::numeric_limits<double>::infinity();
    }
  };
  for (std::size_t i = 0; i < m_; ++i) {
    check(rref[i], rmag[i], row_act[i], i, rep.bad_rows);
  }
  for (std::size_t j = 0; j < n_; ++j) {
    check(cref[j], cmag[j], col_act[j], j, rep.bad_cols);
  }

  rep.ok = rep.bad_rows.empty() && rep.bad_cols.empty();
  g_verifications.fetch_add(1, std::memory_order_relaxed);
  if (!rep.ok) g_detected.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

void guarded_gemm(linalg::ConstMatrixView a, linalg::ConstMatrixView b,
                  linalg::MatrixView c, const blas::GemmOptions& opts,
                  const AbftConfig& cfg) {
  const AbftMode mode = resolve_mode(cfg);
  if (mode == AbftMode::kOff) {
    blas::gemm(a, b, c, opts);
    return;
  }

  linalg::check_product("abft::guarded_gemm", a, b, c);
  // Pin the resolved kernel + blocking so every recompute sub-sweep
  // replays the exact floating-point schedule of the original call.
  blas::GemmOptions pinned = opts;
  pinned.kernel = blas::resolve_kernel(opts).id;
  pinned.blocking = blas::resolve_blocking(opts);
  blas::WorkspaceArena& arena =
      opts.arena != nullptr ? *opts.arena
                            : blas::WorkspaceArena::process_arena();
  pinned.arena = &arena;

  const AbftGuard guard(a, b, arena, cfg.tolerance);
  blas::gemm(a, b, c, pinned);
  VerifyReport rep = guard.verify(c);
  if (rep.ok) return;
  if (mode == AbftMode::kDetect) {
    throw AbftError("abft: silent corruption detected in gemm (" +
                    describe(rep) + ")");
  }

  const blas::BlockingParams& bp = *pinned.blocking;
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  std::uint64_t salt_seq = 0;
  const auto next_salt = [&] {
    return fault::key(0xabf7u, opts.fault_salt, ++salt_seq);
  };
  // Recompute rows [i0, i0+rh) x cols [j0, j0+cw) through a sub-view
  // sweep anchored on the original block grid: identical packing,
  // identical microkernel tiles, bit-identical values.
  const auto recompute = [&](std::size_t i0, std::size_t rh, std::size_t j0,
                             std::size_t cw) {
    blas::GemmOptions sub = pinned;
    sub.fault_salt = next_salt();
    blas::gemm(a.block(i0, 0, rh, k), b.block(0, j0, k, cw),
               c.block(i0, j0, rh, cw), sub);
  };

  const std::vector<std::size_t> rblocks = block_anchors(rep.bad_rows, bp.mc);
  const std::vector<std::size_t> cpanels = block_anchors(rep.bad_cols, bp.nc);
  if (!rblocks.empty() && !cpanels.empty()) {
    // Row x column intersections localize the damage; a single
    // intersection is the classic single-element case, fixed in place
    // by recomputing just its covering rectangle.
    if (rblocks.size() == 1 && cpanels.size() == 1) {
      record_corrected();
    } else {
      record_recomputed();
    }
    for (std::size_t i0 : rblocks) {
      for (std::size_t j0 : cpanels) {
        recompute(i0, std::min(bp.mc, m - i0), j0, std::min(bp.nc, n - j0));
      }
    }
  } else {
    // Damage visible on one axis only (sums cancelled on the other):
    // recompute the whole damaged panels/blocks.
    record_recomputed();
    for (std::size_t j0 : cpanels) recompute(0, m, j0, std::min(bp.nc, n - j0));
    for (std::size_t i0 : rblocks) recompute(i0, std::min(bp.mc, m - i0), 0, n);
  }
  rep = guard.verify(c);
  if (rep.ok) return;

  for (int attempt = 0; attempt < cfg.max_retries; ++attempt) {
    record_retried();
    blas::GemmOptions retry = pinned;
    retry.fault_salt = next_salt();
    blas::gemm(a, b, c, retry);
    rep = guard.verify(c);
    if (rep.ok) return;
  }
  throw AbftError(
      "abft: gemm corruption survived localized recomputation and " +
      std::to_string(cfg.max_retries) + " full retries (" + describe(rep) +
      ")");
}

}  // namespace capow::abft
