// Deterministic trace-driven load generation for capowd.
//
// An overload experiment is only an experiment if it can be re-run:
// the generator turns (seed, options) into an arrival trace — Poisson
// arrivals via inverse-transform sampling over a splitmix64 stream,
// a weighted shape mix, a guaranteed/best-effort tier split, and an
// optional burst phase that multiplies the arrival rate over a window
// (the open-loop stampede the admission controller exists to survive).
// The same (seed, options) always produces the byte-identical trace,
// which is the first link in the serve-smoke determinism chain:
// identical trace -> identical decisions -> identical decision log.
//
// No std::mt19937, no distribution objects: libstdc++ does not promise
// cross-version distribution stability, and this trace is diffed in CI.
// splitmix64 plus explicit inverse transforms is fully specified here.
#pragma once

#include <cstdint>
#include <vector>

#include "capow/serve/request.hpp"
#include "capow/splitmix64.hpp"

namespace capow::serve {

/// Trace-generation parameters. Defaults describe a small mixed load
/// that a few-watt budget saturates — the overload study's baseline.
struct LoadGenOptions {
  std::uint64_t seed = 1;
  double duration_s = 20.0;      ///< arrivals drawn until this horizon
  double rate_hz = 4.0;          ///< mean arrival rate outside bursts
  /// Burst phase: within [burst_start_s, burst_start_s + burst_len_s)
  /// the rate is multiplied by burst_factor (1.0 disables).
  double burst_start_s = 8.0;
  double burst_len_s = 4.0;
  double burst_factor = 6.0;
  /// P(request is guaranteed tier).
  double guaranteed_fraction = 0.35;
  /// Shape mix, sampled uniformly.
  std::vector<std::size_t> shapes = {96, 128, 160, 224};
  /// Per-tier relative deadlines (<= 0: none).
  double guaranteed_deadline_s = 2.0;
  double best_effort_deadline_s = 4.0;
  /// Requested ABFT mode for guaranteed requests (best-effort always
  /// runs unprotected); kCorrect gives the ladder's abft_relax rung
  /// something to relax.
  abft::AbftMode guaranteed_abft = abft::AbftMode::kCorrect;
};

/// Generates the arrival trace: requests sorted by arrival time with
/// ids 1..N in arrival order. Throws std::invalid_argument for a
/// non-positive rate/duration, an empty shape mix, or a tier fraction
/// outside [0, 1].
std::vector<Request> generate_trace(const LoadGenOptions& opts);

/// The step the trace draws from (named here for tests pinning it).
using capow::splitmix64;

}  // namespace capow::serve
