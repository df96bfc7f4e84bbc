// Offline energy attribution: joules per span, from a trace plus a
// power timeline.
//
// Two raw signals share one clock: the span tracer ("what was each
// thread doing, when") and a sampled power timeline ("what was each
// power plane drawing, when"), such as the simulator's
// simulate_with_sampling() output. This module is the join: Eq (4) of the paper discretized per power
// plane. Each plane's piecewise-constant power timeline is integrated
// over the span intervals of the trace, producing a hierarchical
// self/total profile in joules as well as nanoseconds.
//
// Attribution rules (all per plane, planes attributed independently):
//
//   * At any instant, a thread's energy share belongs to its innermost
//     open span (the leaf); enclosing spans receive it transitively in
//     their *total*, the leaf in its *self*.
//   * When k threads have open spans during an instant, each thread's
//     leaf receives 1/k of the plane's power (RAPL planes are
//     package-wide; an equal split is the discretization of Eq (4)'s
//     per-unit sum that conserves the measured integral).
//   * Instants covered by the power timeline but by no span go to an
//     explicit `<untracked>` bucket — idle threads, untraced code,
//     sampler warm-up. Nothing is discarded: per plane,
//     Σ span self-energy + untracked == the integrated timeline total
//     (exactly, modulo floating-point rounding of the same sum taken
//     in a different association — tests pin this within an
//     ulp-scaled tolerance).
//   * Span time outside the power timeline's coverage (a span
//     straddling the first or last sample) accrues nanoseconds but no
//     joules: no measurement, no attribution.
//
// Everything here is strictly offline — a pure function of a collected
// Tracer event stream and a sample vector. The traced hot path runs no
// attribution code (bench/abl_profile_overhead holds this to the
// telemetry layer's existing <2% budget).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "capow/telemetry/tracer.hpp"

namespace capow::profile {

/// The independently attributed RAPL planes (package and PP0 — the two
/// the sampler records; Eq (3) sums over exactly these).
enum class Plane : std::size_t { kPackage = 0, kPp0 = 1 };
inline constexpr std::size_t kPlaneCount = 2;

/// "package" / "pp0".
const char* plane_name(Plane p) noexcept;

/// One piecewise-constant power slice: both planes held at `watts` over
/// [t_begin_ns, t_end_ns). Slices must be non-overlapping; gaps between
/// slices are simply uncovered time (no energy, no attribution).
struct PowerSlice {
  std::uint64_t t_begin_ns = 0;
  std::uint64_t t_end_ns = 0;
  std::array<double, kPlaneCount> watts{};
};

/// A sampler-style timeline point: average watts over the interval
/// ending at t_seconds (the shape of sim::PowerSample).
struct TimelinePoint {
  double t_seconds = 0.0;
  double package_w = 0.0;
  double pp0_w = 0.0;
};

/// Converts a monotone sample series into contiguous slices on the
/// tracer clock: sample i becomes the slice (t_{i-1}, t_i] (t_{-1} = 0),
/// shifted by `base_ns` (pass the timeline's start timestamp on the
/// tracer clock).
/// Non-increasing timestamps are skipped.
std::vector<PowerSlice> slices_from_samples(
    std::span<const TimelinePoint> samples, std::uint64_t base_ns = 0);

/// Everything attribute() consumes: the collected span stream (instants
/// and counters are ignored) and the power timeline.
struct AttributionInput {
  std::vector<telemetry::TraceEvent> events;
  std::vector<PowerSlice> slices;
};

/// Observed power-timeline granularity — the profiler's attribution
/// error bar: a span boundary can be misattributed by at most one
/// slice width, so the per-edge energy uncertainty is bounded by
/// max_seconds * peak watts.
struct SliceStats {
  std::size_t count = 0;
  double min_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
};

/// One aggregated frame of the hierarchical profile, keyed by span name
/// within its parent (instances with equal names merge). Children are
/// sorted by name so output is deterministic.
struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;     ///< span instances aggregated here
  std::uint64_t self_ns = 0;   ///< time with this frame as the leaf
  std::uint64_t total_ns = 0;  ///< summed instance durations
  std::array<double, kPlaneCount> self_j{};
  std::array<double, kPlaneCount> total_j{};  ///< self + Σ children
  std::vector<ProfileNode> children;

  /// Child by name, or nullptr.
  const ProfileNode* child(std::string_view child_name) const noexcept;
};

/// The attribution result: the aggregated span tree plus the
/// conservation ledger.
struct Profile {
  /// Synthetic root ("<root>"); its children are the top-level spans.
  /// root.total_j / total_ns aggregate the whole tree.
  ProfileNode root;
  /// Integral of the power timeline per plane — the right-hand side of
  /// the conservation invariant.
  std::array<double, kPlaneCount> plane_total_j{};
  /// Energy in covered instants with no open span anywhere.
  std::array<double, kPlaneCount> untracked_j{};
  /// Wall nanoseconds of covered-but-unspanned time.
  std::uint64_t untracked_ns = 0;
  /// Peak plane power seen in the timeline (for the error bound).
  std::array<double, kPlaneCount> peak_w{};
  SliceStats slice_stats;

  /// Σ span self-energy + untracked for `p` — equals plane_total_j[p]
  /// within an ulp-scaled tolerance (the conservation invariant).
  double attributed_j(Plane p) const noexcept;
};

/// The attribution engine. Pure and offline; tolerates malformed input
/// (unsorted events, spans overlapping their parent's end — clamped,
/// empty timelines — ns-only profile).
Profile attribute(const AttributionInput& in);

/// Collapsed-stack weight: wall nanoseconds of self time, or self
/// millijoules (rounded to integer) on a chosen plane.
enum class FoldedWeight { kNanoseconds, kMillijoules };

/// Writes the profile as collapsed stacks ("a;b;c <weight>" per line,
/// flamegraph.pl / speedscope compatible), pre-order, children by name.
/// Zero-weight frames are skipped; untracked energy appears as a
/// top-level `<untracked>` frame. A non-empty `stack_prefix` becomes
/// the shared root frame (use the run label).
void write_folded(const Profile& p, std::ostream& os, FoldedWeight weight,
                  Plane plane = Plane::kPackage,
                  std::string_view stack_prefix = {});

/// Human-readable profile: the conservation ledger, the sampling
/// granularity / error bound, and the indented self/total table.
void write_text(const Profile& p, std::ostream& os);

}  // namespace capow::profile
