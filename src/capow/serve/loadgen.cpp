#include "capow/serve/loadgen.hpp"

#include <cmath>
#include <stdexcept>

namespace capow::serve {

namespace {

/// Uniform in (0, 1]: never 0, so -log(u) is always finite.
double uniform01(std::uint64_t& state) noexcept {
  return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1p-53;
}

}  // namespace

std::vector<Request> generate_trace(const LoadGenOptions& opts) {
  if (opts.rate_hz <= 0.0 || opts.duration_s <= 0.0) {
    throw std::invalid_argument(
        "generate_trace: rate_hz and duration_s must be positive");
  }
  if (opts.shapes.empty()) {
    throw std::invalid_argument("generate_trace: shape mix is empty");
  }
  if (opts.guaranteed_fraction < 0.0 || opts.guaranteed_fraction > 1.0) {
    throw std::invalid_argument(
        "generate_trace: guaranteed_fraction must lie in [0, 1]");
  }
  if (opts.burst_factor <= 0.0) {
    throw std::invalid_argument(
        "generate_trace: burst_factor must be positive");
  }

  std::uint64_t state = opts.seed;
  std::vector<Request> trace;
  double t = 0.0;
  std::uint64_t next_id = 1;
  const double burst_end = opts.burst_start_s + opts.burst_len_s;
  while (true) {
    // Inverse-transform exponential interarrival at the rate in force
    // at the current time. (The rate change at a burst boundary is
    // applied per-draw, not mid-gap — a deliberate, documented
    // simplification that keeps the trace a pure left-to-right fold.)
    const bool in_burst = opts.burst_factor != 1.0 &&
                          t >= opts.burst_start_s && t < burst_end;
    const double rate =
        in_burst ? opts.rate_hz * opts.burst_factor : opts.rate_hz;
    t += -std::log(uniform01(state)) / rate;
    if (t >= opts.duration_s) break;

    Request r;
    r.id = next_id++;
    r.arrival_s = t;
    r.n = opts.shapes[splitmix64(state) % opts.shapes.size()];
    const bool guaranteed = uniform01(state) <= opts.guaranteed_fraction;
    r.tier = guaranteed ? QosTier::kGuaranteed : QosTier::kBestEffort;
    r.deadline_s = guaranteed ? opts.guaranteed_deadline_s
                              : opts.best_effort_deadline_s;
    r.abft = guaranteed ? opts.guaranteed_abft : abft::AbftMode::kOff;
    trace.push_back(r);
  }
  return trace;
}

}  // namespace capow::serve
