#include "capow/fault/fault.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "capow/splitmix64.hpp"

namespace capow::fault {

namespace {

// The splitmix64 step applied to a copy: a stateless hash, cheap enough
// for per-message use.
std::uint64_t mix(std::uint64_t x) noexcept { return splitmix64(x); }

// Top 53 bits as a uniform double in [0, 1).
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::atomic<FaultInjector*> g_active{nullptr};

// Canonical site table: the single source of truth tying each spec key
// to its Site and its FaultPlan probability field. site_name(),
// probability(), spec(), parse(), and the unknown-key error message all
// derive from it, so a site added here is automatically parseable,
// printable, and consistently named everywhere. rank.kill is the one
// site without a probability field (its value is a deterministic
// victim/world/epoch triple, not a draw), so its member pointer is null
// and parse()/spec() handle its value grammar specially.
struct SiteSpec {
  const char* name;
  Site site;
  double FaultPlan::*probability;
};

constexpr SiteSpec kSites[kSiteCount] = {
    {"comm.drop", Site::kCommDrop, &FaultPlan::comm_drop},
    {"comm.delay", Site::kCommDelay, &FaultPlan::comm_delay},
    {"comm.corrupt", Site::kCommCorrupt, &FaultPlan::comm_corrupt},
    {"rapl.fail", Site::kRaplFail, &FaultPlan::rapl_fail},
    {"task.stall", Site::kTaskStall, &FaultPlan::task_stall},
    {"run.fail", Site::kRunFail, &FaultPlan::run_fail},
    {"run.stall", Site::kRunStall, &FaultPlan::run_stall},
    {"mem.flip", Site::kMemFlip, &FaultPlan::mem_flip},
    {"compute.flip", Site::kComputeFlip, &FaultPlan::compute_flip},
    {"rank.kill", Site::kRankKill, nullptr},
    {"serve.burst", Site::kServeBurst, &FaultPlan::serve_burst},
    {"serve.stall", Site::kServeStall, &FaultPlan::serve_stall},
};

constexpr bool sites_in_enum_order() {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (static_cast<std::size_t>(kSites[i].site) != i) return false;
  }
  return true;
}
static_assert(sites_in_enum_order(),
              "kSites must list every Site in enum order");

constexpr const char* kEventNames[kEventCount] = {
    "comm_drops",        "comm_delays",       "comm_corruptions",
    "comm_retries",      "comm_send_failures", "rapl_read_failures",
    "rapl_retries",      "rapl_degraded_reads", "rapl_wraps",
    "task_stalls",       "runs_retried",      "runs_degraded",
    "runs_failed",       "run_timeouts",      "mem_flips",
    "compute_flips",     "rank_kills",        "serve_bursts",
    "serve_stalls",
};

// Non-site spec keys (magnitudes, seed) appended to the unknown-key
// error so the full grammar is discoverable from the message alone.
constexpr const char* kExtraKeys[] = {
    "comm.delay_ms",      "rapl.wrap",      "task.stall_ms",
    "run.stall_ms",       "serve.burst_copies", "serve.stall_ms",
    "seed",
};

std::string valid_keys() {
  std::string out;
  for (const SiteSpec& s : kSites) {
    if (!out.empty()) out += ", ";
    out += s.name;
  }
  for (const char* k : kExtraKeys) {
    out += ", ";
    out += k;
  }
  return out;
}

double parse_number(const std::string& key_name, const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size()) {
    throw std::invalid_argument("fault spec: bad value '" + tok +
                                "' for key '" + key_name + "'");
  }
  return v;
}

double parse_probability(const std::string& key_name,
                         const std::string& tok) {
  const double v = parse_number(key_name, tok);
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument("fault spec: probability '" + key_name +
                                "' must be in [0, 1], got " + tok);
  }
  return v;
}

double parse_duration(const std::string& key_name, const std::string& tok) {
  const double v = parse_number(key_name, tok);
  if (v < 0.0) {
    throw std::invalid_argument("fault spec: duration '" + key_name +
                                "' must be >= 0, got " + tok);
  }
  return v;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

long long parse_integer(const std::string& key_name, const std::string& tok) {
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (tok.empty() || end != tok.c_str() + tok.size()) {
    throw std::invalid_argument("fault spec: bad value '" + tok +
                                "' for key '" + key_name + "'");
  }
  return v;
}

// `rank.kill=V/P[@E]`: victim rank V of a P-rank world, killed at its
// E-th comm operation (default 1). Having P in the grammar is what lets
// V >= P be rejected here, at parse time, instead of silently never
// firing — a chaos spec naming an impossible victim is a typo, not a
// no-op.
RankKillSpec parse_rank_kill(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument(
        "fault spec: rank.kill expects victim/world[@epoch], got '" + value +
        "'");
  }
  const std::size_t at = value.find('@', slash + 1);
  RankKillSpec spec;
  spec.victim = static_cast<int>(
      parse_integer("rank.kill", value.substr(0, slash)));
  spec.world = static_cast<int>(parse_integer(
      "rank.kill",
      value.substr(slash + 1, at == std::string::npos ? std::string::npos
                                                      : at - slash - 1)));
  if (at != std::string::npos) {
    const long long e = parse_integer("rank.kill", value.substr(at + 1));
    if (e < 1) {
      throw std::invalid_argument(
          "fault spec: rank.kill epoch must be >= 1, got '" + value + "'");
    }
    spec.epoch = static_cast<std::uint64_t>(e);
  }
  if (spec.world < 1) {
    throw std::invalid_argument(
        "fault spec: rank.kill world size must be >= 1, got '" + value + "'");
  }
  if (spec.victim < 0 || spec.victim >= spec.world) {
    throw std::invalid_argument(
        "fault spec: rank.kill victim must name a rank < world size, got '" +
        value + "' (victim " + std::to_string(spec.victim) + " of " +
        std::to_string(spec.world) + " ranks)");
  }
  return spec;
}

}  // namespace

const char* site_name(Site s) noexcept {
  return kSites[static_cast<std::size_t>(s)].name;
}

const char* event_name(Event e) noexcept {
  return kEventNames[static_cast<std::size_t>(e)];
}

std::uint64_t FaultCounters::total() const noexcept {
  std::uint64_t sum = 0;
  for (std::uint64_t c : by_event) sum += c;
  return sum;
}

double FaultPlan::probability(Site s) const noexcept {
  const auto member = kSites[static_cast<std::size_t>(s)].probability;
  return member == nullptr ? 0.0 : this->*member;
}

bool FaultPlan::any() const noexcept {
  for (const SiteSpec& s : kSites) {
    if (s.probability != nullptr && this->*s.probability > 0.0) return true;
  }
  return rapl_wrap || !rank_kills.empty();
}

std::string FaultPlan::spec() const {
  std::string out;
  const auto add = [&](const char* k, const std::string& v) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  };
  for (const SiteSpec& s : kSites) {
    if (s.probability != nullptr && this->*s.probability > 0.0) {
      add(s.name, fmt_double(this->*s.probability));
    }
    // Magnitude/flag keys print right after the site they qualify.
    switch (s.site) {
      case Site::kCommDelay:
        if (comm_delay_ms != 1.0) add("comm.delay_ms", fmt_double(comm_delay_ms));
        break;
      case Site::kRaplFail:
        if (rapl_wrap) add("rapl.wrap", "1");
        break;
      case Site::kTaskStall:
        if (task_stall_ms != 1.0) add("task.stall_ms", fmt_double(task_stall_ms));
        break;
      case Site::kRunStall:
        if (run_stall_ms != 1.0) add("run.stall_ms", fmt_double(run_stall_ms));
        break;
      case Site::kServeBurst:
        if (serve_burst_copies != 3.0) {
          add("serve.burst_copies", fmt_double(serve_burst_copies));
        }
        break;
      case Site::kServeStall:
        if (serve_stall_ms != 1.0) {
          add("serve.stall_ms", fmt_double(serve_stall_ms));
        }
        break;
      case Site::kRankKill:
        for (const RankKillSpec& k : rank_kills) {
          std::string v = std::to_string(k.victim);
          v += '/';
          v += std::to_string(k.world);
          if (k.epoch != 1) {
            v += '@';
            v += std::to_string(k.epoch);
          }
          add("rank.kill", v);
        }
        break;
      default:
        break;
    }
  }
  add("seed", std::to_string(seed));
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string pair = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (pair.empty()) continue;  // tolerate "a=1,,b=2" and trailing commas

    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  pair + "'");
    }
    const std::string k = pair.substr(0, eq);
    const std::string v = pair.substr(eq + 1);

    if (k == "seed") {
      char* end = nullptr;
      const unsigned long long s = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || end != v.c_str() + v.size()) {
        throw std::invalid_argument("fault spec: bad seed '" + v + "'");
      }
      plan.seed = s;
    } else if (k == "comm.delay_ms") {
      plan.comm_delay_ms = parse_duration(k, v);
    } else if (k == "rapl.wrap") {
      if (v != "0" && v != "1") {
        throw std::invalid_argument("fault spec: rapl.wrap must be 0 or 1");
      }
      plan.rapl_wrap = v == "1";
    } else if (k == "task.stall_ms") {
      plan.task_stall_ms = parse_duration(k, v);
    } else if (k == "run.stall_ms") {
      plan.run_stall_ms = parse_duration(k, v);
    } else if (k == "serve.burst_copies") {
      const double copies = parse_number(k, v);
      if (copies < 1.0) {
        throw std::invalid_argument(
            "fault spec: serve.burst_copies must be >= 1, got '" + v + "'");
      }
      plan.serve_burst_copies = copies;
    } else if (k == "serve.stall_ms") {
      plan.serve_stall_ms = parse_duration(k, v);
    } else if (k == "rank.kill") {
      // Repeated keys accumulate: a multi-victim chaos schedule is a
      // list of kills, not a single overwritable value.
      plan.rank_kills.push_back(parse_rank_kill(v));
    } else {
      const SiteSpec* match = nullptr;
      for (const SiteSpec& s : kSites) {
        if (k == s.name) {
          match = &s;
          break;
        }
      }
      if (match == nullptr) {
        throw std::invalid_argument("fault spec: unknown key '" + k +
                                    "' (valid keys: " + valid_keys() + ")");
      }
      plan.*match->probability = parse_probability(k, v);
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_env() {
  const char* env = std::getenv("CAPOW_FAULTS");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return parse(env);
}

FaultInjector::FaultInjector(FaultPlan plan) noexcept
    : plan_(std::move(plan)) {}

FaultInjector* FaultInjector::active() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

bool FaultInjector::fire(Site site, std::uint64_t draw_key) const noexcept {
  const double p = plan_.probability(site);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::uint64_t h = mix(
      plan_.seed ^ (static_cast<std::uint64_t>(site) * 0x9e3779b97f4a7c15ull));
  h = mix(h ^ run_key_.load(std::memory_order_relaxed));
  h = mix(h ^ draw_key);
  return to_unit(h) < p;
}

bool FaultInjector::fire_next(Site site) noexcept {
  if (plan_.probability(site) <= 0.0) return false;
  const std::uint64_t seq = seq_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  return fire(site, seq);
}

void FaultInjector::begin_run(std::uint64_t run_key) noexcept {
  run_key_.store(run_key, std::memory_order_relaxed);
  for (auto& s : seq_) s.store(0, std::memory_order_relaxed);
}

FaultCounters FaultInjector::counters() const noexcept {
  FaultCounters out;
  for (std::size_t i = 0; i < kEventCount; ++i) {
    out.by_event[i] = events_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void FaultInjector::reset_counters() noexcept {
  for (auto& e : events_) e.store(0, std::memory_order_relaxed);
}

FaultScope::FaultScope(FaultInjector& injector) noexcept
    : previous_(g_active.exchange(&injector, std::memory_order_relaxed)) {}

FaultScope::~FaultScope() {
  g_active.store(previous_, std::memory_order_relaxed);
}

std::uint64_t key(std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) noexcept {
  std::uint64_t h = mix(a);
  h = mix(h ^ b);
  h = mix(h ^ c);
  return h;
}

double flip_value(double v) noexcept {
  if (std::fabs(v) >= 1.0) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= std::uint64_t{1} << 51;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  return v + 1.0;
}

std::size_t maybe_flip(Site site, std::uint64_t block_key, double* data,
                       std::size_t rows, std::size_t cols,
                       std::size_t ld) noexcept {
  FaultInjector* inj = FaultInjector::active();
  if (inj == nullptr || inj->plan().probability(site) <= 0.0) return 0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = data + i * ld;
    for (std::size_t j = 0; j < cols; ++j) {
      if (inj->fire(site, key(block_key, i, j))) {
        row[j] = flip_value(row[j]);
        ++flips;
      }
    }
  }
  if (flips != 0) {
    inj->record(site == Site::kMemFlip ? Event::kMemFlip : Event::kComputeFlip,
                flips);
  }
  return flips;
}

}  // namespace capow::fault
