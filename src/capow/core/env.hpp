// Shared numeric parsing for environment variables and CLI flags.
//
// Every CAPOW_* numeric knob (the capowd CAPOW_SERVE_* family) and every
// numeric tool flag used to hand-roll its own strtol call, each with a
// different idea of what "12abc" or an out-of-range value means. This
// header is the one implementation they all share: parsing is strict
// (the whole token must be consumed — no trailing junk, no empty
// strings), and range violations throw an error that names the variable
// and the accepted range, so a typo stops the run.
//
// Header-only and dependency-free so any module — telemetry sits below
// core in the build graph — can include it without link-order changes.
#pragma once

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

namespace capow::core {

/// Strictly parses `text` as a base-10 signed integer: the entire token
/// must be digits (with optional leading '-'); "12abc", "", "1.5" all
/// throw std::invalid_argument naming `what` (a variable or flag name).
inline long long parse_integer(const std::string& what,
                               const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument(what + ": expected an integer, got '" +
                                text + "'");
  }
  return v;
}

/// parse_integer() plus an inclusive range check; the error names the
/// variable and the accepted range.
inline long long parse_integer_in(const std::string& what,
                                  const std::string& text, long long lo,
                                  long long hi) {
  const long long v = parse_integer(what, text);
  if (v < lo || v > hi) {
    throw std::invalid_argument(what + ": value " + text +
                                " out of range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Strictly parses `text` as a finite double (whole token consumed).
inline double parse_double(const std::string& what,
                           const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::invalid_argument(what + ": expected a number, got '" + text +
                                "'");
  }
  return v;
}

/// parse_double() plus an inclusive range check naming the variable.
inline double parse_double_in(const std::string& what,
                              const std::string& text, double lo,
                              double hi) {
  const double v = parse_double(what, text);
  if (!(v >= lo && v <= hi)) {
    throw std::invalid_argument(what + ": value " + text +
                                " out of range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Environment lookup: nullopt when `name` is unset or empty (an empty
/// export is "not configured", matching FaultPlan::from_env()).
inline std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

/// Throwing env knob: unset/empty returns nullopt; anything else must
/// parse strictly and land in [lo, hi] or the error names the variable.
inline std::optional<long long> env_integer_in(const char* name,
                                               long long lo, long long hi) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  return parse_integer_in(name, *text, lo, hi);
}

/// Throwing env knob, double-valued.
inline std::optional<double> env_double_in(const char* name, double lo,
                                           double hi) {
  const auto text = env_string(name);
  if (!text) return std::nullopt;
  return parse_double_in(name, *text, lo, hi);
}

}  // namespace capow::core
