// One flag table per command-line tool. Each row names a flag, its
// value, its help line, the modes that read it and the code that stores
// it. parse() walks argv against the table and prints --help from it;
// an unknown flag, a malformed value, a second mode flag or a flag the
// chosen mode does not read exits 2 with a message naming the flag.
// Numbers go through core/env.hpp's strict grammar.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "capow/core/env.hpp"

namespace capow::cli {

/// A flag's value: the text after '='.
using Arg = const std::string&;

/// Flag::modes for a flag every mode reads.
inline constexpr unsigned kAllModes = ~0u;

/// `spelling` is "--name=VALUE" for a flag with a value and "--name" for
/// a switch. `store` throws on a malformed value.
template <typename Options>
struct Flag {
  const char* spelling;
  const char* help;
  unsigned modes;  // bit i set: Tool::modes[i] reads the flag
  void (*store)(Options&, Arg);
};

/// modes[0] has no flag: it runs when no mode flag is given.
template <typename Options>
struct Mode {
  const char* flag;
  const char* help;
  int (*run)(const Options&);
};

template <typename Options>
struct Tool {
  const char* name;
  const char* usage;       // the usage line after the tool's name
  const char* exit_codes;  // the last line of --help
  std::vector<Mode<Options>> modes;
  std::vector<Flag<Options>> flags;
  // Exactly `operands` non-flag arguments, each passed to store_operand.
  std::size_t operands = 0;
  void (*store_operand)(Options&, Arg) = nullptr;
  bool short_help = false;  // -h also prints --help
};

/// Splits a comma list; an empty element ("a,,b", "a,", "") throws.
inline std::vector<std::string> split_list(const std::string& flag,
                                           const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = text.find(',', pos);
    out.push_back(text.substr(pos, comma - pos));
    if (out.back().empty()) {
      throw std::invalid_argument(flag + ": empty element in '" + text + "'");
    }
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

/// The store of a flag whose value is kept verbatim, such as a path.
template <auto Member, typename Options>
void assign(Options& opts, Arg value) {
  opts.*Member = value;
}

/// split_list() with each element parsed by core::parse_integer_in.
template <typename T>
std::vector<T> parse_integer_list(const std::string& flag,
                                  const std::string& text, long long lo,
                                  long long hi) {
  std::vector<T> out;
  for (const std::string& tok : split_list(flag, text)) {
    out.push_back(static_cast<T>(core::parse_integer_in(flag, tok, lo, hi)));
  }
  return out;
}

/// "--name" of a flag spelled "--name" or "--name=VALUE".
inline std::string name_of(const char* spelling) {
  return std::string(spelling, std::strcspn(spelling, "="));
}

/// The modes in `mask`, by flag ("default" for modes[0]).
template <typename Options>
std::string mode_names(const Tool<Options>& tool, unsigned mask) {
  std::string out;
  for (std::size_t i = 0; i < tool.modes.size(); ++i) {
    if (((mask >> i) & 1u) == 0) continue;
    if (!out.empty()) out += ' ';
    out += i == 0 ? "default" : tool.modes[i].flag;
  }
  return out;
}

template <typename Options>
void print_help(const Tool<Options>& tool) {
  std::printf("usage: %s %s\nmodes (at most one):\n", tool.name, tool.usage);
  for (std::size_t i = 0; i < tool.modes.size(); ++i) {
    std::printf("  %-32s %s\n", mode_names(tool, 1u << i).c_str(),
                tool.modes[i].help);
  }
  std::printf("flags [the modes that read them, if not all]:\n");
  for (const Flag<Options>& f : tool.flags) {
    std::printf("  %-32s %s\n", f.spelling, f.help);
    if (f.modes != kAllModes) {
      std::printf("  %-32s [%s]\n", "", mode_names(tool, f.modes).c_str());
    }
  }
  std::printf("  %-32s this text\n%s\n", "--help", tool.exit_codes);
}

/// Parses argv into `opts` and returns the mode to run. --help prints
/// the table and exits 0; a usage error exits 2.
template <typename Options>
const Mode<Options>& parse(int argc, char** argv, const Tool<Options>& tool,
                           Options& opts) {
  const auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "%s: %s (see --help)\n", tool.name, msg.c_str());
    std::exit(2);
  };
  std::size_t mode = 0, operands = 0;
  std::vector<const Flag<Options>*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || (tool.short_help && arg == "-h")) {
      print_help(tool);
      std::exit(0);
    }
    if (tool.store_operand != nullptr && arg.rfind("--", 0) != 0) {
      tool.store_operand(opts, arg);
      ++operands;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string key = arg.substr(0, eq);
    std::size_t m = 1;
    while (m < tool.modes.size() && key != tool.modes[m].flag) ++m;
    if (m < tool.modes.size()) {
      if (has_value) fail(key + " takes no value");
      if (mode != 0 && mode != m) {
        fail(std::string(tool.modes[mode].flag) + " and " + key +
             " are separate modes; give at most one");
      }
      mode = m;
      continue;
    }
    const Flag<Options>* flag = nullptr;
    for (const Flag<Options>& f : tool.flags) {
      if (name_of(f.spelling) == key) flag = &f;
    }
    if (flag == nullptr) fail("unknown flag '" + arg + "'");
    const bool takes_value = std::strchr(flag->spelling, '=') != nullptr;
    if (has_value != takes_value) {
      fail(has_value ? key + " takes no value"
                     : key + " needs a value: " + flag->spelling);
    }
    try {
      flag->store(opts, has_value ? arg.substr(eq + 1) : std::string());
    } catch (const std::exception& e) {
      fail("bad argument '" + arg + "': " + e.what());
    }
    given.push_back(flag);
  }
  for (const Flag<Options>* f : given) {
    if (((f->modes >> mode) & 1u) == 0) {
      fail(name_of(f->spelling) + " is not read by mode " +
           mode_names(tool, 1u << mode) +
           " (read by: " + mode_names(tool, f->modes) + ")");
    }
  }
  if (operands != tool.operands) {
    fail("expected " + std::to_string(tool.operands) + " operand(s), got " +
         std::to_string(operands));
  }
  return tool.modes[mode];
}

}  // namespace capow::cli
