// The line codec shared by the harness's JSONL record files: experiment
// checkpoints (checkpoint.hpp) and comm-audit records (comm_audit.hpp),
// which live side by side in one file. Internal to the harness; the
// record formats themselves are documented with their writers.
//
// Writers emit one flat JSON object per line with doubles at %.17g (so
// they round-trip bit for bit) and strings escaped by
// telemetry::json_escape. Readers pull fields by key with find_value,
// which is enough for these flat, self-written lines and tolerant of
// torn ones: a missing key is reported, not guessed.
#pragma once

#include <functional>
#include <string>

namespace capow::harness::jsonl {

/// %.17g: the shortest form that round-trips an IEEE double, so a
/// replayed record is bit-identical to the one written. (The telemetry
/// JSON exporters use %.6g — fine for dashboards, lossy for resume.)
std::string json_double(double v);

/// Inverse of telemetry::json_escape for the escapes it emits (\" \\ \n
/// \r \t and \u00XX).
std::string json_unescape(const std::string& s);

/// Extracts the raw value text of `"key":` from a single-line JSON
/// object: a string's contents between its quotes (still escaped), or a
/// scalar's text up to the next ',' '}' or ']'. Spaces after the colon
/// are skipped. False when the key is missing or its value is torn.
bool find_value(const std::string& line, const std::string& key,
                std::string& out);

/// Whole-token numeric parses; false on empty or trailing text.
bool parse_double(const std::string& tok, double& out);
bool parse_u64(const std::string& tok, unsigned long long& out);

/// Calls `fn` on each non-empty line of the file at `path`, without its
/// '\n'. A final line without '\n' (a torn write) is passed too; a file
/// that cannot be opened has no lines.
void for_each_line(const std::string& path,
                   const std::function<void(const std::string&)>& fn);

}  // namespace capow::harness::jsonl
