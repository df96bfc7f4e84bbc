#include "capow/harness/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace capow::harness {

namespace {

RunStatus status_from_name(const std::string& name, bool& ok) {
  ok = true;
  if (name == "ok") return RunStatus::kOk;
  if (name == "retried") return RunStatus::kRetried;
  if (name == "corrected") return RunStatus::kCorrected;
  if (name == "degraded") return RunStatus::kDegraded;
  if (name == "recovered") return RunStatus::kRecovered;
  if (name == "failed") return RunStatus::kFailed;
  ok = false;
  return RunStatus::kOk;
}

/// %.17g: shortest representation that round-trips an IEEE double, so a
/// resumed table is bit-identical to the uninterrupted one. (The
/// telemetry JSON exporters use %.6g — fine for dashboards, lossy for
/// resume.)
std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtol(s.substr(i + 1, 4).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default:
        out += s[i];
    }
  }
  return out;
}

/// Extracts the raw value text of `"key":` from a single-line JSON
/// object; false when the key is missing (torn line).
bool find_value(const std::string& line, const std::string& key,
                std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t pos = at + needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    // String value: scan to the next unescaped quote.
    std::size_t end = pos + 1;
    while (end < line.size()) {
      if (line[end] == '\\') {
        end += 2;
        continue;
      }
      if (line[end] == '"') break;
      ++end;
    }
    if (end >= line.size()) return false;
    out = line.substr(pos + 1, end - pos - 1);
    return true;
  }
  std::size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == pos) return false;
  out = line.substr(pos, end - pos);
  return true;
}

bool parse_double(const std::string& tok, double& out) {
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return !tok.empty() && end == tok.c_str() + tok.size();
}

bool parse_u64(const std::string& tok, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(tok.c_str(), &end, 10);
  return !tok.empty() && end == tok.c_str() + tok.size();
}

}  // namespace

std::optional<core::AlgorithmId> algorithm_from_name(const std::string& name) {
  const core::AlgorithmInfo* info = core::find_algorithm(name);
  if (info == nullptr) return std::nullopt;
  return info->id;
}

std::string checkpoint_line(const ResultRecord& r) {
  std::string out = "{";
  out += "\"algorithm\":\"" +
         std::string(core::algorithm_name(r.algorithm)) + "\"";
  out += ",\"n\":" + std::to_string(r.n);
  out += ",\"threads\":" + std::to_string(r.threads);
  out += ",\"seconds\":" + json_double(r.seconds);
  out += ",\"package_watts\":" + json_double(r.package_watts);
  out += ",\"pp0_watts\":" + json_double(r.pp0_watts);
  out += ",\"package_energy_j\":" + json_double(r.package_energy_j);
  out += ",\"ep\":" + json_double(r.ep);
  out += ",\"status\":\"" + std::string(to_string(r.status)) + "\"";
  out += ",\"attempts\":" + std::to_string(r.attempts);
  out += ",\"error\":\"" + json_escape(r.error) + "\"";
  // Recovery fields appear only when set, so runs that never exercised
  // elastic recovery emit lines byte-identical to the pre-recovery
  // format (resume flows diff checkpoint bytes).
  if (!r.failed_ranks.empty()) {
    out += ",\"failed_ranks\":[";
    for (std::size_t i = 0; i < r.failed_ranks.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(r.failed_ranks[i]);
    }
    out += "]";
  }
  if (r.recovery_ns > 0) {
    out += ",\"recovery_ns\":" + std::to_string(r.recovery_ns);
  }
  // RAPL measurement-health fields follow the same only-when-set rule.
  if (r.rapl_wraps > 0) {
    out += ",\"rapl_wraps\":" + std::to_string(r.rapl_wraps);
  }
  if (r.rapl_retries > 0) {
    out += ",\"rapl_retries\":" + std::to_string(r.rapl_retries);
  }
  out += "}";
  return out;
}

std::optional<ResultRecord> parse_checkpoint_line(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  ResultRecord r;
  std::string tok;

  if (!find_value(line, "algorithm", tok)) return std::nullopt;
  const auto algo = algorithm_from_name(tok);
  if (!algo) return std::nullopt;
  r.algorithm = *algo;

  unsigned long long u = 0;
  if (!find_value(line, "n", tok) || !parse_u64(tok, u)) return std::nullopt;
  r.n = static_cast<std::size_t>(u);
  if (!find_value(line, "threads", tok) || !parse_u64(tok, u)) {
    return std::nullopt;
  }
  r.threads = static_cast<unsigned>(u);

  const struct {
    const char* key;
    double* dst;
  } doubles[] = {
      {"seconds", &r.seconds},
      {"package_watts", &r.package_watts},
      {"pp0_watts", &r.pp0_watts},
      {"package_energy_j", &r.package_energy_j},
      {"ep", &r.ep},
  };
  for (const auto& [dkey, dst] : doubles) {
    if (!find_value(line, dkey, tok) || !parse_double(tok, *dst)) {
      return std::nullopt;
    }
  }

  if (!find_value(line, "status", tok)) return std::nullopt;
  bool ok = false;
  r.status = status_from_name(tok, ok);
  if (!ok) return std::nullopt;

  if (!find_value(line, "attempts", tok) || !parse_u64(tok, u)) {
    return std::nullopt;
  }
  r.attempts = static_cast<int>(u);

  if (find_value(line, "error", tok)) r.error = json_unescape(tok);

  // Optional recovery fields (absent on pre-recovery lines).
  // find_value's scalar scan stops at commas, so the rank array is
  // extracted by bracket instead.
  const std::string ranks_needle = "\"failed_ranks\":[";
  const std::size_t ranks_at = line.find(ranks_needle);
  if (ranks_at != std::string::npos) {
    std::size_t pos = ranks_at + ranks_needle.size();
    const std::size_t end = line.find(']', pos);
    if (end == std::string::npos) return std::nullopt;
    while (pos < end) {
      std::size_t stop = line.find(',', pos);
      if (stop == std::string::npos || stop > end) stop = end;
      if (!parse_u64(line.substr(pos, stop - pos), u)) return std::nullopt;
      r.failed_ranks.push_back(static_cast<int>(u));
      pos = stop + 1;
    }
  }
  if (find_value(line, "recovery_ns", tok)) {
    if (!parse_u64(tok, u)) return std::nullopt;
    r.recovery_ns = static_cast<std::uint64_t>(u);
  }
  if (find_value(line, "rapl_wraps", tok)) {
    if (!parse_u64(tok, u)) return std::nullopt;
    r.rapl_wraps = static_cast<std::uint64_t>(u);
  }
  if (find_value(line, "rapl_retries", tok)) {
    if (!parse_u64(tok, u)) return std::nullopt;
    r.rapl_retries = static_cast<std::uint64_t>(u);
  }
  return r;
}

std::vector<ResultRecord> load_checkpoint(const std::string& path,
                                          std::size_t* skipped) {
  std::vector<ResultRecord> out;
  if (skipped != nullptr) *skipped = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string line;
  int c = 0;
  const auto flush_line = [&] {
    if (line.empty()) return;
    // Checkpoint files are shared with the comm-audit records
    // (comm_audit.hpp); those lines are a different kind, not damage.
    if (line.find("\"kind\":\"comm_audit\"") != std::string::npos) {
      line.clear();
      return;
    }
    if (auto rec = parse_checkpoint_line(line)) {
      // Last record for a configuration wins (a resumed run may have
      // re-run a previously failed configuration).
      bool replaced = false;
      for (auto& existing : out) {
        if (existing.algorithm == rec->algorithm && existing.n == rec->n &&
            existing.threads == rec->threads) {
          existing = *rec;
          replaced = true;
          break;
        }
      }
      if (!replaced) out.push_back(*rec);
    } else if (skipped != nullptr) {
      ++*skipped;
    }
    line.clear();
  };
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      flush_line();
    } else {
      line += static_cast<char>(c);
    }
  }
  flush_line();  // a final line without '\n' is torn but may parse
  std::fclose(f);
  return out;
}

CheckpointWriter::CheckpointWriter(const std::string& path, bool append)
    : file_(std::fopen(path.c_str(), append ? "ab" : "wb")) {
  if (file_ == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

CheckpointWriter::CheckpointWriter(CheckpointWriter&& other) noexcept
    : file_(other.file_) {
  other.file_ = nullptr;
}

CheckpointWriter& CheckpointWriter::operator=(
    CheckpointWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void CheckpointWriter::append(const ResultRecord& r) {
  if (file_ == nullptr) return;
  const std::string line = checkpoint_line(r) + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

}  // namespace capow::harness
