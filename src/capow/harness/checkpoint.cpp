#include "capow/harness/checkpoint.hpp"

#include <cstdio>
#include <stdexcept>

#include "capow/harness/jsonl.hpp"
#include "capow/telemetry/export.hpp"

namespace capow::harness {

namespace {

using jsonl::find_value;
using jsonl::json_double;
using jsonl::parse_double;
using jsonl::parse_u64;

RunStatus status_from_name(const std::string& name, bool& ok) {
  ok = true;
  if (name == "ok") return RunStatus::kOk;
  if (name == "retried") return RunStatus::kRetried;
  if (name == "corrected") return RunStatus::kCorrected;
  if (name == "degraded") return RunStatus::kDegraded;
  if (name == "failed") return RunStatus::kFailed;
  ok = false;
  return RunStatus::kOk;
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
  out += ",\"error\":\"" + telemetry::json_escape(r.error) + "\"";
  // RAPL measurement-health fields appear only when set, so clean runs
  // emit lines byte-identical to the older format (resume flows diff
  // checkpoint bytes).
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

  if (find_value(line, "error", tok)) r.error = jsonl::json_unescape(tok);

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
  jsonl::for_each_line(path, [&](const std::string& line) {
    // Checkpoint files are shared with the comm-audit records
    // (comm_audit.hpp); those lines are a different kind, not damage.
    if (line.find("\"kind\":\"comm_audit\"") != std::string::npos) return;
    auto rec = parse_checkpoint_line(line);
    if (!rec) {
      if (skipped != nullptr) ++*skipped;
      return;
    }
    // Last record for a configuration wins (a resumed run may have
    // re-run a previously failed configuration).
    for (auto& existing : out) {
      if (existing.algorithm == rec->algorithm && existing.n == rec->n &&
          existing.threads == rec->threads) {
        existing = std::move(*rec);
        return;
      }
    }
    out.push_back(std::move(*rec));
  });
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
