// Experiment checkpointing: append-only JSONL of completed runs.
//
// A 48-configuration matrix with 60 s quiesce sleeps takes the better
// part of an hour on real hardware; losing the whole table to one crash
// at configuration 47 is the failure mode this file removes. Each
// completed ResultRecord is appended (and flushed) as one JSON object
// per line, so a killed experiment leaves a valid prefix — at worst one
// torn final line, which the loader skips. Resuming re-runs only the
// configurations that are missing or previously kFailed; successful
// records are replayed verbatim, which keeps resumed tables bit
// identical to an uninterrupted run (doubles round-trip via %.17g).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "capow/harness/experiment.hpp"

namespace capow::harness {

/// Parses a display name ("OpenBLAS", "Strassen", "CAPS") back to the
/// enum; nullopt for anything else.
std::optional<core::AlgorithmId> algorithm_from_name(const std::string& name);

/// One checkpoint line (no trailing newline) for `r`.
std::string checkpoint_line(const ResultRecord& r);

/// Parses one checkpoint line; nullopt for torn/corrupt lines.
std::optional<ResultRecord> parse_checkpoint_line(const std::string& line);

/// Loads every parseable record from a checkpoint file. Missing file =>
/// empty. Torn or corrupt lines are skipped, not fatal; when `skipped`
/// is non-null it receives how many non-empty lines failed to parse (so
/// the caller can report a damaged checkpoint instead of silently
/// re-running the lost work). When a configuration appears more than
/// once (a resumed run re-ran it) the last record wins.
std::vector<ResultRecord> load_checkpoint(const std::string& path,
                                          std::size_t* skipped = nullptr);

/// Append-mode checkpoint writer. Default-constructed writers are
/// inactive no-ops so call sites need no branching.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  /// Opens `path` for writing; `append` preserves existing content
  /// (resume), otherwise the file is truncated. Throws
  /// std::runtime_error when the file cannot be opened.
  CheckpointWriter(const std::string& path, bool append);
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  CheckpointWriter(CheckpointWriter&& other) noexcept;
  CheckpointWriter& operator=(CheckpointWriter&& other) noexcept;

  bool active() const noexcept { return file_ != nullptr; }

  /// Appends one record and flushes, so the line survives a crash
  /// immediately after the run it records.
  void append(const ResultRecord& r);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace capow::harness
