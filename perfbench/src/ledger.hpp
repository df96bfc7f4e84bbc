// In-memory span ledger for the traced run.
//
// The benchmark records a span around each call it makes into a capow
// layer (no spans are added inside the program). Spans nest on one
// thread; a span's self time is its duration minus the time its direct
// children cover. The sum of every self time plus the untracked gaps
// between top-level spans equals the session's wall time — the
// wall-clock form of the conservation ledger the profiler applies to
// modelled joules. With scoped spans on one thread that is an identity
// (closure_error() only catches spans that fail to nest); the runner
// cross-checks the spans against its own clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Ledger {
 public:
  /// RAII span; stop() closes it early and returns its seconds. A null
  /// ledger records nothing (untraced runs).
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name);
    Scope(Ledger& ledger, const char* name) : Scope(&ledger, name) {}
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double stop();

   private:
    Ledger* ledger_;
    int id_;
    double seconds_ = 0.0;
  };

  /// Starts the wall-clock session every span must fall inside.
  void begin_session();
  void end_session();

  struct Row {
    std::string name;
    std::size_t count = 0;
    double self_s = 0.0;
  };
  /// Self time per span name, in first-seen order.
  std::vector<Row> rows() const;

  double wall_s() const;
  double self_sum_s() const;
  /// Wall time covered by no top-level span, from the gaps between them.
  double untracked_s() const;
  /// |Σ self + untracked − wall| / wall.
  double closure_error() const;

  /// Chrome trace-event JSON (open in chrome://tracing or Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  int open(const char* name);
  double close(int id);

  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point session_start_{};
  Clock::time_point session_end_{};
};

}  // namespace perfbench
