#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

Ledger::Scope::Scope(Ledger* ledger, const char* name)
    : ledger_(ledger), id_(ledger != nullptr ? ledger->open(name) : -1) {}

double Ledger::Scope::stop() {
  if (id_ >= 0) {
    seconds_ = ledger_->close(id_);
    id_ = -1;
  }
  return seconds_;
}

void Ledger::begin_session() {
  spans_.clear();
  stack_.clear();
  session_start_ = Clock::now();
  session_end_ = session_start_;
}

void Ledger::end_session() { session_end_ = Clock::now(); }

int Ledger::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, Clock::now(), {}, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

double Ledger::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = Clock::now();
  // Spans close in LIFO order; a mismatch would be a benchmark bug that
  // the closure check below then reports.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  return seconds_between(s.start, s.end);
}

std::vector<Ledger::Row> Ledger::rows() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::vector<Row> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(Row{s.name, 0, 0.0});
    Row& r = out[it->second];
    r.count += 1;
    r.self_s += seconds_between(s.start, s.end) - child[i];
  }
  return out;
}

double Ledger::wall_s() const {
  return seconds_between(session_start_, session_end_);
}

double Ledger::self_sum_s() const {
  double sum = 0.0;
  for (const Row& r : rows()) sum += r.self_s;
  return sum;
}

double Ledger::untracked_s() const {
  // Walk the top-level spans in start order and add up the gaps; an
  // overlap between top-level spans shows up as a closure error.
  std::vector<const Span*> roots;
  for (const Span& s : spans_) {
    if (s.parent < 0) roots.push_back(&s);
  }
  std::sort(roots.begin(), roots.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  double gaps = 0.0;
  Clock::time_point cursor = session_start_;
  for (const Span* s : roots) {
    if (s->start > cursor) gaps += seconds_between(cursor, s->start);
    cursor = std::max(cursor, s->end);
  }
  if (session_end_ > cursor) gaps += seconds_between(cursor, session_end_);
  return gaps;
}

double Ledger::closure_error() const {
  const double wall = wall_s();
  if (wall <= 0.0) return 0.0;
  return std::fabs(self_sum_s() + untracked_s() - wall) / wall;
}

bool Ledger::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - session_start_)
            .count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", s.name, ts, dur);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
