#include "capow/harness/comm_audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "capow/abft/abft.hpp"
#include "capow/core/comm_bounds.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/summa.hpp"
#include "capow/harness/jsonl.hpp"
#include "capow/linalg/random.hpp"

namespace capow::harness {

namespace {

constexpr std::uint64_t kSeedA = 80;
constexpr std::uint64_t kSeedB = 81;

using jsonl::find_value;
using jsonl::json_double;
using jsonl::parse_double;
using jsonl::parse_u64;

/// Parses `"key":[[u,u,...],[...],...]` into rows of unsigned values.
bool parse_u64_rows(const std::string& line, const std::string& key,
                    std::vector<std::vector<std::uint64_t>>& rows) {
  rows.clear();
  const std::string needle = "\"" + key + "\":[";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] != '[') return false;
    ++pos;
    std::vector<std::uint64_t> row;
    std::string tok;
    for (; pos < line.size(); ++pos) {
      const char c = line[pos];
      if (c >= '0' && c <= '9') {
        tok += c;
        continue;
      }
      if (c == ',' || c == ']') {
        unsigned long long u = 0;
        if (!parse_u64(tok, u)) return false;
        row.push_back(static_cast<std::uint64_t>(u));
        tok.clear();
        if (c == ']') {
          ++pos;
          break;
        }
        continue;
      }
      return false;
    }
    rows.push_back(std::move(row));
  }
  return pos < line.size() && line[pos] == ']';
}

bool arg_is(const telemetry::EventRecord& rec, int slot, const char* name) {
  return rec.arg_name[slot] != nullptr &&
         std::strcmp(rec.arg_name[slot], name) == 0;
}

/// Flow id of one delivered message: the (src, dst) channel index
/// scaled past any realistic per-channel sequence count.
std::uint64_t flow_id(int src, int dst, int ranks, std::uint64_t seq) {
  const std::uint64_t channel =
      static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(ranks) +
      static_cast<std::uint64_t>(dst);
  return (channel << 40) | (seq & ((std::uint64_t{1} << 40) - 1));
}

std::string si_bytes(std::uint64_t bytes) {
  return bytes == 0 ? "." : std::to_string(bytes);
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

CommAuditOptions::CommAuditOptions() : machine(machine::haswell_e3_1225()) {}

std::vector<CommAuditPoint> default_comm_audit_points() {
  return {
      {"summa", 64, 4},
      {"summa", 128, 16},
      // dist-CAPS computes locally below its distribute threshold (64),
      // so its audit points start one doubling above it.
      {"dist_caps", 128, 4},
      {"dist_caps", 256, 7},
  };
}

CommAuditRecord run_comm_audit(const CommAuditPoint& point,
                               const CommAuditOptions& opts,
                               std::vector<telemetry::TraceEvent>* events,
                               std::uint64_t* trace_start_ns) {
  if (point.n == 0 || point.ranks < 1) {
    throw std::invalid_argument("comm audit: bad n or ranks");
  }
  const bool is_summa = point.algorithm == "summa";
  const bool is_caps = point.algorithm == "dist_caps";
  if (!is_summa && !is_caps) {
    throw std::invalid_argument("comm audit: unknown algorithm '" +
                                point.algorithm + "'");
  }
  dist::GridSpec grid;
  if (is_summa) {
    const int side = static_cast<int>(std::lround(
        std::sqrt(static_cast<double>(point.ranks))));
    if (side * side != point.ranks ||
        point.n % static_cast<std::size_t>(side) != 0) {
      throw std::invalid_argument(
          "comm audit: summa needs a square rank count whose side divides n");
    }
    grid = dist::GridSpec{side, side, 1};
  }

  // Deterministic operands; ABFT explicitly off so the wire carries raw
  // payloads and the byte matrix is canonical regardless of CAPOW_ABFT.
  linalg::Matrix a = linalg::random_matrix(point.n, point.n, kSeedA);
  linalg::Matrix b = linalg::random_matrix(point.n, point.n, kSeedB);
  linalg::Matrix c(point.n, point.n);
  abft::AbftConfig abft_cfg;
  abft_cfg.mode = abft::AbftMode::kOff;

  dist::World world(point.ranks);
  const auto body = [&](dist::Communicator& comm) {
    linalg::Matrix empty;
    const bool root = comm.rank() == 0;
    if (is_summa) {
      dist::summa_multiply(comm, grid, root ? a.view() : empty.view(),
                           root ? b.view() : empty.view(),
                           root ? c.view() : empty.view(), abft_cfg);
    } else {
      dist::dist_caps_multiply(comm, root ? a.view() : empty.view(),
                               root ? b.view() : empty.view(),
                               root ? c.view() : empty.view());
    }
  };

  // A CommError (injected loss budget exhausted, poisoned world) ends
  // the collective but not the audit: the teardown merge keeps every
  // counter written before the failure, and the record carries the
  // error so the report can flag the partial run.
  std::string error;
  const auto guarded_run = [&] {
    try {
      world.run(body);
    } catch (const dist::CommError& e) {
      error = e.what();
    }
  };
  if (opts.collect_trace && events != nullptr) {
    telemetry::Tracer tracer;
    telemetry::TracingScope scope(tracer);
    guarded_run();
    *events = tracer.collect();
    if (trace_start_ns != nullptr) *trace_start_ns = tracer.start_ns();
  } else {
    guarded_run();
  }

  CommAuditRecord r;
  r.error = std::move(error);
  r.algorithm = point.algorithm;
  r.n = point.n;
  r.ranks = point.ranks;
  r.matrix = world.comm_stats();
  r.m_words = core::fast_memory_words_per_core(opts.machine);
  r.strassen_bound_words = core::caps_communication_bound_words(
      point.n, static_cast<unsigned>(point.ranks), r.m_words);
  r.classical_bound_words = core::classical_communication_bound_words(
      point.n, static_cast<unsigned>(point.ranks), r.m_words);
  r.measured_max_rank_words =
      static_cast<double>(r.matrix.max_rank_bytes()) / sizeof(double);
  r.bound_kind = is_caps ? "strassen" : "classical";
  const double bound =
      is_caps ? r.strassen_bound_words : r.classical_bound_words;
  r.ratio_to_bound = bound > 0.0 ? r.measured_max_rank_words / bound : 0.0;
  return r;
}

std::string comm_audit_line(const CommAuditRecord& r) {
  // Built by appends only: GCC 12's -Wrestrict misfires on inlined
  // std::string operator+.
  std::string out = "{\"kind\":\"comm_audit\"";
  const auto key = [&](const char* name) {
    out += ",\"";
    out += name;
    out += "\":";
  };
  const auto text = [&](const char* name, const std::string& v) {
    key(name);
    out += '"';
    out += v;
    out += '"';
  };
  const auto number = [&](const char* name, const std::string& v) {
    key(name);
    out += v;
  };
  const auto row = [&](std::initializer_list<std::uint64_t> values) {
    char sep = '[';
    for (const std::uint64_t v : values) {
      out += sep;
      out += std::to_string(v);
      sep = ',';
    }
    out += ']';
  };
  text("algorithm", r.algorithm);
  number("n", std::to_string(r.n));
  number("ranks", std::to_string(r.ranks));
  number("m_words", json_double(r.m_words));
  number("strassen_bound_words", json_double(r.strassen_bound_words));
  number("classical_bound_words", json_double(r.classical_bound_words));
  number("measured_max_rank_words", json_double(r.measured_max_rank_words));
  number("ratio_to_bound", json_double(r.ratio_to_bound));
  text("bound_kind", r.bound_kind);
  text("error", telemetry::json_escape(r.error));
  key("edges");
  out += '[';
  for (int s = 0; s < r.ranks; ++s) {
    for (int d = 0; d < r.ranks; ++d) {
      const dist::EdgeStats& e = r.matrix.edge(s, d);
      if (s != 0 || d != 0) out += ',';
      row({e.messages, e.payload_bytes, e.retransmits, e.corruptions,
           e.recv_messages, e.recv_bytes, e.send_block_ns});
    }
  }
  out += ']';
  key("rank_stats");
  out += '[';
  for (int k = 0; k < r.ranks; ++k) {
    const dist::RankStats& s = r.matrix.rank(k);
    if (k != 0) out += ',';
    row({s.recv_wait_ns, s.barrier_wait_ns, s.barriers, s.send_failures,
         s.active_ns});
  }
  out += "]}";
  return out;
}

bool parse_comm_audit_line(const std::string& line, CommAuditRecord& out) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string tok;
  if (!find_value(line, "kind", tok) || tok != "comm_audit") return false;

  CommAuditRecord r;
  if (!find_value(line, "algorithm", tok)) return false;
  r.algorithm = tok;
  unsigned long long u = 0;
  if (!find_value(line, "n", tok) || !parse_u64(tok, u)) return false;
  r.n = static_cast<std::size_t>(u);
  if (!find_value(line, "ranks", tok) || !parse_u64(tok, u)) return false;
  r.ranks = static_cast<int>(u);
  if (r.ranks < 1 || r.ranks > 4096) return false;

  const struct {
    const char* key;
    double* dst;
  } doubles[] = {
      {"m_words", &r.m_words},
      {"strassen_bound_words", &r.strassen_bound_words},
      {"classical_bound_words", &r.classical_bound_words},
      {"measured_max_rank_words", &r.measured_max_rank_words},
      {"ratio_to_bound", &r.ratio_to_bound},
  };
  for (const auto& [key, dst] : doubles) {
    if (!find_value(line, key, tok) || !parse_double(tok, *dst)) return false;
  }
  if (!find_value(line, "bound_kind", tok)) return false;
  r.bound_kind = tok;
  if (find_value(line, "error", tok)) r.error = jsonl::json_unescape(tok);

  std::vector<std::vector<std::uint64_t>> rows;
  if (!parse_u64_rows(line, "edges", rows)) return false;
  const std::size_t p = static_cast<std::size_t>(r.ranks);
  if (rows.size() != p * p) return false;
  r.matrix = dist::CommMatrix(r.ranks);
  for (int s = 0; s < r.ranks; ++s) {
    for (int d = 0; d < r.ranks; ++d) {
      const auto& row = rows[static_cast<std::size_t>(s) * p +
                             static_cast<std::size_t>(d)];
      if (row.size() != 7) return false;
      dist::EdgeStats& e = r.matrix.edge(s, d);
      e.messages = row[0];
      e.payload_bytes = row[1];
      e.retransmits = row[2];
      e.corruptions = row[3];
      e.recv_messages = row[4];
      e.recv_bytes = row[5];
      e.send_block_ns = row[6];
    }
  }
  if (!parse_u64_rows(line, "rank_stats", rows) || rows.size() != p) {
    return false;
  }
  for (int k = 0; k < r.ranks; ++k) {
    const auto& row = rows[static_cast<std::size_t>(k)];
    if (row.size() != 5) return false;
    dist::RankStats& s = r.matrix.rank(k);
    s.recv_wait_ns = row[0];
    s.barrier_wait_ns = row[1];
    s.barriers = row[2];
    s.send_failures = row[3];
    s.active_ns = row[4];
  }
  out = std::move(r);
  return true;
}

std::vector<CommAuditRecord> load_comm_audits(const std::string& path) {
  std::vector<CommAuditRecord> out;
  jsonl::for_each_line(path, [&](const std::string& line) {
    CommAuditRecord rec;
    if (!parse_comm_audit_line(line, rec)) return;
    for (auto& existing : out) {
      if (existing.algorithm == rec.algorithm && existing.n == rec.n &&
          existing.ranks == rec.ranks) {
        existing = std::move(rec);
        return;
      }
    }
    out.push_back(std::move(rec));
  });
  return out;
}

TextTable comm_matrix_table(const CommAuditRecord& r) {
  std::vector<std::string> headers{"src\\dst"};
  for (int d = 0; d < r.ranks; ++d) headers.push_back(std::to_string(d));
  headers.push_back("row total");
  TextTable t(std::move(headers));
  for (int s = 0; s < r.ranks; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    for (int d = 0; d < r.ranks; ++d) {
      row.push_back(si_bytes(r.matrix.edge(s, d).payload_bytes));
    }
    row.push_back(std::to_string(r.matrix.bytes_sent_by(s)));
    t.add_row(std::move(row));
  }
  return t;
}

TextTable comm_bound_table(const std::vector<CommAuditRecord>& records) {
  TextTable t({"algorithm", "n", "P", "M words", "measured max words",
               "strassen bound", "classical bound", "bound", "ratio",
               "verdict", "run"});
  for (const CommAuditRecord& r : records) {
    t.add_row({r.algorithm, std::to_string(r.n), std::to_string(r.ranks),
               fmt(r.m_words, 0), fmt(r.measured_max_rank_words, 0),
               fmt(r.strassen_bound_words, 0),
               fmt(r.classical_bound_words, 0), r.bound_kind,
               fmt(r.ratio_to_bound, 2),
               r.ratio_to_bound >= 1.0 ? ">= bound (ok)" : "BELOW BOUND",
               r.completed() ? "ok" : "poisoned"});
  }
  return t;
}

TextTable comm_critical_path_table(const CommAuditRecord& r) {
  TextTable t({"rank", "active ms", "compute ms", "recv wait ms",
               "barrier skew ms", "send block ms", "critical"});
  std::uint64_t max_active = 0;
  for (int k = 0; k < r.ranks; ++k) {
    max_active = std::max(max_active, r.matrix.rank(k).active_ns);
  }
  for (int k = 0; k < r.ranks; ++k) {
    const dist::RankStats& s = r.matrix.rank(k);
    std::uint64_t send_block = 0;
    for (int d = 0; d < r.ranks; ++d) {
      send_block += r.matrix.edge(k, d).send_block_ns;
    }
    const std::uint64_t blocked =
        s.recv_wait_ns + s.barrier_wait_ns + send_block;
    const std::uint64_t compute =
        s.active_ns > blocked ? s.active_ns - blocked : 0;
    t.add_row({std::to_string(k), fmt(ms(s.active_ns), 3),
               fmt(ms(compute), 3), fmt(ms(s.recv_wait_ns), 3),
               fmt(ms(s.barrier_wait_ns), 3), fmt(ms(send_block), 3),
               s.active_ns == max_active ? "*" : ""});
  }
  return t;
}

void export_comm_metrics(telemetry::MetricsRegistry& registry,
                         const std::vector<CommAuditRecord>& records) {
  if (records.empty()) return;
  const auto point_labels = [](const CommAuditRecord& r) {
    return telemetry::MetricsRegistry::Labels{
        {"algorithm", r.algorithm},
        {"n", std::to_string(r.n)},
        {"ranks", std::to_string(r.ranks)},
    };
  };

  registry.family("capow_comm_bytes_total",
                  "Measured payload bytes per (src, dst) rank edge",
                  "counter");
  for (const CommAuditRecord& r : records) {
    for (int s = 0; s < r.ranks; ++s) {
      for (int d = 0; d < r.ranks; ++d) {
        const dist::EdgeStats& e = r.matrix.edge(s, d);
        if (e.payload_bytes == 0) continue;
        auto labels = point_labels(r);
        labels.emplace_back("src", std::to_string(s));
        labels.emplace_back("dst", std::to_string(d));
        registry.sample(labels, static_cast<double>(e.payload_bytes));
      }
    }
  }

  registry.family("capow_comm_messages_total",
                  "Messages delivered per (src, dst) rank edge", "counter");
  for (const CommAuditRecord& r : records) {
    for (int s = 0; s < r.ranks; ++s) {
      for (int d = 0; d < r.ranks; ++d) {
        const dist::EdgeStats& e = r.matrix.edge(s, d);
        if (e.messages == 0) continue;
        auto labels = point_labels(r);
        labels.emplace_back("src", std::to_string(s));
        labels.emplace_back("dst", std::to_string(d));
        registry.sample(labels, static_cast<double>(e.messages));
      }
    }
  }

  registry.family("capow_comm_retransmits_total",
                  "Retransmitted delivery attempts (fault injection)",
                  "counter");
  for (const CommAuditRecord& r : records) {
    registry.sample(point_labels(r),
                    static_cast<double>(r.matrix.total_retransmits()));
  }

  registry.family("capow_comm_corruptions_total",
                  "Link-CRC-detected corrupt frames (fault injection)",
                  "counter");
  for (const CommAuditRecord& r : records) {
    registry.sample(point_labels(r),
                    static_cast<double>(r.matrix.total_corruptions()));
  }

  registry.family(
      "capow_comm_measured_words",
      "Busiest rank's measured traffic in words (max over ranks of "
      "sent + received bytes / 8)",
      "gauge");
  for (const CommAuditRecord& r : records) {
    registry.sample(point_labels(r), r.measured_max_rank_words);
  }

  registry.family("capow_comm_bound_ratio",
                  "Measured max-rank words over the algorithm's "
                  "communication lower bound (>= 1.0 expected)",
                  "gauge");
  for (const CommAuditRecord& r : records) {
    auto labels = point_labels(r);
    labels.emplace_back("bound", r.bound_kind);
    registry.sample(labels, r.ratio_to_bound);
  }
}

void append_comm_trace(telemetry::ChromeTraceWriter& writer,
                       const std::string& process_name, int pid,
                       const std::vector<telemetry::TraceEvent>& events,
                       int ranks, std::uint64_t base_ns) {
  writer.set_process_name(pid, process_name);
  for (int r = 0; r < ranks; ++r) {
    writer.set_thread_name(pid, r, "rank " + std::to_string(r));
  }
  for (const telemetry::TraceEvent& e : events) {
    const telemetry::EventRecord& rec = e.rec;
    if (rec.rank < 0 || rec.rank >= ranks || rec.name == nullptr) continue;
    const int tid = rec.rank;
    const double ts_us =
        rec.t_begin_ns >= base_ns
            ? static_cast<double>(rec.t_begin_ns - base_ns) / 1e3
            : 0.0;
    const double end_us =
        rec.t_end_ns >= base_ns
            ? static_cast<double>(rec.t_end_ns - base_ns) / 1e3
            : ts_us;
    const std::string name = rec.name;
    const std::string cat = rec.category != nullptr ? rec.category : "";
    switch (rec.kind) {
      case telemetry::EventKind::kSpan: {
        telemetry::ChromeTraceWriter::Args args;
        for (int i = 0; i < telemetry::EventRecord::kMaxArgs; ++i) {
          if (rec.arg_name[i] != nullptr) {
            args.emplace_back(rec.arg_name[i],
                              static_cast<double>(rec.arg[i]));
          }
        }
        writer.add_complete(pid, tid, name, cat, ts_us, end_us - ts_us,
                            std::move(args));
        // Matched send/recv pairs share a per-channel sequence number;
        // emit the flow arrow the pair is joined on.
        if (name == "comm.send" && arg_is(rec, 0, "dest") &&
            arg_is(rec, 2, "seq")) {
          const int dst = static_cast<int>(rec.arg[0]);
          if (dst >= 0 && dst < ranks) {
            writer.add_flow_start(
                pid, tid, "comm.msg", "dist", end_us,
                flow_id(tid, dst, ranks,
                        static_cast<std::uint64_t>(rec.arg[2])));
          }
        } else if (name == "comm.recv" && arg_is(rec, 0, "source") &&
                   arg_is(rec, 2, "seq")) {
          const int src = static_cast<int>(rec.arg[0]);
          if (src >= 0 && src < ranks) {
            writer.add_flow_finish(
                pid, tid, "comm.msg", "dist", end_us,
                flow_id(src, tid, ranks,
                        static_cast<std::uint64_t>(rec.arg[2])));
          }
        }
        break;
      }
      case telemetry::EventKind::kInstant:
        writer.add_instant(pid, tid, name, cat, ts_us);
        break;
      case telemetry::EventKind::kCounter:
        writer.add_counter(pid, name, ts_us, {{"value", rec.value}});
        break;
    }
  }
}

void export_comm_trace(const std::vector<telemetry::TraceEvent>& events,
                       int ranks, std::uint64_t base_ns, std::ostream& os) {
  telemetry::ChromeTraceWriter writer;
  append_comm_trace(writer, "capow dist world", 0, events, ranks, base_ns);
  writer.write(os);
}

}  // namespace capow::harness
