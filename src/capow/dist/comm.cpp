#include "capow/dist/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "capow/fault/fault.hpp"
#include "capow/telemetry/tracer.hpp"
#include "capow/trace/counters.hpp"

namespace capow::dist {

namespace {

std::chrono::steady_clock::time_point deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Restores the calling thread's telemetry rank tag on scope exit, so a
/// caller thread reused outside World::run stops stamping rank events.
struct ThreadRankScope {
  explicit ThreadRankScope(int rank) { telemetry::set_thread_rank(rank); }
  ~ThreadRankScope() { telemetry::set_thread_rank(-1); }
  ThreadRankScope(const ThreadRankScope&) = delete;
  ThreadRankScope& operator=(const ThreadRankScope&) = delete;
};

}  // namespace

World::World(int ranks, const WorldOptions& options)
    : ranks_(ranks),
      options_(options),
      mailboxes_(ranks > 0 ? static_cast<std::size_t>(ranks) : 0) {
  if (ranks <= 0) throw std::invalid_argument("World: ranks must be >= 1");
  if (options_.recv_timeout_seconds <= 0.0) {
    throw std::invalid_argument("World: recv_timeout_seconds must be > 0");
  }
  if (options_.max_send_attempts < 1) {
    throw std::invalid_argument("World: max_send_attempts must be >= 1");
  }
  if (options_.retry_backoff_us <= 0.0) {
    throw std::invalid_argument("World: retry_backoff_us must be > 0");
  }
  const std::size_t n = static_cast<std::size_t>(ranks);
  exited_ = std::make_unique<std::atomic<bool>[]>(n);
  failed_ = std::make_unique<std::atomic<bool>[]>(n);
  channel_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(n * n);
  op_epoch_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) exited_[i].store(false);
  for (std::size_t i = 0; i < n; ++i) failed_[i].store(false);
  for (std::size_t i = 0; i < n; ++i) op_epoch_[i].store(0);
  for (std::size_t i = 0; i < n * n; ++i) channel_seq_[i].store(0);
  errors_.resize(n);
  active_.resize(n);
  for (int r = 0; r < ranks; ++r) active_[static_cast<std::size_t>(r)] = r;
  if (options_.comm_stats) {
    blocks_.reserve(n);
    for (int r = 0; r < ranks; ++r) blocks_.emplace_back(ranks);
  }
}

void World::run(const std::function<void(Communicator&)>& body) {
  // A World may be reused for several collective jobs; each run starts
  // from a clean failure state with every rank active.
  reset_elastic_state();
  run_generation(body);
  // Publish stats unconditionally, *before* rethrowing: the counters
  // collected up to a failure are exactly what a poisoned-world
  // post-mortem needs.
  if (!blocks_.empty()) last_stats_ = final_generation_stats_;
  if (std::exception_ptr cause = root_cause()) {
    std::rethrow_exception(cause);
  }
}

void World::run_generation(const std::function<void(Communicator&)>& body) {
  poisoned_.store(false, std::memory_order_release);
  exited_count_.store(0, std::memory_order_release);
  failed_baseline_.store(failed_count_.load(std::memory_order_acquire),
                         std::memory_order_release);
  for (int r = 0; r < ranks_; ++r) {
    exited_[static_cast<std::size_t>(r)].store(false,
                                               std::memory_order_release);
    errors_[static_cast<std::size_t>(r)] = nullptr;
  }
  {
    std::lock_guard lock(barrier_mutex_);
    barrier_arrived_ = 0;
  }
  for (RankCommBlock& b : blocks_) b.reset(ranks_);

  const int active_count = static_cast<int>(active_.size());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(active_count));
  for (int v = 0; v < active_count; ++v) {
    const int phys = active_[static_cast<std::size_t>(v)];
    threads.emplace_back([this, v, phys, active_count, &body] {
      ThreadRankScope rank_tag(phys);
      // Each rank is a parallel unit: claim a distinct recorder slot so
      // concurrent ranks never share slot 0's counters. Slots follow the
      // physical rank, like every other per-rank resource.
      trace::ScopedRecorderSlot recorder_slot(phys);
      Communicator comm(*this, v, phys, active_count);
      RankCommBlock* block = comm_block(phys);
      const auto started = std::chrono::steady_clock::now();
      bool failed = false;
      try {
        body(comm);
      } catch (...) {
        // Each rank files into its own slot; the join below is the
        // happens-before edge, and root_cause() picks the winner by
        // physical rank order — deterministic under concurrent
        // multi-rank failure, unlike a first-to-lock capture.
        failed = true;
        errors_[static_cast<std::size_t>(phys)] = std::current_exception();
      }
      if (block != nullptr) block->self.active_ns = elapsed_ns(started);
      mark_exited(phys, failed);
    });
  }
  for (auto& t : threads) t.join();
  if (!blocks_.empty()) final_generation_stats_ = merge_comm_blocks(blocks_);
}

namespace {
bool is_comm_error(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const CommError&) {
    return true;
  } catch (...) {
    return false;
  }
}
}  // namespace

std::exception_ptr World::root_cause() const {
  // Root-cause exceptions (rank logic errors, injected kills) are
  // surfaced in preference to the secondary CommErrors they caused in
  // peers that were merely blocked on the failed rank. Ties break to
  // the lowest physical rank.
  std::exception_ptr first_comm;
  for (int r = 0; r < ranks_; ++r) {
    const std::exception_ptr& e = errors_[static_cast<std::size_t>(r)];
    if (!e) continue;
    if (!is_comm_error(e)) return e;
    if (!first_comm) first_comm = e;
  }
  return first_comm;
}

void World::reset_elastic_state() {
  generation_.store(0, std::memory_order_release);
  failed_count_.store(0, std::memory_order_release);
  failed_baseline_.store(0, std::memory_order_release);
  active_.resize(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    active_[static_cast<std::size_t>(r)] = r;
    failed_[static_cast<std::size_t>(r)].store(false,
                                               std::memory_order_release);
  }
}

void World::reset_wire_sequencing() noexcept {
  const std::size_t n = static_cast<std::size_t>(ranks_);
  for (std::size_t i = 0; i < n * n; ++i) {
    channel_seq_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < n; ++i) {
    op_epoch_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<int> World::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < ranks_; ++r) {
    if (failed_[static_cast<std::size_t>(r)].load(std::memory_order_acquire)) {
      out.push_back(r);
    }
  }
  return out;
}

void World::heartbeat(int phys_rank) {
  // 1-based operation epoch: the Nth send/recv/barrier this rank enters.
  const std::uint64_t epoch =
      op_epoch_[static_cast<std::size_t>(phys_rank)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  fault::FaultInjector* inj = fault::FaultInjector::active();
  if (inj == nullptr) return;
  const auto& kills = inj->plan().rank_kills;
  if (kills.empty()) return;
  // Kills fire in generation 0 only: fail-stop means a rank dies once,
  // and its respawned replacement must not inherit the death sentence.
  if (generation_.load(std::memory_order_acquire) != 0) return;
  for (const fault::RankKillSpec& k : kills) {
    if (k.world != ranks_ || k.victim != phys_rank || k.epoch != epoch) {
      continue;
    }
    inj->record(fault::Event::kRankKill);
    telemetry::instant("fault.rank.kill", "fault");
    failed_[static_cast<std::size_t>(phys_rank)].store(
        true, std::memory_order_release);
    failed_count_.fetch_add(1, std::memory_order_acq_rel);
    throw RankKilled("rank " + std::to_string(phys_rank) +
                     " killed fail-stop at comm epoch " +
                     std::to_string(epoch) + " (rank.kill)");
  }
}

void World::flush_stale_messages(CommMatrix& into) {
  for (int dest = 0; dest < ranks_; ++dest) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::lock_guard lock(box.mutex);
    for (const Message& m : box.messages) {
      if (!into.empty() && m.source >= 0 && m.source < ranks_) {
        EdgeStats& e = into.edge(m.source, dest);
        ++e.discarded_messages;
        e.discarded_bytes +=
            static_cast<std::uint64_t>(m.payload.size()) * sizeof(double);
      }
    }
    box.messages.clear();
  }
}

void World::mark_exited(int rank, bool failed) noexcept {
  if (failed) poisoned_.store(true, std::memory_order_release);
  exited_[static_cast<std::size_t>(rank)].store(true,
                                                std::memory_order_release);
  exited_count_.fetch_add(1, std::memory_order_acq_rel);
  // Wake every blocked receiver/barrier waiter so it can observe the
  // new exit/poison state instead of sleeping out its full timeout.
  for (auto& box : mailboxes_) {
    std::lock_guard lock(box.mutex);
    box.cv.notify_all();
  }
  {
    std::lock_guard lock(barrier_mutex_);
    barrier_cv_.notify_all();
  }
}

std::uint64_t World::next_channel_seq(int source, int dest) noexcept {
  const std::size_t channel = static_cast<std::size_t>(source) *
                                  static_cast<std::size_t>(ranks_) +
                              static_cast<std::size_t>(dest);
  return channel_seq_[channel].fetch_add(1, std::memory_order_relaxed);
}

void World::post(int dest, Message msg) {
  Mailbox& box = mailboxes_.at(static_cast<std::size_t>(dest));
  {
    std::lock_guard lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

Message World::take(int rank, int source, int tag) {
  Mailbox& box = mailboxes_.at(static_cast<std::size_t>(rank));
  const auto deadline = deadline_after(options_.recv_timeout_seconds);
  // Generation-stamped matching: traffic posted under an older
  // membership generation is invisible here (the recovery driver
  // flushes it with discard accounting between generations; the stamp
  // guards the unwind window where stale and fresh traffic coexist).
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  const auto matches = [&](const Message& m) {
    return m.source == source && m.tag == tag && m.generation == gen;
  };
  std::unique_lock lock(box.mutex);
  for (;;) {
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if (matches(*it)) {
        Message msg = std::move(*it);
        box.messages.erase(it);
        return msg;
      }
    }
    // No matching message buffered. Blocking is only correct while the
    // source can still send: an exited source means the message will
    // never arrive. A poisoned world alone is *not* grounds to give up:
    // an alive source either posts the message (the scan above finds it
    // even post-poison) or exits (caught below, mark_exited wakes us).
    // Waiting out the difference is what makes every recv outcome a
    // pure dataflow function — whether the sender reached its send —
    // rather than a race between the mailbox and the poison flag, and
    // dataflow determinism is what lets chaos CI diff the comm counters
    // of a dying generation across identical runs. The recv timeout
    // still bounds the wait if neither happens (application deadlock).
    if (rank_exited(source)) {
      throw CommError("recv: rank " + std::to_string(source) +
                      " exited without sending (receiver=" +
                      std::to_string(rank) + ", tag=" + std::to_string(tag) +
                      ")");
    }
    if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      // One final scan: the message may have been posted between the
      // last scan and the timeout.
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (matches(*it)) {
          Message msg = std::move(*it);
          box.messages.erase(it);
          return msg;
        }
      }
      throw CommError("recv: rank " + std::to_string(rank) +
                      " timed out after " +
                      std::to_string(options_.recv_timeout_seconds) +
                      "s awaiting (source=" + std::to_string(source) +
                      ", tag=" + std::to_string(tag) + ")");
    }
  }
}

void World::barrier_wait() {
  const auto deadline = deadline_after(options_.recv_timeout_seconds);
  // The barrier spans the *active* set: dead ranks have no thread to
  // arrive, so a shrunk generation's barrier must not wait for them.
  const int expected = static_cast<int>(active_.size());
  std::unique_lock lock(barrier_mutex_);
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_arrived_ == expected) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  while (barrier_generation_ == gen) {
    // A rank that exited before arriving can never complete this
    // generation (a rank blocked *in* the barrier cannot exit, so any
    // exit observed while our generation is pending is a missing
    // participant).
    if (poisoned() || exited_count_.load(std::memory_order_acquire) > 0) {
      --barrier_arrived_;
      throw CommError("barrier: world poisoned or a rank exited before "
                      "the barrier completed");
    }
    if (barrier_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        barrier_generation_ == gen) {
      --barrier_arrived_;
      throw CommError("barrier: timed out after " +
                      std::to_string(options_.recv_timeout_seconds) + "s");
    }
  }
}

int Communicator::world_size() const noexcept { return world_->size(); }

int Communicator::phys_of(int v) const {
  return world_->active_[static_cast<std::size_t>(v)];
}

Communicator Communicator::sub(int count) const {
  if (count <= 0 || count > size_) {
    throw std::invalid_argument("Communicator::sub: bad rank count");
  }
  if (rank_ >= count) {
    throw std::invalid_argument(
        "Communicator::sub: rank outside the sub-communicator prefix");
  }
  return Communicator(*world_, rank_, phys_, count);
}

void Communicator::send(int dest, int tag, std::span<const double> data) {
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("send: bad destination rank");
  }
  world_->heartbeat(phys_);
  const int phys_dest = phys_of(dest);
  const std::uint64_t bytes = data.size() * sizeof(double);
  // Sequence numbers are drawn unconditionally so matched send/recv
  // spans can share one flow id whether or not faults are armed (the
  // per-channel draw order — which fault draws are keyed on — is the
  // same either way). Channels are *physical* coordinates with the full
  // world size as stride: stable identities that keep plain-run draws
  // byte-identical and survive membership changes.
  const std::uint64_t seq = world_->next_channel_seq(phys_, phys_dest);
  telemetry::SpanScope span("comm.send", "dist", "dest", phys_dest, "bytes",
                            bytes, "seq", seq);
  trace::count_message(bytes);
  RankCommBlock* block = world_->comm_block(phys_);
  EdgeStats* edge = block != nullptr
                        ? &block->out[static_cast<std::size_t>(phys_dest)]
                        : nullptr;
  Message msg;
  msg.source = phys_;
  msg.tag = tag;
  msg.seq = seq;
  msg.generation = world_->generation();
  msg.payload.assign(data.begin(), data.end());

  fault::FaultInjector* inj = fault::FaultInjector::active();
  if (inj == nullptr || !inj->plan().any_comm()) {
    world_->post(phys_dest, std::move(msg));
    if (edge != nullptr) {
      ++edge->messages;
      edge->payload_bytes += bytes;
    }
    return;
  }

  // Unreliable-link model: each delivery attempt can be dropped or
  // corrupted (a corrupted frame is caught by the link CRC, so both
  // look like loss to the sender); the sender retransmits with
  // exponential backoff until an attempt lands or the budget runs out.
  // Draws are keyed on the (channel, message sequence, attempt) logical
  // coordinates so the fault schedule is independent of timing.
  const std::uint64_t channel =
      static_cast<std::uint64_t>(phys_) *
          static_cast<std::uint64_t>(world_->size()) +
      static_cast<std::uint64_t>(phys_dest);

  if (inj->fire(fault::Site::kCommDelay, fault::key(channel, seq))) {
    inj->record(fault::Event::kCommDelay);
    telemetry::instant("fault.comm.delay", "fault");
    const auto t0 = std::chrono::steady_clock::now();
    sleep_ms(inj->plan().comm_delay_ms);
    if (edge != nullptr) edge->send_block_ns += elapsed_ns(t0);
  }

  const int max_attempts = world_->options().max_send_attempts;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (world_->poisoned() || world_->has_failed_ranks()) {
      throw CommError("send: world poisoned or a rank failed (dest=" +
                      std::to_string(phys_dest) + ")");
    }
    bool lost = false;
    if (inj->fire(fault::Site::kCommDrop,
                  fault::key(channel, seq,
                             2 * static_cast<std::uint64_t>(attempt)))) {
      inj->record(fault::Event::kCommDrop);
      telemetry::instant("fault.comm.drop", "fault");
      lost = true;
    } else if (inj->fire(
                   fault::Site::kCommCorrupt,
                   fault::key(channel, seq,
                              2 * static_cast<std::uint64_t>(attempt) + 1))) {
      inj->record(fault::Event::kCommCorrupt);
      telemetry::instant("fault.comm.corrupt", "fault");
      if (edge != nullptr) ++edge->corruptions;
      lost = true;
    }
    if (!lost) {
      world_->post(phys_dest, std::move(msg));
      if (edge != nullptr) {
        ++edge->messages;
        edge->payload_bytes += bytes;
      }
      return;
    }
    if (attempt + 1 < max_attempts) {
      inj->record(fault::Event::kCommRetry);
      telemetry::instant("fault.comm.retry", "fault");
      if (edge != nullptr) ++edge->retransmits;
      const double factor =
          static_cast<double>(1u << (attempt < 10 ? attempt : 10));
      // Interruptible backoff: sleep in short slices, polling the
      // poison flag and the newly-failed set, so a sender caught in the
      // high end of the exponential ladder aborts within ~100us of a
      // rank death instead of sleeping out the full schedule (which at
      // attempt 10+ can exceed the whole recovery budget).
      const double total_ms = world_->options().retry_backoff_us * factor *
                              1e-3;
      constexpr double kSliceMs = 0.1;
      const auto t0 = std::chrono::steady_clock::now();
      double slept_ms = 0.0;
      while (slept_ms < total_ms) {
        if (world_->poisoned() || world_->has_failed_ranks()) break;
        const double slice = std::min(kSliceMs, total_ms - slept_ms);
        sleep_ms(slice);
        slept_ms += slice;
      }
      if (edge != nullptr) edge->send_block_ns += elapsed_ns(t0);
    }
  }
  inj->record(fault::Event::kCommSendFailure);
  telemetry::instant("fault.comm.send_failure", "fault");
  if (block != nullptr) ++block->self.send_failures;
  throw CommError("send: message to rank " + std::to_string(phys_dest) +
                  " (tag=" + std::to_string(tag) + ") lost after " +
                  std::to_string(max_attempts) + " attempts");
}

Message Communicator::recv(int source, int tag) {
  if (source < 0 || source >= size()) {
    throw std::out_of_range("recv: bad source rank");
  }
  world_->heartbeat(phys_);
  const int phys_src = phys_of(source);
  telemetry::SpanScope span("comm.recv", "dist", "source", phys_src, "tag",
                            tag);
  RankCommBlock* block = world_->comm_block(phys_);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Message msg = world_->take(phys_, phys_src, tag);
    if (block != nullptr) {
      block->self.recv_wait_ns += elapsed_ns(t0);
      EdgeStats& edge = block->in[static_cast<std::size_t>(phys_src)];
      ++edge.recv_messages;
      edge.recv_bytes += msg.payload.size() * sizeof(double);
    }
    span.set_arg(2, "seq", static_cast<std::int64_t>(msg.seq));
    // Callers speak virtual ranks; translate the envelope back from the
    // physical rank the wire stamped.
    msg.source = source;
    return msg;
  } catch (...) {
    // Failed waits (poison, peer exit, timeout) are still blocked time.
    if (block != nullptr) block->self.recv_wait_ns += elapsed_ns(t0);
    throw;
  }
}

void Communicator::barrier() {
  telemetry::SpanScope span("comm.barrier", "dist");
  world_->heartbeat(phys_);
  trace::count_sync();
  RankCommBlock* block = world_->comm_block(phys_);
  if (block == nullptr) {
    world_->barrier_wait();
    return;
  }
  ++block->self.barriers;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    world_->barrier_wait();
    block->self.barrier_wait_ns += elapsed_ns(t0);
  } catch (...) {
    block->self.barrier_wait_ns += elapsed_ns(t0);
    throw;
  }
}

namespace {
// Collectives use a reserved high tag space to avoid colliding with
// user point-to-point traffic.
constexpr int kBcastTag = 1 << 20;
constexpr int kReduceTag = kBcastTag + 1;
constexpr int kGatherTag = kBcastTag + 2;
}  // namespace

void Communicator::broadcast(int root, std::vector<double>& data) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kBcastTag, data);
    }
  } else {
    data = recv(root, kBcastTag).payload;
  }
}

void Communicator::reduce_sum(int root, std::vector<double>& data) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      const Message m = recv(r, kReduceTag);
      if (m.payload.size() != data.size()) {
        throw std::invalid_argument("reduce_sum: size mismatch");
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] += m.payload[i];
      }
    }
  } else {
    send(root, kReduceTag, data);
  }
}

void Communicator::gather(int root, std::span<const double> mine,
                          std::vector<std::vector<double>>& out) {
  out.clear();
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv(r, kGatherTag).payload;
    }
  } else {
    send(root, kGatherTag, mine);
  }
}

std::vector<double> flatten(linalg::ConstMatrixView v) {
  std::vector<double> out(v.size());
  for (std::size_t r = 0; r < v.rows(); ++r) {
    std::memcpy(out.data() + r * v.cols(), v.row(r),
                v.cols() * sizeof(double));
  }
  return out;
}

void unflatten(std::span<const double> data, linalg::MatrixView v) {
  if (data.size() != v.size()) {
    throw std::invalid_argument("unflatten: payload size mismatch");
  }
  for (std::size_t r = 0; r < v.rows(); ++r) {
    std::memcpy(v.row(r), data.data() + r * v.cols(),
                v.cols() * sizeof(double));
  }
}

}  // namespace capow::dist
