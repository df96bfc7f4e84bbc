// capow::dist — an in-process message-passing runtime ("mini-MPI").
//
// The paper's future work (Section VIII): "we seek to migrate the
// current implementation to a distributed memory implementation using
// MPI. Measuring the power performance characteristics of a distributed
// memory platform shall take into account the power associated with
// transmitting memory blocks across the interconnect as well as local
// communication traffic."
//
// This module provides that substrate: ranks are threads, messages are
// real buffer hand-offs through per-rank mailboxes, and every byte sent
// is instrumented (trace::count_message) so the interconnect energy
// model can price it. The API follows MPI's shape (rank/size,
// send/recv with tags, barrier/broadcast/reduce/gather) without
// pretending to be a full implementation.
//
// Fault tolerance: the wire between ranks is unreliable when a
// fault::FaultInjector is installed — deliveries can be dropped,
// delayed, or corrupted (detected by the link CRC and retransmitted).
// send() runs an ack/retry loop with exponential backoff and throws
// CommError when a message is lost for good; recv() and barrier() wake
// up and throw CommError instead of deadlocking when a peer exits
// without sending, a rank fails (poisoning every mailbox), or the recv
// timeout expires. One throwing rank therefore unblocks — not hangs —
// the whole world.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "capow/dist/comm_stats.hpp"
#include "capow/linalg/matrix.hpp"

namespace capow::dist {

/// Communication failure: peer death, poisoned world, recv timeout, or
/// a message lost after every retransmission attempt.
class CommError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A rank terminated fail-stop by an armed `rank.kill` fault spec.
/// Deliberately NOT a CommError: the kill is the root cause of the
/// secondary CommErrors it triggers in blocked peers, so the
/// root-cause-over-CommError rethrow precedence surfaces it — and the
/// elastic recovery driver recognizes it as the one failure class it
/// may recover from.
class RankKilled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A received message: payload plus envelope.
struct Message {
  int source = -1;
  int tag = 0;
  /// Per-channel (source -> dest) sequence number, assigned at send time.
  /// Matched send/recv trace spans share it, which is what lets the
  /// Chrome exporter draw flow arrows between rank lanes.
  std::uint64_t seq = 0;
  /// Membership generation the message was sent under. Receivers match
  /// only current-generation traffic; stale messages from a dead rank's
  /// generation are flushed (and accounted as discarded) by the
  /// recovery driver before the next generation starts.
  std::uint64_t generation = 0;
  std::vector<double> payload;
};

/// Fault-tolerance policy knobs for a World.
struct WorldOptions {
  /// recv()/barrier() give up with CommError after this long without
  /// progress. Generous by default: timeouts are a backstop — peer-exit
  /// and poison detection unblock the common failure modes immediately.
  double recv_timeout_seconds = 10.0;
  /// Delivery attempts per send() before it throws CommError.
  int max_send_attempts = 12;
  /// First retransmission backoff; doubles per attempt (capped at
  /// 1024x). Kept small: the "wire" is an in-process queue.
  double retry_backoff_us = 50.0;
  /// Collect the per-edge CommStats matrix (see comm_stats.hpp). The
  /// collector is per-rank-local counter writes — cheap enough to leave
  /// on by default; the ext_dist_caps overhead bench holds it to <= 2%.
  bool comm_stats = true;
};

class Communicator;
struct RecoveryOptions;
struct RecoveryContext;
struct RecoveryReport;

/// A set of ranks sharing mailboxes. Create one World per collective
/// job; `run` spawns one thread per rank.
///
/// Elastic membership: run_elastic (recovery.cpp) re-runs the body over
/// *generations*. Each generation spawns threads for the current active
/// set only; a rank killed by an armed `rank.kill` spec joins the failed
/// set, stale traffic from its generation is flushed with discard
/// accounting, and — depending on the RecoveryPolicy — the survivors
/// re-form a smaller communicator (shrink) or a replacement thread takes
/// the dead rank's slot (respawn). Communicators therefore carry a
/// *virtual* rank (index into the active set) distinct from the
/// *physical* rank (mailbox/stats identity), so the P x P comm matrix
/// keeps its shape across membership changes. In generation 0 the two
/// coincide and the wire behavior is byte-identical to a plain run().
class World {
 public:
  /// Creates a world of `ranks` mailboxes. Throws std::invalid_argument
  /// for ranks == 0 or any non-positive WorldOptions policy knob.
  explicit World(int ranks) : World(ranks, WorldOptions{}) {}
  World(int ranks, const WorldOptions& options);

  int size() const noexcept { return ranks_; }
  const WorldOptions& options() const noexcept { return options_; }

  /// Runs `body(comm)` on every rank concurrently (one thread per rank)
  /// and joins. Exceptions from any rank poison the world (waking every
  /// blocked peer with CommError) and are rethrown after all ranks
  /// unblock; a root-cause exception wins over the secondary CommErrors
  /// it triggered. With several concurrent root causes the lowest
  /// physical rank's wins — per-rank exception slots make the pick
  /// deterministic, not first-to-lock.
  void run(const std::function<void(Communicator&)>& body);

  /// Elastic run (defined in recovery.cpp): like run(), but on a rank
  /// death the world recovers per `opts.policy` instead of aborting —
  /// flush stale traffic, agree on the failed set, re-form the active
  /// set, and re-run `body` in a new generation. The body receives a
  /// RecoveryContext naming the generation and the agreed failed set.
  /// Non-recoverable root causes (anything but RankKilled) and the
  /// abort policy preserve run()'s rethrow semantics exactly.
  RecoveryReport run_elastic(
      const RecoveryOptions& opts,
      const std::function<void(Communicator&, const RecoveryContext&)>& body);

  /// True once any rank has thrown; blocked operations observe this and
  /// throw CommError instead of waiting forever.
  bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// True once a rank has been killed in the *current* generation (the
  /// newly-failed set). send()'s retry backoff polls this together with
  /// poisoned() so a sender in a dying world aborts its ladder
  /// immediately instead of sleeping out the full exponential schedule;
  /// ranks that failed in *earlier* generations don't trip it, or every
  /// recovered-generation send would abort on sight.
  bool has_failed_ranks() const noexcept {
    return failed_count_.load(std::memory_order_acquire) >
           failed_baseline_.load(std::memory_order_acquire);
  }

  /// Sorted physical ranks that have failed so far (cumulative across
  /// the generations of the current elastic session).
  std::vector<int> failed_ranks() const;

  /// Current membership generation (0 = initial / plain runs).
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Comm matrix of the most recent run (empty when collection is off or
  /// no run has completed). Populated on *every* teardown path — the
  /// per-rank blocks are merged after the joins and before run()
  /// rethrows, so a poisoned world still reports the traffic that led up
  /// to the failure. After run_elastic this is the cumulative matrix
  /// over every generation, including the dead rank's partial row and
  /// the flushed-traffic discard counters, so conserved() still closes.
  const CommMatrix& comm_stats() const noexcept { return last_stats_; }

  /// Comm matrix of the final generation alone (the fault-free recovery
  /// re-run). Unlike the cumulative matrix — whose generation-0 split
  /// depends on how far each survivor raced before observing the death —
  /// this one is a pure function of the seed and the surviving set, so
  /// chaos CI can diff it across identical runs.
  const CommMatrix& final_generation_stats() const noexcept {
    return final_generation_stats_;
  }

 private:
  friend class Communicator;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  void post(int dest, Message msg);
  Message take(int rank, int source, int tag);

  /// Next per-channel sequence number for (source -> dest); the stable
  /// logical coordinate fault draws are keyed on.
  std::uint64_t next_channel_seq(int source, int dest) noexcept;

  /// Marks `rank` done (normally or not) and wakes every waiter so
  /// blocked peers can re-check poison/exit state.
  void mark_exited(int rank, bool failed) noexcept;

  bool rank_exited(int rank) const noexcept {
    return exited_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Failure detector, called by the owning thread at the top of every
  /// comm operation: advances the rank's operation epoch and fires any
  /// armed rank.kill spec matching (world size, rank, epoch). Kills fire
  /// in generation 0 only — fail-stop means a rank dies once; its
  /// replacement must not inherit the death sentence.
  void heartbeat(int phys_rank);

  // Barrier support: generation-counted central barrier sized to the
  // active set.
  void barrier_wait();

  /// Rank r's private counter block, or nullptr when collection is off.
  /// Only rank r's thread may write through the pointer while run() is
  /// live (see comm_stats.hpp for the ownership discipline).
  RankCommBlock* comm_block(int rank) noexcept {
    return blocks_.empty() ? nullptr
                           : &blocks_[static_cast<std::size_t>(rank)];
  }

  /// Spawns one thread per *active* rank, runs `body`, joins, merges
  /// stats into last_stats_, and files each rank's exception (if any)
  /// into its per-rank slot. Does not rethrow — callers pick the root
  /// cause deterministically via root_cause().
  void run_generation(const std::function<void(Communicator&)>& body);

  /// Lowest-physical-rank root cause of the last generation: a
  /// non-CommError beats any CommError; nullptr when every rank
  /// completed. Deterministic under concurrent multi-rank failure.
  std::exception_ptr root_cause() const;

  /// Resets the elastic session to generation 0 with every rank active.
  void reset_elastic_state();

  /// Zeroes the per-channel sequence counters and per-rank op epochs so
  /// a recovery generation's fault draws are keyed exactly like a fresh
  /// run of the surviving set — the property that makes the final
  /// generation's comm matrix seed-deterministic even with comm.* fault
  /// sites armed. Never called on the plain run() path: reused Worlds
  /// keep their monotone sequence counters across runs, as before.
  void reset_wire_sequencing() noexcept;

  /// Drains every mailbox, accounting each stale message as discarded
  /// traffic on its (source, dest) edge in `into`. Driver-thread only
  /// (no rank threads may be running).
  void flush_stale_messages(CommMatrix& into);

  int ranks_;
  WorldOptions options_;
  std::vector<Mailbox> mailboxes_;
  std::vector<RankCommBlock> blocks_;
  CommMatrix last_stats_;
  CommMatrix final_generation_stats_;
  std::vector<int> active_;  ///< physical ranks of the current generation
  std::vector<std::exception_ptr> errors_;  ///< per-physical-rank slots
  std::unique_ptr<std::atomic<bool>[]> exited_;
  std::unique_ptr<std::atomic<bool>[]> failed_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> channel_seq_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> op_epoch_;
  std::atomic<bool> poisoned_{false};
  std::atomic<int> exited_count_{0};
  std::atomic<int> failed_count_{0};
  std::atomic<int> failed_baseline_{0};  ///< failed_count_ at gen start
  std::atomic<std::uint64_t> generation_{0};
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

/// Per-rank handle; valid only inside World::run's body.
///
/// Ranks are *virtual*: rank() is this rank's index into the world's
/// active set, which is what algorithms address (send/recv/collectives
/// all take virtual ranks). phys() is the underlying mailbox/stats
/// identity; the two differ only after an elastic shrink. In plain runs
/// and generation 0 they coincide.
class Communicator {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept { return size_; }

  /// Physical rank: the mailbox/comm-matrix row this rank owns. Stable
  /// across generations; what failed_ranks() and rank.kill specs name.
  int phys() const noexcept { return phys_; }

  /// The owning World's full physical rank count (>= size()). Equal to
  /// size() exactly when the virtual->physical mapping is the identity
  /// (plain runs, generation 0, respawn generations) — the predicate
  /// elastic algorithms use to decide whether physically-keyed caches
  /// still line up with virtual grid positions.
  int world_size() const noexcept;

  /// A handle restricted to the first `count` virtual ranks — same
  /// mailboxes, same stats, smaller size(). Lets an algorithm that
  /// needs an exact rank count (e.g. a g x g SUMMA grid) run inside a
  /// larger world: ranks >= count simply never touch the sub handle.
  /// Throws std::invalid_argument unless 0 < count <= size() and this
  /// rank is inside the prefix.
  Communicator sub(int count) const;

  /// Blocking tagged send (buffered: returns once the payload is copied
  /// into the destination mailbox). Counts message bytes via trace.
  /// Under fault injection the delivery may be dropped/corrupted and
  /// retransmitted with exponential backoff; throws CommError when
  /// every attempt is lost or the world is poisoned.
  void send(int dest, int tag, std::span<const double> data);

  /// Blocking tagged receive from a specific source. Messages from the
  /// same (source, tag) arrive in send order. Throws CommError instead
  /// of blocking forever when the source rank has exited without
  /// sending, the world is poisoned, or the recv timeout expires.
  Message recv(int source, int tag);

  /// Collective barrier across all ranks. Throws CommError when the
  /// barrier can never complete (a rank exited or the world is
  /// poisoned) or on timeout.
  void barrier();

  /// Broadcast `data` from root to every rank; on non-root ranks the
  /// vector is resized/overwritten.
  void broadcast(int root, std::vector<double>& data);

  /// Element-wise sum-reduction to root. All ranks pass equally-sized
  /// vectors; root's vector receives the sum.
  void reduce_sum(int root, std::vector<double>& data);

  /// Gathers each rank's vector to root in rank order; non-root ranks'
  /// `out` is left empty.
  void gather(int root, std::span<const double> mine,
              std::vector<std::vector<double>>& out);

 private:
  friend class World;
  Communicator(World& world, int rank, int phys, int size)
      : world_(&world), rank_(rank), phys_(phys), size_(size) {}

  /// Physical rank behind virtual rank `v` in the current generation.
  int phys_of(int v) const;

  World* world_;
  int rank_;  ///< virtual rank (index into the active set)
  int phys_;  ///< physical rank (mailbox/stats identity)
  int size_;  ///< virtual ranks visible through this handle
};

/// The wire form of a matrix block: its rows back to back. Every dist
/// kernel ships blocks in this form.
std::vector<double> flatten(linalg::ConstMatrixView v);
/// Inverse of flatten; throws std::invalid_argument when the payload
/// does not hold exactly v.size() values.
void unflatten(std::span<const double> data, linalg::MatrixView v);

}  // namespace capow::dist
