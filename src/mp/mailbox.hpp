#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "mp/message.hpp"

namespace pdc::mp {

/// Thrown to unblock ranks stuck in a receive when the job aborts (a peer
/// rank threw) — instead of hanging the process, as a real MPI job would.
class Aborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "mp job aborted: another rank raised an error";
  }
};

/// Transport-side progress hook a Mailbox drives while its receiver blocks.
///
/// A polled transport (the shm ring backend) has no per-peer reader thread:
/// incoming records sit in shared memory until *someone* pumps them. With an
/// engine installed, the blocked receiving thread itself becomes that
/// someone — receive() alternates scan → engine->wait(seen), where wait()
/// pumps the rings and then sleeps on the transport's own doorbell. That is
/// the latency path: a message is moved from ring to mailbox by the thread
/// that wants it, one context switch end to end.
///
/// The lost-wakeup contract mirrors a futex: the mailbox reads `epoch()`
/// *before* releasing its lock and scanning out, and wait(seen) may block
/// only while the epoch still equals `seen`. Any event that could satisfy a
/// waiter (ring traffic, a mailbox deliver from a socket reader thread, an
/// abort) must bump the epoch via kick() or the engine's own signalling.
/// wait() may return spuriously; callers always re-scan.
class ProgressEngine {
 public:
  virtual ~ProgressEngine() = default;

  /// Current doorbell value; sampled under the mailbox lock before a scan.
  virtual std::uint64_t epoch() noexcept = 0;

  /// Drain whatever transport progress is pending. Called without the
  /// mailbox lock held; may deliver into the mailbox (re-entrantly taking
  /// its lock). Must swallow per-channel errors (routing them to the
  /// transport's own peer-loss path) rather than throwing.
  virtual void poll() = 0;

  /// Pump progress, then block until the epoch moves past `seen` or
  /// `max_wait` elapses. Spurious returns are allowed and expected.
  virtual void wait(std::uint64_t seen, std::chrono::milliseconds max_wait) = 0;

  /// Bump the epoch and wake blocked wait() callers. Called after any
  /// mailbox deliver/abort so engine-waiters see deliveries that did not
  /// come through the engine's own rings (socket readers, self-sends).
  virtual void kick() noexcept = 0;
};

/// One rank's incoming message queue.
///
/// Pending messages live in a two-level index: communicator id → per-source
/// FIFO. Each envelope is stamped with a mailbox-wide delivery sequence
/// number, so every per-source deque is ascending in arrival order.
///
///   - A targeted receive (explicit source) scans only that source's own
///     FIFO for the first tag match — its cost no longer depends on how much
///     traffic other senders have queued on the same communicator (the
///     mailbox.scanned trace counter and BM_MailboxManySenders quantify
///     this; the old flat per-comm bucket walked every unrelated envelope).
///   - A wildcard-source receive finds each source's earliest tag match and
///     takes the one with the smallest sequence number, i.e. exactly the
///     envelope the old arrival-order scan would have returned.
///
/// MPI's non-overtaking guarantee is per (communicator, source): successive
/// sends from one sender are received in order even across tags (a
/// wildcard-tag receive can observe cross-tag order, so the whole per-source
/// stream must stay FIFO). The per-source deques encode that invariant
/// structurally. Sends are eager/buffered (a send never blocks), matching
/// the small-message behaviour of real MPI that the patternlets rely on.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message (called from the sending rank's thread).
  void deliver(Envelope envelope);

  /// Block until a matching message arrives, then remove and return it.
  /// `source`/`tag` may be kAnySource/kAnyTag. Throws Aborted if abort()
  /// is called while waiting.
  Envelope receive(std::uint64_t comm_id, int source, int tag);

  /// Non-blocking receive: returns the first matching message or nullopt.
  std::optional<Envelope> try_receive(std::uint64_t comm_id, int source, int tag);

  /// Blocking receive with a deadline; nullopt on timeout. Used by tests to
  /// turn would-be deadlocks into failures instead of hangs.
  std::optional<Envelope> receive_for(std::uint64_t comm_id, int source, int tag,
                                      std::chrono::milliseconds timeout);

  /// Blocking probe: waits for a matching message and returns its Status
  /// without removing it (MPI_Probe).
  Status probe(std::uint64_t comm_id, int source, int tag);

  /// Non-blocking probe (MPI_Iprobe).
  std::optional<Status> try_probe(std::uint64_t comm_id, int source, int tag);

  /// Number of queued messages (any communicator), for tests/diagnostics.
  std::size_t queued() const;

  /// Wake all blocked receivers with an Aborted exception.
  void abort();

  /// Install (or, with nullptr, remove) the transport progress engine this
  /// mailbox drives while its receiver blocks. The engine must stay alive
  /// until set_progress(nullptr) returns; transports uninstall before
  /// tearing the engine down.
  void set_progress(ProgressEngine* engine) noexcept;

 private:
  /// A queued envelope plus its mailbox-wide delivery sequence number.
  struct Item {
    Envelope envelope;
    std::uint64_t seq = 0;
  };

  using SourceFifo = std::deque<Item>;  ///< ascending in seq

  /// All pending traffic on one communicator.
  struct CommQueue {
    std::unordered_map<int, SourceFifo> by_source;
    std::uint64_t next_seq = 0;  ///< stamp for the next normal delivery
    std::size_t pending = 0;     ///< total items across all sources
  };

  /// Location of a matched item: which source FIFO and the index within it.
  struct Hit {
    SourceFifo* fifo = nullptr;
    std::size_t index = 0;
  };

  /// The queue for `comm_id`, or nullptr if nothing is pending on that
  /// communicator. Caller holds mutex_.
  CommQueue* comm_for(std::uint64_t comm_id);

  /// First (source, tag) match in `comm` by delivery order, or nullopt.
  /// Caller holds mutex_. When `scanned` is non-null it receives the number
  /// of queued envelopes examined (the trace counter behind the match-cost
  /// benchmarks): a targeted receive examines only its own source's FIFO.
  static std::optional<Hit> find_match(CommQueue& comm, int source, int tag,
                                       std::size_t* scanned = nullptr);

  /// Remove and return the matched envelope, dropping empty FIFOs and the
  /// comm entry when it empties. Caller holds mutex_.
  Envelope take(std::uint64_t comm_id, CommQueue& comm, const Hit& hit);

  /// Whether a blocking wait removes its match or leaves it queued.
  enum class Claim { Take, Peek };

  /// The one blocking loop behind receive, receive_for and probe: scan for
  /// a (source, tag) match on `comm_id`, and while none is queued wait for a
  /// delivery: spin and yield by the shared wait policy (support/wait.hpp)
  /// until arrivals_ moves, then sleep on arrived_; or, when a progress
  /// engine is installed, through the engine. Take removes and returns the
  /// match (recording its trace counters); Peek returns a copy that shares
  /// the queued payload. Returns nullopt once `deadline` passes; throws
  /// Aborted after abort().
  std::optional<Envelope> await_match(
      std::uint64_t comm_id, int source, int tag, Claim claim,
      std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Record trace counters and the enqueue-to-match latency event for a
  /// matched envelope. No-op without an active trace session. Caller holds
  /// mutex_.
  static void record_match(const Envelope& envelope, std::size_t scanned);

  mutable std::mutex mutex_;
  /// Bumped under mutex_ by every deliver, abort and set_progress: a
  /// receiver with no engine samples it under the lock, then spins and
  /// yields until it moves, so it can watch for a delivery without the lock.
  std::atomic<std::uint32_t> arrivals_{0};
  /// Notified after each bump of arrivals_, with mutex_ released. A
  /// receiver whose spin ran out sleeps here until arrivals_ moves (or its
  /// receive_for deadline passes).
  std::condition_variable arrived_;
  std::unordered_map<std::uint64_t, CommQueue> comms_;
  std::size_t queued_ = 0;  ///< total envelopes across all communicators
  bool aborted_ = false;
  std::atomic<ProgressEngine*> progress_{nullptr};
};

}  // namespace pdc::mp
