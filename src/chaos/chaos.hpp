#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace pdc::chaos {

/// What a chaos plan injected at one decision point.
enum class FaultKind : std::uint8_t {
  Delay,    ///< message delivery (or scheduling step) held back
  Reorder,  ///< envelope jumped ahead of other senders' queued traffic
  Drop,     ///< message dropped and redelivered after a bounded retry
  Abort,    ///< a rank was killed mid-operation (throws InjectedAbort)
  Yield,    ///< a thread was forced to yield the core
};

/// Name of a fault kind ("delay", "reorder", ...), as used in the
/// "chaos.<kind>" trace markers.
const char* fault_kind_name(FaultKind kind) noexcept;

/// One injected fault. `actor` + `seq` identify the decision point
/// deterministically: actor is the injecting rank/thread's chaos lane and
/// seq is that actor's decision counter at the moment of injection, so two
/// runs of the same seeded plan over the same program produce the same
/// (actor, seq, kind, site, magnitude) tuples — the property the replay
/// tests assert. Wall-clock order across actors is *not* part of the
/// contract (it depends on the host scheduler); compare normalized logs.
struct InjectedFault {
  FaultKind kind = FaultKind::Delay;
  int actor = 0;
  std::uint64_t seq = 0;
  const char* site = "";       ///< decision point, e.g. "mp.deliver"
  std::int64_t magnitude = 0;  ///< delay in us / redelivery count / 0

  bool operator==(const InjectedFault&) const = default;
};

/// Thrown out of a rank when the plan injects an abort — the in-process
/// stand-in for a Colab VM killing a rank mid-collective. mp::run treats it
/// like any other rank error: peers are unblocked and the exception is
/// rethrown to the caller.
class InjectedAbort : public Error {
 public:
  InjectedAbort(int actor, std::uint64_t seq, const char* site)
      : Error("chaos: injected abort of actor " + std::to_string(actor) +
              " at op " + std::to_string(seq) + " (" + site + ")"),
        actor_(actor),
        seq_(seq) {}

  [[nodiscard]] int actor() const noexcept { return actor_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }

 private:
  int actor_;
  std::uint64_t seq_;
};

/// Knobs of a chaos plan. All probabilities are per decision point; the
/// decisions themselves are drawn from a counter-keyed hash of the seed, so
/// a Config + seed fully determines every injection (see Plan).
struct Config {
  std::uint64_t seed = 1;

  // ---- message-passing faults (Mailbox::deliver / Communicator ops) -----
  double delay_probability = 0.0;    ///< hold a delivery back briefly
  int max_delay_us = 100;            ///< delays are uniform in [1, max]
  double reorder_probability = 0.0;  ///< legally jump the receive queue
  double drop_probability = 0.0;     ///< drop + redeliver (bounded retries)
  int max_redeliveries = 2;          ///< attempts before a drop gives up
                                     ///< and the envelope goes through
  double abort_probability = 0.0;    ///< kill the op's rank (InjectedAbort)

  // Targeted abort: kill exactly `abort_actor` at its `abort_at_op`-th
  // checkpoint (deterministic alternative to abort_probability; -1 = off).
  int abort_actor = -1;
  std::uint64_t abort_at_op = 0;

  // ---- shared-memory faults (pool/barrier/task scheduling) --------------
  double yield_probability = 0.0;  ///< force a yield or a short sleep

  /// Result-preserving noise: delays, reorders and yields only. Safe for
  /// result-invariance sweeps — a deterministic program must produce its
  /// chaos-off answer under this preset.
  static Config noise(std::uint64_t seed);

  /// noise() plus bounded drops-with-retry: still delivery-preserving, but
  /// exercises the retry path and much longer delivery tails.
  static Config lossy(std::uint64_t seed);

  /// lossy() plus probabilistic rank aborts: jobs are expected to *fail*
  /// cleanly (InjectedAbort, no hangs) rather than succeed.
  static Config hostile(std::uint64_t seed);
};

/// A seeded, deterministic fault-injection plan.
///
/// At most one plan is *globally* active process-wide (mirroring
/// trace::TraceSession); while active, the mp/smp runtimes consult it at
/// their injection points. With no plan active every hook costs one relaxed
/// atomic load — the same "compiled to near-zero" budget the trace probes
/// hold to.
///
/// A plan may instead be *bound* to a thread (BoundScope): the binding
/// shadows the global plan for that thread and for every mp rank it
/// launches (mp::run re-binds the launcher's plan in each rank).
/// Bindings are how the pdc::grade worker fleet explores a different seeded
/// schedule on every worker concurrently — something a single process-wide
/// plan cannot express.
///
/// Determinism: each decision is drawn from SplitMix64 seeded with
/// (seed, site hash, actor, actor-local counter), never from a shared
/// stream, so the decisions an actor sees depend only on its own operation
/// sequence — not on cross-thread timing. For a program whose per-rank /
/// per-thread behaviour is deterministic, the same seed therefore injects
/// the identical fault sequence on every run.
class Plan {
 public:
  explicit Plan(Config config);
  ~Plan();

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Make this the process-wide active plan. Throws pdc::InvalidArgument if
  /// a different plan is already active.
  void activate();

  /// Deactivate (idempotent). Faults recorded so far remain readable.
  void deactivate();

  /// The globally active plan, or nullptr when no plan was activate()d.
  /// Thread bindings are not consulted — use current() for decisions.
  static Plan* active() noexcept;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Every fault injected so far, in arrival order.
  [[nodiscard]] std::vector<InjectedFault> faults() const;

  /// Faults sorted by (actor, seq) — the deterministic view to diff between
  /// runs (arrival order across actors is scheduler-dependent).
  [[nodiscard]] std::vector<InjectedFault> normalized_faults() const;

  /// Number of faults injected so far.
  [[nodiscard]] std::size_t fault_count() const;

  /// Faults of one kind injected so far.
  [[nodiscard]] std::size_t fault_count(FaultKind kind) const;

  // ---- decision points (called via the free hooks below) ----------------

  /// Decide the perturbation for one message delivery. May sleep (on the
  /// sender's thread) to realize delays and drop-retries; returns true when
  /// the envelope should additionally be enqueued out of order.
  bool perturb_delivery(const char* site);

  /// Decide whether to kill the calling actor at this operation; throws
  /// InjectedAbort when the plan says so.
  void checkpoint(const char* site);

  /// Decide a scheduling perturbation (yield or short sleep) for the
  /// calling thread.
  void perturb_schedule(const char* site);

 private:
  /// Uniform [0,1) draw for decision `counter` of `actor` at `site`.
  [[nodiscard]] double draw(const char* site, int actor,
                            std::uint64_t counter,
                            std::uint64_t salt) const noexcept;

  void record(FaultKind kind, int actor, std::uint64_t seq, const char* site,
              std::int64_t magnitude);

  /// The calling thread's next decision index under this plan (resets the
  /// thread's counter when it last decided under a different plan).
  [[nodiscard]] std::uint64_t next_op() const noexcept;

  const Config config_;
  std::uint64_t epoch_ = 0;  ///< stamped by activate()

  mutable std::mutex mutex_;
  std::vector<InjectedFault> faults_;
};

/// RAII activation: `chaos::Scope scope(config);` runs the enclosed code
/// under a fresh plan and deactivates on scope exit. The plan stays
/// readable (scope.plan().faults()) after deactivation.
class Scope {
 public:
  explicit Scope(Config config) : plan_(std::move(config)) {
    plan_.activate();
  }
  ~Scope() { plan_.deactivate(); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] Plan& plan() noexcept { return plan_; }

 private:
  Plan plan_;
};

/// The plan the calling thread's decisions go to: its bound plan when a
/// BoundScope is open (directly or inherited from the launching thread by
/// mp::run), the globally active plan otherwise, nullptr when chaos is off
/// for this thread. One thread-local read plus one relaxed atomic load.
[[nodiscard]] Plan* current() noexcept;

/// The calling thread's bound plan, or nullptr when none is bound. Used by
/// mp::run to capture the launcher's binding for its rank threads.
[[nodiscard]] Plan* bound() noexcept;

/// RAII: bind `plan` to the calling thread, shadowing the global plan for
/// the scope's lifetime. Unlike activate(), any number of threads may each
/// bind their own plan concurrently — the pdc::grade fleet runs one seeded
/// schedule exploration per worker this way. The null-pointer form is a
/// no-op binding, so propagating "whatever the launcher had" (possibly
/// nothing) is one unconditional line.
class BoundScope {
 public:
  explicit BoundScope(Plan& plan) noexcept;
  explicit BoundScope(Plan* plan) noexcept;  ///< nullptr → no-op
  ~BoundScope();

  BoundScope(const BoundScope&) = delete;
  BoundScope& operator=(const BoundScope&) = delete;

 private:
  Plan* previous_;
  bool bound_ = false;
};

/// True iff the calling thread has a plan (bound or global).
[[nodiscard]] bool enabled() noexcept;

// ---- actor identity ------------------------------------------------------

/// Actor lanes. mp ranks use their world rank directly; every other
/// subsystem owns a lane (or a base plus its thread index) far above any
/// rank, so a hybrid job's streams never collide and a targeted abort on
/// one subsystem never also kills another's thread. The values key the
/// seeded decision streams: changing one changes every plan on that lane.
enum ActorLane : int {
  kTeamActorBase = 1 << 16,  ///< smp::parallel member t: base + t
  kPoolActorBase = 1 << 17,  ///< ThreadPool worker w: base + w
  /// lab server sessions (one shared lane: each session keeps its own
  /// decision counter, starting at op 0 per connection)
  kLabAdmitActor = 1 << 18,
  kLabWorkerActorBase = (1 << 18) + 1,  ///< lab server worker w: base + w
  kGradeActorBase = 1 << 19,            ///< grader worker w: base + w
  kStoreActor = 1 << 20,  ///< store WAL appends, syncs and compactions
};

/// The calling thread's chaos lane (0 when outside any scope).
[[nodiscard]] int current_actor() noexcept;

/// RAII: route the calling thread's chaos decisions to `actor`'s
/// deterministic stream. Opened by mp::run (per rank), smp::parallel (per
/// team member) and ThreadPool (per worker). Entering a scope restarts the
/// actor-local decision counter — `seq` counts decisions since the lane was
/// entered, so a lane's stream does not depend on what the host thread did
/// before it took on the actor's role.
class ActorScope {
 public:
  /// Where a lane's decision stream stands between two scopes, so one
  /// thread can serve many logical actors in turn and each keeps its own
  /// stream (the lab server's readers multiplex sessions this way). A
  /// default cursor is a stream that has not decided yet.
  struct Cursor {
    std::uint64_t epoch = 0;
    std::uint64_t ops = 0;
  };

  explicit ActorScope(int actor) noexcept;
  /// Enter `actor` resuming `cursor`'s stream; the scope writes the
  /// stream's position back into `cursor` when it closes.
  ActorScope(int actor, Cursor& cursor) noexcept;
  ~ActorScope();

  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  int previous_;
  std::uint64_t previous_epoch_;
  std::uint64_t previous_ops_;
  Cursor* cursor_ = nullptr;
};

// ---- runtime hooks -------------------------------------------------------
// No-ops (a relaxed load) when no plan is active; the runtimes call these
// unconditionally.

/// Mailbox::deliver hook; returns true when the envelope should be enqueued
/// ahead of other senders' traffic (the caller enforces the non-overtaking
/// contract — see Mailbox::deliver).
[[nodiscard]] inline bool on_deliver(const char* site) {
  if (Plan* plan = current()) return plan->perturb_delivery(site);
  return false;
}

/// Communicator operation hook; may throw InjectedAbort.
inline void on_op(const char* site) {
  if (Plan* plan = current()) plan->checkpoint(site);
}

/// smp scheduling hook (pool dispatch, barrier arrival, task spawn).
inline void on_schedule_point(const char* site) {
  if (Plan* plan = current()) plan->perturb_schedule(site);
}

}  // namespace pdc::chaos
