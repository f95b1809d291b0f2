#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "smp/barrier.hpp"
#include "smp/schedule.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::smp {

class TeamContext;

/// Shared state of one fork-join thread team.
///
/// A Team is created by `pdc::smp::parallel(...)` and lives for exactly one
/// parallel region; user code only ever sees the per-thread `TeamContext`
/// view. All worksharing constructs (loops, single, reductions, sections)
/// must be encountered by every thread of the team in the same order — the
/// same rule OpenMP imposes — because matching is by per-thread construct
/// sequence number.
class Team {
 public:
  /// Per-construct rendezvous state is preallocated as a ring of this many
  /// slots indexed by construct id; entry `id % kSlotRing` serves construct
  /// `id`. Acquire is a single atomic load on the hot path. An entry
  /// recycles once every thread departs its previous construct, so only a
  /// thread more than kSlotRing nowait-constructs ahead of the slowest
  /// sibling ever waits at acquire (and that wait is poison-aware).
  static constexpr std::size_t kSlotRing = 32;

  explicit Team(std::size_t num_threads);

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept { return num_threads_; }

  /// Team-wide barrier arrival (also the implicit barrier of worksharing
  /// constructs). Returns the arrival index within the cycle.
  std::size_t arrive_and_wait() { return barrier_.arrive_and_wait(); }

  /// The team's sense-reversing barrier.
  CyclicBarrier& barrier() noexcept { return barrier_; }

  /// The mutex backing a named critical section; created on first use.
  std::mutex& critical_mutex(const std::string& name);

  /// Poison the team: wake every member parked at a barrier, reduction
  /// rendezvous, ordered-region turnstile or slot-recycle wait, and make
  /// every subsequent synchronization throw TeamAborted. Called by
  /// `parallel(...)`'s member catch path so a throwing member (or a chaos
  /// InjectedAbort) unwinds the whole team instead of stranding siblings.
  /// Idempotent; there is no un-poison — the Team dies with its region.
  void poison() noexcept;

  /// Whether poison() has been called.
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Introspection for tests: ring slots some thread has entered but not
  /// every thread has departed. A completed (un-poisoned) region must leave
  /// this at zero — the no-slot-leak property of every construct, including
  /// degenerate ones (empty ranges, `sections({})`, threads > iterations).
  [[nodiscard]] std::size_t busy_slots() const noexcept;

 private:
  friend class TeamContext;

  /// Shared per-construct rendezvous state. Lives in the preallocated ring;
  /// `serving` names the construct id the entry currently belongs to.
  struct Slot {
    /// Loop dispatch cursor, alone on its cache line: dynamic/guided chunk
    /// claims fetch_add it concurrently, and sharing a line with the slot
    /// mutex (or anything else threads read) turns every claim into a
    /// false-sharing miss for the whole team.
    alignas(64) std::atomic<std::int64_t> next{0};

    /// Construct id this entry currently serves; published with release by
    /// the last departer of the previous tenant (id - kSlotRing). On its
    /// own line so acquire polling never collides with chunk claims.
    alignas(64) std::atomic<std::uint64_t> serving{0};
    std::atomic<std::size_t> entered{0};   ///< arrivals for current tenant
    std::atomic<std::size_t> departed{0};  ///< departures for current tenant

    std::mutex mutex;
    std::condition_variable cv;
    std::int64_t ordered_next = 0;  ///< ordered-region turn counter
    std::shared_ptr<void> payload;  ///< reduction accumulator
    std::size_t arrived = 0;
    bool ready = false;    ///< reduction result complete
    bool claimed = false;  ///< `single` executor chosen
  };

  /// Get the slot serving construct `id`, waiting (poison-aware) for the
  /// ring entry to recycle if a sibling is still more than kSlotRing
  /// constructs behind. Throws TeamAborted if the team is poisoned.
  Slot& acquire_slot(std::uint64_t id);

  /// Called once per thread when done with construct `id`; the last thread
  /// to depart resets the slot and republishes it for id + kSlotRing, so
  /// long-running teams never leak state.
  void depart_slot(std::uint64_t id);

  const std::size_t num_threads_;
  CyclicBarrier barrier_;
  std::atomic<bool> aborted_{false};

  std::array<Slot, kSlotRing> slots_;

  std::mutex criticals_mutex_;
  std::map<std::string, std::unique_ptr<std::mutex>> criticals_;
};

/// Per-thread view of a parallel region: what OpenMP exposes through
/// omp_get_thread_num(), `#pragma omp for/critical/single/master/barrier`
/// and reduction clauses.
class TeamContext {
 public:
  TeamContext(Team& team, std::size_t thread_num)
      : team_(&team), thread_num_(thread_num) {}

  /// This thread's id within the team, in [0, num_threads()).
  [[nodiscard]] std::size_t thread_num() const noexcept { return thread_num_; }

  /// Team size.
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return team_->num_threads();
  }

  /// Block until every team member reaches the barrier. Throws TeamAborted
  /// if the team is poisoned (a sibling threw out of the region).
  void barrier() { team_->arrive_and_wait(); }

  /// Execute `fn` under the team's unnamed critical-section mutex.
  void critical(const std::function<void()>& fn) { critical("", fn); }

  /// Execute `fn` under the named critical-section mutex. Distinct names
  /// never contend with each other, exactly as in OpenMP.
  void critical(const std::string& name, const std::function<void()>& fn) {
    std::lock_guard lock(team_->critical_mutex(name));
    fn();
  }

  /// Execute `fn` on thread 0 only (no implied barrier). Returns true on the
  /// thread that ran it.
  bool master(const std::function<void()>& fn) {
    if (thread_num_ != 0) return false;
    fn();
    return true;
  }

  /// Execute `fn` on exactly one (first-arriving) thread. Unless `nowait`,
  /// all threads synchronize afterwards, as with OpenMP's implicit barrier.
  /// Returns true on the thread that executed `fn`.
  bool single(const std::function<void()>& fn, bool nowait = false);

  /// Worksharing loop over the half-open index range [lo, hi): the team's
  /// threads collectively execute `body(i)` exactly once per index, divided
  /// according to `sched`. Implicit trailing barrier unless `nowait`.
  void for_each(std::int64_t lo, std::int64_t hi, Schedule sched,
                const std::function<void(std::int64_t)>& body,
                bool nowait = false);

  /// Range-chunk variant of for_each: `body(begin, end)` receives each
  /// dispatched chunk, which avoids per-index call overhead in hot loops.
  void for_ranges(std::int64_t lo, std::int64_t hi, Schedule sched,
                  const std::function<void(std::int64_t, std::int64_t)>& body,
                  bool nowait = false);

  /// Worksharing sections: each task runs exactly once, tasks distributed
  /// dynamically across the team. Implicit trailing barrier unless `nowait`.
  void sections(const std::vector<std::function<void()>>& tasks,
                bool nowait = false);

  /// The `ordered` region of an ordered worksharing loop: code passed to
  /// run() executes strictly in iteration order even though the rest of the
  /// loop body runs in parallel (OpenMP's `ordered` clause + directive).
  /// Obtained only from for_each_ordered.
  class OrderedContext {
   public:
    /// Execute `fn` for iteration `i` once every iteration before `i` has
    /// completed its ordered region. Must be called exactly once per
    /// iteration, with that iteration's index. Throws TeamAborted instead
    /// of waiting forever if the team is poisoned.
    void run(std::int64_t i, const std::function<void()>& fn);

   private:
    friend class TeamContext;
    OrderedContext(std::mutex& mutex, std::condition_variable& cv,
                   std::int64_t& next, std::int64_t lo,
                   const std::atomic<bool>& aborted)
        : mutex_(&mutex), cv_(&cv), next_(&next), lo_(lo), aborted_(&aborted) {}
    std::mutex* mutex_;
    std::condition_variable* cv_;
    std::int64_t* next_;  ///< next iteration allowed into the region
    std::int64_t lo_;
    const std::atomic<bool>* aborted_;  ///< the owning team's poison flag
  };

  /// Ordered worksharing loop over [lo, hi): iterations are distributed by
  /// `sched` and `body(i, ordered)` bodies run concurrently, but whatever
  /// each body passes to `ordered.run(i, ...)` executes in ascending
  /// iteration order — the construct behind pipelined loops that must emit
  /// results in order. Implicit trailing barrier unless `nowait`.
  void for_each_ordered(
      std::int64_t lo, std::int64_t hi, Schedule sched,
      const std::function<void(std::int64_t, OrderedContext&)>& body,
      bool nowait = false);

  /// Team-wide reduction: combines every thread's `local` value with
  /// `combine` (associative & commutative) and returns the result on every
  /// thread. Acts as a barrier. T must be copy-constructible — it need NOT
  /// be default-constructible: the accumulator is seeded by copying the
  /// first arriver's `local` and the result is copied straight out of the
  /// slot payload.
  template <typename T, typename Combine>
  T reduce(const T& local, Combine combine) {
    trace::Span span("smp.reduce", "smp.sync");
    const std::uint64_t id = next_construct_id();
    auto& slot = team_->acquire_slot(id);
    std::shared_ptr<const T> result;
    {
      std::unique_lock lock(slot.mutex);
      if (!slot.payload) {
        slot.payload = std::make_shared<T>(local);
      } else {
        auto& acc = *std::static_pointer_cast<T>(slot.payload);
        acc = combine(acc, local);
      }
      if (++slot.arrived == num_threads()) {
        slot.ready = true;
        slot.cv.notify_all();
      } else {
        slot.cv.wait(lock,
                     [&] { return slot.ready || team_->aborted(); });
        if (!slot.ready) {
          throw TeamAborted("smp: reduction abandoned, team poisoned");
        }
      }
      // Holding the shared_ptr (not a reference) keeps the accumulator
      // alive past the slot recycle that depart_slot may trigger.
      result = std::static_pointer_cast<const T>(slot.payload);
    }
    team_->depart_slot(id);
    return *result;
  }

  /// Sum-reduction convenience (the reduction patternlet's `+` clause).
  template <typename T>
  T reduce_sum(const T& local) {
    return reduce(local, [](const T& a, const T& b) { return a + b; });
  }

 private:
  /// Sequence number for the next worksharing/collective construct this
  /// thread encounters. Identical across threads by the same-order rule.
  std::uint64_t next_construct_id() noexcept { return construct_counter_++; }

  Team* team_;
  std::size_t thread_num_;
  std::uint64_t construct_counter_ = 0;
};

/// Fork `num_threads` threads running `body(ctx)` and join them (the
/// fork-join patternlet; equivalent to `#pragma omp parallel`).
///
/// The calling thread is always team member 0, as in OpenMP. Members 1..n-1
/// run on the process-wide cached worker team: parked threads woken by an
/// epoch bump, re-parked when the region ends — so a program entering a
/// region per trial/batch (the forest-fire and integration exemplars) pays
/// an unpark, not a thread spawn, per region. The cached workers are never
/// joined; a process forked without exec starts with none.
///
/// The first exception thrown by any member poisons the team — waking every
/// sibling parked at a barrier/reduction/ordered wait with TeamAborted — and
/// is rethrown to the caller after all members have finished. A region
/// where a member throws therefore *completes* (with that exception); it
/// never hangs. `num_threads == 0` uses default_num_threads().
void parallel(std::size_t num_threads,
              const std::function<void(TeamContext&)>& body);

/// As above with the default thread count.
void parallel(const std::function<void(TeamContext&)>& body);

}  // namespace pdc::smp
