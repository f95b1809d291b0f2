#include "smp/team.hpp"

#include <pthread.h>

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "smp/config.hpp"
#include "support/wait.hpp"

namespace pdc::smp {

Team::Team(std::size_t num_threads)
    : num_threads_(num_threads), barrier_(num_threads) {
  if (num_threads == 0) {
    throw InvalidArgument("Team requires at least one thread");
  }
  // Ring entry i starts life serving construct i; the last departer of
  // construct id republishes its entry for id + kSlotRing.
  for (std::size_t i = 0; i < kSlotRing; ++i) {
    slots_[i].serving.store(i, std::memory_order_relaxed);
  }
}

std::mutex& Team::critical_mutex(const std::string& name) {
  std::lock_guard lock(criticals_mutex_);
  auto& slot = criticals_[name];
  if (!slot) slot = std::make_unique<std::mutex>();
  return *slot;
}

Team::Slot& Team::acquire_slot(std::uint64_t id) {
  Slot& slot = slots_[id % kSlotRing];
  // Hot path: one acquire load. The entry already serves this construct
  // unless some sibling is more than kSlotRing constructs behind us.
  if (slot.serving.load(std::memory_order_acquire) != id) {
    // Wraparound: wait for the previous tenant (id - kSlotRing) to fully
    // depart. Deadlock-free — the laggard holding the slot never waits on a
    // thread that is kSlotRing constructs ahead (any construct that blocks
    // does so for the whole team) — but it must still be poison-aware, or a
    // sibling throwing mid-region would strand us here.
    const auto recycled = [&] {
      return slot.serving.load(std::memory_order_acquire) == id ||
             aborted();
    };
    // Stay in a yield loop after the shared spin phase (no futex: recycling
    // is too rare to make every depart pay a notify); keep polling the
    // poison flag.
    while (!spin_then_yield(recycled)) std::this_thread::yield();
    if (slot.serving.load(std::memory_order_acquire) != id) {
      throw TeamAborted("smp: worksharing slot abandoned, team poisoned");
    }
  }
  slot.entered.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void Team::depart_slot(std::uint64_t id) {
  Slot& slot = slots_[id % kSlotRing];
  if (slot.departed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      num_threads_) {
    // Last departer: every sibling's final (mutex-guarded) accesses
    // happen-before its release fetch_add above, so resetting without the
    // mutex is race-free. The release store of `serving` publishes the
    // reset to the next tenant's acquire load.
    slot.next.store(0, std::memory_order_relaxed);
    slot.ordered_next = 0;
    slot.payload.reset();
    slot.arrived = 0;
    slot.ready = false;
    slot.claimed = false;
    slot.entered.store(0, std::memory_order_relaxed);
    slot.departed.store(0, std::memory_order_relaxed);
    slot.serving.store(id + kSlotRing, std::memory_order_release);
  }
}

void Team::poison() noexcept {
  aborted_.store(true, std::memory_order_release);
  barrier_.poison();
  // Taking each slot mutex orders the flag store against every
  // condition-variable wait: a waiter either re-checks its predicate after
  // we unlock (and sees the flag) or was already awake.
  for (auto& slot : slots_) {
    std::lock_guard lock(slot.mutex);
    slot.cv.notify_all();
  }
}

std::size_t Team::busy_slots() const noexcept {
  std::size_t busy = 0;
  for (const auto& slot : slots_) {
    if (slot.entered.load(std::memory_order_relaxed) != 0) ++busy;
  }
  return busy;
}

bool TeamContext::single(const std::function<void()>& fn, bool nowait) {
  const std::uint64_t id = next_construct_id();
  auto& slot = team_->acquire_slot(id);
  bool i_ran = false;
  {
    std::lock_guard lock(slot.mutex);
    if (!slot.claimed) {
      slot.claimed = true;
      i_ran = true;
    }
  }
  if (i_ran) fn();
  team_->depart_slot(id);
  if (!nowait) barrier();
  return i_ran;
}

void TeamContext::for_ranges(
    std::int64_t lo, std::int64_t hi, Schedule sched,
    const std::function<void(std::int64_t, std::int64_t)>& body, bool nowait) {
  const std::int64_t n = std::max<std::int64_t>(0, hi - lo);
  const auto threads = static_cast<std::int64_t>(num_threads());
  const auto me = static_cast<std::int64_t>(thread_num());

  switch (sched.kind) {
    case Schedule::Kind::Static: {
      // Contiguous blocks; the first (n % threads) blocks get one extra
      // iteration so the imbalance is at most 1.
      const std::int64_t base = n / threads;
      const std::int64_t extra = n % threads;
      const std::int64_t begin =
          lo + me * base + std::min(me, extra);
      const std::int64_t end = begin + base + (me < extra ? 1 : 0);
      if (begin < end) body(begin, end);
      break;
    }
    case Schedule::Kind::StaticChunk: {
      const auto chunk = static_cast<std::int64_t>(std::max<std::size_t>(1, sched.chunk));
      for (std::int64_t start = me * chunk; start < n; start += threads * chunk) {
        body(lo + start, lo + std::min(n, start + chunk));
      }
      break;
    }
    case Schedule::Kind::Dynamic: {
      const auto chunk = static_cast<std::int64_t>(std::max<std::size_t>(1, sched.chunk));
      const std::uint64_t id = next_construct_id();
      auto& slot = team_->acquire_slot(id);
      for (;;) {
        // Chaos schedule-exploration point: perturbing threads *between*
        // chunk claims shifts which thread wins each chunk of a dynamic
        // schedule, the nondeterminism dynamic-schedule programs must be
        // robust to.
        chaos::on_schedule_point("smp.dispatch");
        const std::int64_t start =
            slot.next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= n) break;
        body(lo + start, lo + std::min(n, start + chunk));
      }
      team_->depart_slot(id);
      break;
    }
    case Schedule::Kind::Guided: {
      const auto min_chunk = static_cast<std::int64_t>(std::max<std::size_t>(1, sched.chunk));
      const std::uint64_t id = next_construct_id();
      auto& slot = team_->acquire_slot(id);
      for (;;) {
        std::int64_t start = slot.next.load(std::memory_order_relaxed);
        std::int64_t chunk;
        do {
          if (start >= n) {
            chunk = 0;
            break;
          }
          const std::int64_t remaining = n - start;
          chunk = std::max(min_chunk, remaining / (2 * threads));
          chunk = std::min(chunk, remaining);
        } while (!slot.next.compare_exchange_weak(start, start + chunk,
                                                  std::memory_order_relaxed));
        if (chunk == 0) break;
        body(lo + start, lo + start + chunk);
      }
      team_->depart_slot(id);
      break;
    }
  }
  if (!nowait) barrier();
}

void TeamContext::for_each(std::int64_t lo, std::int64_t hi, Schedule sched,
                           const std::function<void(std::int64_t)>& body,
                           bool nowait) {
  for_ranges(
      lo, hi, sched,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) body(i);
      },
      nowait);
}

void TeamContext::OrderedContext::run(std::int64_t i,
                                      const std::function<void()>& fn) {
  std::unique_lock lock(*mutex_);
  cv_->wait(lock, [&] {
    return *next_ == i - lo_ || aborted_->load(std::memory_order_acquire);
  });
  if (*next_ != i - lo_) {
    throw TeamAborted("smp: ordered region abandoned, team poisoned");
  }
  fn();  // still holding the lock: the region is serialized by design
  ++*next_;
  cv_->notify_all();
}

void TeamContext::for_each_ordered(
    std::int64_t lo, std::int64_t hi, Schedule sched,
    const std::function<void(std::int64_t, OrderedContext&)>& body,
    bool nowait) {
  // A dedicated slot provides the ordered-region turnstile; the inner
  // worksharing loop allocates its own dispatch slot as usual.
  const std::uint64_t id = next_construct_id();
  auto& slot = team_->acquire_slot(id);
  OrderedContext ordered(slot.mutex, slot.cv, slot.ordered_next, lo,
                         team_->aborted_);
  for_each(
      lo, hi, sched, [&](std::int64_t i) { body(i, ordered); },
      /*nowait=*/true);
  team_->depart_slot(id);
  if (!nowait) barrier();
}

void TeamContext::sections(const std::vector<std::function<void()>>& tasks,
                           bool nowait) {
  for_each(
      0, static_cast<std::int64_t>(tasks.size()), Schedule::dynamic(1),
      [&](std::int64_t i) { tasks[static_cast<std::size_t>(i)](); }, nowait);
}

namespace {

/// Join state of one parallel region, shared (via shared_ptr) between the
/// forking thread and every dispatched worker so the completion notify can
/// never touch a dead frame.
struct RegionControl {
  explicit RegionControl(std::uint32_t workers) : finished(workers) {}

  Latch finished;  ///< counted down once per member run off the caller
  std::mutex error_mutex;
  std::exception_ptr first_error;

  void record_error(std::exception_ptr error) {
    std::lock_guard lock(error_mutex);
    if (!first_error) first_error = std::move(error);
  }
};

struct WorkerSlot;

/// One region's worth of work for one cached worker: an un-owning thunk
/// into `parallel(...)`'s stack frame (which outlives the region by
/// construction) plus the shared join state that keeps the latch alive.
struct Job {
  void (*invoke)(const void* env, std::size_t thread_num) = nullptr;
  const void* env = nullptr;
  std::shared_ptr<RegionControl> control;
  std::size_t thread_num = 0;
  /// Next slot in this region's wake chain: the worker wakes it *before*
  /// running the member, so even a body that blocks at a team sync point
  /// leaves every remaining member a thread to run on.
  WorkerSlot* wake_next = nullptr;
  /// The slot's epoch when this job was assigned; lets the back-steal
  /// detect whether the slot's worker was ever woken for this region.
  std::uint32_t epoch_at_dispatch = 0;
};

/// One cached worker's mailbox. Created with its thread and, like the
/// thread, never destroyed, so a forking thread may keep a pointer to a slot
/// whose worker has long since moved on to another region.
struct WorkerSlot {
  std::mutex mutex;
  std::atomic<std::uint32_t> epoch{0};  ///< bumped to wake the worker
  Job job;
};

/// The process-wide cached worker team behind `parallel(...)`.
///
/// Workers park on a per-worker epoch word (the shared wait policy:
/// spin, yield, futex) instead of exiting, so forking a region costs an
/// unpark — not a ~100 µs thread spawn — per member. The cache grows to
/// the largest concurrent demand (nested regions simply draw more workers)
/// and parks everything between regions.
///
/// The cache is never destroyed and its threads are detached, as with mp's
/// rank crew: a parked worker touches only its slot and the cache, and a
/// busy one only a region whose `parallel(...)` still waits for it. Joining
/// at exit would hang the exit on a member that never returns. A process
/// forked without exec starts with an empty cache: the parked threads do
/// not exist in the child.
class WorkerCache {
 public:
  static WorkerCache& instance() {
    static WorkerCache* const cache = [] {
      auto* created = new WorkerCache;
      ::pthread_atfork([] { instance().mutex_.lock(); },
                       [] { instance().mutex_.unlock(); },
                       [] {
                         instance().parked_.clear();
                         instance().mutex_.unlock();
                       });
      return created;
    }();
    return *cache;
  }

  /// Wake the worker parked on `slot` — but only if the slot still holds a
  /// job. The presence check under the slot mutex makes wake and steal
  /// mutually exclusive per slot: once the forking thread has stolen a job,
  /// the chain never wakes that worker for it, and once a wake has bumped
  /// the epoch, the steal sees the bump and leaves the slot to its worker.
  /// A late wake that lands on a slot already re-drafted by a *newer*
  /// region merely starts that region's member a little early — harmless.
  static void wake(WorkerSlot& slot) {
    {
      std::lock_guard lock(slot.mutex);
      if (!slot.job.invoke) return;  // stolen before we got here
      slot.epoch.fetch_add(1, std::memory_order_release);
    }
    // No syscall unless some thread sleeps on the word.
    slot.epoch.notify_one();
  }

  /// Hand one region's jobs for team members [first, last) to workers: one
  /// pass over the parked list under a single cache lock, then a single
  /// unpark. Fresh threads are spawned only for the demand the parked pool
  /// cannot cover (first region, or growth in team size).
  ///
  /// Wakes are *chained*, not fanned out: only the first drafted worker is
  /// woken here; each worker wakes its successor before running its member
  /// (see worker_main), so the forking thread pays one unpark per region
  /// while a member body that blocks still cannot strand the rest of the
  /// team — its wake duty was discharged before the body ran. Every drafted
  /// slot is also appended to `chain` so the forking thread can back-steal
  /// members the chain has not reached yet (see parallel()).
  void dispatch_region(void (*invoke)(const void*, std::size_t),
                       const void* env,
                       const std::shared_ptr<RegionControl>& control,
                       std::size_t first, std::size_t last,
                       std::vector<WorkerSlot*>& chain) {
    std::size_t thread_num = first;
    {
      // One pass under a single cache lock, drafting workers straight off
      // the parked list. Each job write takes the slot mutex: a slot that
      // served an earlier region can still be *read* (under that mutex) by
      // the earlier forking thread's steal walk — a re-drafted slot
      // legitimately lives in two chains at once.
      std::lock_guard lock(mutex_);
      while (thread_num < last && !parked_.empty()) {
        WorkerSlot* slot = parked_.back();
        parked_.pop_back();
        {
          std::lock_guard handoff(slot->mutex);
          slot->job = Job{invoke, env, control, thread_num++,
                          /*wake_next=*/nullptr,
                          slot->epoch.load(std::memory_order_relaxed)};
        }
        chain.push_back(slot);
      }
    }
    const std::size_t chained = chain.size();
    for (std::size_t i = 1; i < chained; ++i) {
      // Same rule as above: job fields are only ever touched under the slot
      // mutex once the slot has left the parked list.
      std::lock_guard link(chain[i - 1]->mutex);
      chain[i - 1]->job.wake_next = chain[i];
    }
    for (; thread_num < last; ++thread_num) {
      // No parked worker left: start a fresh thread that runs this job and
      // then parks itself for reuse. Fresh threads self-start (no wake
      // needed, so they take no chain link), but they still join `chain` so
      // the back-steal can claim their job if the caller gets there first.
      auto* fresh = new WorkerSlot;
      fresh->job = Job{invoke, env, control, thread_num,
                       /*wake_next=*/nullptr, /*epoch_at_dispatch=*/0};
      fresh->epoch.store(1, std::memory_order_release);
      chain.push_back(fresh);
      std::thread([this, fresh] { worker_main(*fresh); }).detach();
    }
    if (chained != 0) wake(*chain.front());
  }

  /// Put `slot` on the parked list: a worker re-parking itself, or the
  /// forking thread returning a drafted-but-never-woken slot whose job it
  /// stole (that worker is still waiting exactly as a parked worker does).
  void park(WorkerSlot& slot) {
    std::lock_guard lock(mutex_);
    parked_.push_back(&slot);
  }

 private:
  WorkerCache() = default;

  void worker_main(WorkerSlot& slot) {
    std::uint32_t seen = 0;
    for (;;) {
      wait_until(slot.epoch, [&] {
        return slot.epoch.load(std::memory_order_acquire) != seen;
      });
      seen = slot.epoch.load(std::memory_order_acquire);
      Job job;
      {
        std::lock_guard lock(slot.mutex);
        job = std::move(slot.job);
        slot.job = Job{};
      }
      if (!job.invoke) {
        // Woken, but the forking thread stole the job first (the steal ran
        // between our wake and our take). By the reverse-order steal
        // invariant there is no chain successor left to serve either —
        // just park again.
        park(slot);
        continue;
      }

      // Discharge the wake duty *before* running the member: if the body
      // blocks at a team sync point, the rest of the chain already has (or
      // is getting) threads to run on, so the sync can complete.
      if (job.wake_next) wake(*job.wake_next);

      job.invoke(job.env, job.thread_num);

      // Re-park *before* releasing the region latch so the very next
      // region can reuse this thread, then drop every reference into the
      // (about to unwind) parallel frame before the final count_down().
      auto control = std::move(job.control);
      job = Job{};
      park(slot);
      control->finished.count_down();
    }
  }

  std::mutex mutex_;
  std::vector<WorkerSlot*> parked_;
};

}  // namespace

void parallel(std::size_t num_threads,
              const std::function<void(TeamContext&)>& body) {
  trace::Span region("smp.parallel", "smp.runtime");
  const std::size_t n = num_threads == 0 ? default_num_threads() : num_threads;
  Team team(n);

  auto control =
      std::make_shared<RegionControl>(static_cast<std::uint32_t>(n - 1));

  const auto run_member = [&](std::size_t thread_num) {
    TeamContext ctx(team, thread_num);
    // Chaos decisions for a team member are keyed by its stable thread_num,
    // not the host thread, so seeded perturbations replay per member even
    // when the member runs on a recycled cached worker.
    chaos::ActorScope chaos_lane(chaos::kTeamActorBase +
                                 static_cast<int>(thread_num));
    trace::Span member("smp.member", "smp.runtime");
    try {
      body(ctx);
    } catch (...) {
      // Record first, then poison: siblings unwound by the poison throw
      // TeamAborted *after* the original error is in place, so the caller
      // always sees the root cause, never an echo.
      control->record_error(std::current_exception());
      team.poison();
    }
  };
  using RunMember = decltype(run_member);

  if (n > 1) {
    std::vector<WorkerSlot*> chain;
    chain.reserve(n - 1);
    WorkerCache::instance().dispatch_region(
        [](const void* env, std::size_t thread_num) {
          (*static_cast<const RunMember*>(env))(thread_num);
        },
        &run_member, control, 1, n, chain);
    run_member(0);  // the calling thread is team member 0, as in OpenMP

    // Back-steal: members the wake chain has not reached yet are run
    // inline on this thread instead of waiting for their workers to be
    // scheduled — on an oversubscribed host that turns a context-switch
    // convoy into straight-line execution. Stealing in *reverse* chain
    // order is what keeps it deadlock-free: the un-stolen prefix of the
    // chain stays self-waking, and a job can be claimed by exactly one
    // side because both take the slot mutex and the chain's wake skips a
    // slot whose job is gone. Safe to run members inline here: member 0
    // has completed, so every team-wide sync point in the body was
    // already passed by all members — a still-unstarted member cannot be
    // needed by anyone to make progress.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      WorkerSlot& slot = **it;
      Job stolen;
      bool reclaim = false;
      {
        std::lock_guard lock(slot.mutex);
        // The control check pins the steal to *this* region: a slot whose
        // worker already ran our member and re-parked may have been
        // re-drafted by a nested region, and that job is not ours to take.
        if (slot.job.invoke && slot.job.control == control) {
          stolen = std::move(slot.job);
          slot.job = Job{};
          // Epoch untouched since dispatch means the worker was never
          // woken for this region: it is indistinguishable from a parked
          // worker, so hand it back to the pool.
          reclaim = slot.epoch.load(std::memory_order_relaxed) ==
                    stolen.epoch_at_dispatch;
        }
      }
      if (reclaim) WorkerCache::instance().park(slot);
      if (stolen.invoke) {
        stolen.invoke(stolen.env, stolen.thread_num);
        control->finished.count_down();
      }
    }
    control->finished.wait();
  } else {
    run_member(0);
  }

  if (control->first_error) std::rethrow_exception(control->first_error);
}

void parallel(const std::function<void(TeamContext&)>& body) {
  parallel(0, body);
}

}  // namespace pdc::smp
