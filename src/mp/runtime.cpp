#include "mp/runtime.hpp"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "support/error.hpp"
#include "support/wait.hpp"
#include "trace/trace.hpp"

namespace pdc::mp {

namespace {

using Clock = std::chrono::steady_clock;

/// One job's shared state, in run()'s frame. Rank threads touch it only
/// before they count down the job's Latch; the deadline thread only while
/// the job is registered with it.
struct Job {
  Universe& universe;
  const std::function<void(Communicator&)>& program;
  // The launcher's thread-bound chaos plan (if any) is re-bound inside
  // every rank, so a pdc::grade worker's seeded schedule follows the job
  // it launches instead of silently falling back to the global plan.
  chaos::Plan* const bound_plan;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  /// Claim the first-error slot (root cause over the collateral
  /// mp::Aborted the woken ranks see) and abort the universe.
  void fail(std::exception_ptr error) {
    {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::move(error);
    }
    universe.abort();
  }

  void run_rank(int rank) noexcept {
    chaos::BoundScope bound(bound_plan);
    // Route this rank's trace events to its own pid lane, and record its
    // whole lifetime as one span so chrome://tracing shows when each rank
    // started and finished. The chaos lane makes an active fault plan's
    // decisions for this rank deterministic (keyed by rank, not thread).
    trace::PidScope lane(rank, "rank " + std::to_string(rank));
    chaos::ActorScope chaos_lane(rank);
    trace::Span lifetime("mp.rank", "mp.runtime");
    Communicator comm = Communicator::world(universe, rank);
    try {
      program(comm);
    } catch (...) {
      trace::instant("mp.abort", "mp.runtime");
      fail(std::current_exception());
    }
  }
};

/// One rank of one job, as handed to a crew thread.
struct Task {
  Job* job = nullptr;
  int rank = 0;
  std::shared_ptr<Latch> latch;
};

/// A parked crew thread, on that thread's own stack. The dispatcher that
/// pops it off the parked list owns `task` until it bumps `epoch`.
struct Slot {
  std::atomic<std::uint32_t> epoch{0};
  Task task;
  Slot* next = nullptr;  ///< parked-list link
};

/// The process-wide cache of parked rank threads behind run(). Ranks
/// 1..np-1 of a job go to parked threads, and a thread is spawned only when
/// none is parked, so the crew grows to the peak concurrent demand and a
/// warm job creates no thread. A parked thread sleeps on its slot's epoch
/// word: a bare futex wait, the one exception to the shared wait policy
/// (support/wait.hpp), so the lab server's idle gaps between jobs cost no
/// CPU. The crew is never destroyed and its threads are detached:
/// a parked thread touches only its slot and the crew, and a busy one only
/// a job whose run() is still waiting for it, so nothing it uses dies
/// before it. Joining at exit would hang the exit on a rank that never
/// returns (a deadlocked student program run without a watchdog).
class Crew {
 public:
  static Crew& instance() {
    static Crew* const crew = [] {
      auto* created = new Crew;
      ::pthread_atfork([] { instance().mutex_.lock(); },
                       [] { instance().mutex_.unlock(); },
                       [] {
                         // The parked threads do not exist in a child.
                         instance().parked_ = nullptr;
                         instance().mutex_.unlock();
                       });
      return created;
    }();
    return *crew;
  }

  /// Start ranks [1, np) of `job`; each counts `latch` down when done. If
  /// a thread cannot be spawned, the ranks not started are counted down
  /// here and the error is rethrown.
  void launch(Job& job, int np, const std::shared_ptr<Latch>& latch) {
    Slot* drafted = nullptr;
    {
      std::lock_guard lock(mutex_);
      for (int rank = 1; rank < np && parked_ != nullptr; ++rank) {
        Slot* slot = parked_;
        parked_ = slot->next;
        slot->next = drafted;
        drafted = slot;
      }
    }
    int rank = 1;
    while (drafted != nullptr) {
      Slot* slot = drafted;
      drafted = slot->next;  // read before the wake: a woken slot re-parks
      slot->task = Task{&job, rank++, latch};
      slot->epoch.fetch_add(1, std::memory_order_release);
      slot->epoch.notify_one();
    }
    try {
      for (; rank < np; ++rank) {
        std::thread(&Crew::serve, this, Task{&job, rank, latch}).detach();
      }
    } catch (...) {
      for (; rank < np; ++rank) latch->count_down();
      throw;
    }
  }

 private:
  Crew() = default;

  void serve(Task task) {
    Slot slot;
    for (;;) {
      task.job->run_rank(task.rank);
      // Re-park before counting the latch down, so the job's caller can
      // reuse this thread the moment run() returns.
      const std::uint32_t seen = slot.epoch.load(std::memory_order_relaxed);
      {
        const std::shared_ptr<Latch> latch = std::move(task.latch);
        task = Task{};
        {
          std::lock_guard lock(mutex_);
          slot.next = parked_;
          parked_ = &slot;
        }
        latch->count_down();
      }
      slot.epoch.wait(seen, std::memory_order_acquire);
      task = std::move(slot.task);
    }
  }

  std::mutex mutex_;
  Slot* parked_ = nullptr;
};

/// The one thread that enforces RunConfig::watchdog_ms for every job,
/// started on the first watched job. Expiry runs under the same lock that
/// run() takes to deregister, so it never touches a returned job.
class Deadlines {
 public:
  /// Deadline, then registration order.
  using Key = std::pair<Clock::time_point, std::uint64_t>;

  static Deadlines& instance() {
    static Deadlines* const deadlines = [] {
      auto* created = new Deadlines;
      ::pthread_atfork([] { instance().mutex_.lock(); },
                       [] { instance().mutex_.unlock(); },
                       [] {
                         // The deadline thread does not exist in a child,
                         // and neither do the jobs it watched. Its wait
                         // may still be recorded in the condition variable,
                         // so the child starts from a fresh one.
                         Deadlines& self = instance();
                         self.pending_.clear();
                         self.started_ = false;
                         new (&self.wake_) std::condition_variable;
                         self.mutex_.unlock();
                       });
      return created;
    }();
    return *deadlines;
  }

  Key add(Job& job, int watchdog_ms) {
    const auto due = Clock::now() + std::chrono::milliseconds(watchdog_ms);
    std::lock_guard lock(mutex_);
    if (!started_) {
      std::thread(&Deadlines::serve, this).detach();
      started_ = true;
    }
    const Key key{due, registered_++};
    const auto it = pending_.emplace(key, Watch{&job, watchdog_ms}).first;
    if (it == pending_.begin()) wake_.notify_one();
    return key;
  }

  /// Deregister a job; a no-op once its deadline has fired.
  void remove(const Key& key) {
    std::lock_guard lock(mutex_);
    pending_.erase(key);
  }

  std::size_t size() {
    std::lock_guard lock(mutex_);
    return pending_.size();
  }

 private:
  Deadlines() = default;

  void serve() {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (pending_.empty()) {
        wake_.wait(lock);
        continue;
      }
      const auto first = pending_.begin();
      // A copy: run() may erase the entry while the lock is released.
      const Clock::time_point due = first->first.first;
      if (Clock::now() < due) {
        wake_.wait_until(lock, due);
        continue;
      }
      const Watch expired = first->second;
      pending_.erase(first);
      expired.job->fail(std::make_exception_ptr(TimedOut(
          "mp: job exceeded its watchdog of " +
          std::to_string(expired.watchdog_ms) +
          " ms (deadlock or hang)")));
      trace::instant("mp.watchdog", "mp.runtime");
    }
  }

  struct Watch {
    Job* job;
    int watchdog_ms;
  };

  std::mutex mutex_;
  std::map<Key, Watch> pending_;
  std::uint64_t registered_ = 0;
  std::condition_variable wake_;  ///< signalled when a new deadline is earliest
  bool started_ = false;
};

}  // namespace

RunResult run(const RunConfig& cfg,
              const std::function<void(Communicator&)>& program) {
  if (cfg.num_procs < 1) {
    throw InvalidArgument("mp::run requires at least one process");
  }
  std::vector<std::string> hostnames = cfg.hostnames;
  if (hostnames.empty()) {
    hostnames.assign(static_cast<std::size_t>(cfg.num_procs),
                     cfg.default_hostname);
  }
  if (hostnames.size() != static_cast<std::size_t>(cfg.num_procs)) {
    throw InvalidArgument("mp::run: hostnames must be empty or match num_procs");
  }

  Universe universe(cfg.num_procs, std::move(hostnames));
  // Installed before any rank starts — set_topology is not safe against
  // concurrent collectives (and the sink must not miss early lines).
  if (!cfg.topology.empty()) universe.set_topology(cfg.topology);
  if (cfg.on_output) universe.set_output_sink(cfg.on_output);

  Job job{universe, program, chaos::bound(), {}, {}};
  Deadlines::Key deadline;
  if (cfg.watchdog_ms > 0) {
    deadline = Deadlines::instance().add(job, cfg.watchdog_ms);
  }

  // Shared, not in this frame, so the last rank's notify never touches a
  // returned frame.
  std::shared_ptr<Latch> latch;
  if (cfg.num_procs > 1) {
    latch = std::make_shared<Latch>(
        static_cast<std::uint32_t>(cfg.num_procs - 1));
    try {
      Crew::instance().launch(job, cfg.num_procs, latch);
    } catch (...) {
      job.fail(std::current_exception());
    }
  }
  job.run_rank(0);  // the calling thread is rank 0
  if (latch) latch->wait();
  if (cfg.watchdog_ms > 0) Deadlines::instance().remove(deadline);

  if (job.first_error) std::rethrow_exception(job.first_error);
  return RunResult{universe.log()};
}

RunResult run(int num_procs, const std::function<void(Communicator&)>& program) {
  RunConfig cfg;
  cfg.num_procs = num_procs;
  return run(cfg, program);
}

namespace detail {

std::size_t watched_jobs() { return Deadlines::instance().size(); }

}  // namespace detail

std::vector<std::string> cluster_hostnames(int num_procs, int num_nodes,
                                           const std::string& stem) {
  if (num_procs < 1 || num_nodes < 1) {
    throw InvalidArgument("cluster_hostnames: counts must be positive");
  }
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(num_procs));
  for (int r = 0; r < num_procs; ++r) {
    names.push_back(stem + std::to_string(r % num_nodes));
  }
  return names;
}

}  // namespace pdc::mp
