#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace pdc {

/// The one wait policy of the in-process runtimes. Every rendezvous and
/// join in `smp` (barrier, fork-join latch, parked workers, slot-ring
/// recycling) and `mp` (the job latch, and a blocking `Mailbox` receive or
/// probe with no transport progress engine) waits the same way (a `Mailbox`
/// runs phases 1 and 2 here, then sleeps on its condition variable, which
/// its timed receive needs anyway):
///
///   1. spin with a CPU pause for a fixed *time* window (spin_window()),
///      yielding the CPU before each of its four quarters,
///   2. yield the CPU 16 times (a 16-thread teaching example on a 1-core
///      container must let the thread it waits for run),
///   3. sleep on a futex (`std::atomic::wait`) until the word changes.
///
/// The window is a time, not a count of pauses: a pause costs anywhere from
/// a few to ~140 cycles depending on the CPU, so a count means a different
/// wait on every host. 20 µs covers the usual gap between a rendezvous's
/// first and last arrival on an idle multi-core host. When the process may
/// run on one CPU only (a 1-core VM, or `taskset -c 0`), the window is 0:
/// spinning there only keeps the awaited thread off the CPU it needs.
///
/// Waits for the next piece of work, rather than for a sibling that is
/// about to arrive, do not spin: mp's parked crew (a bare futex wait on its
/// slot's epoch word), the lab's `FairQueue::pop` and `smp::ThreadPool`'s
/// workers (condition variables). In a lab server their gap is a client
/// round trip, longer than the window, so a spin would be paid in full and
/// would rarely catch the next job; idle gaps must cost no CPU.

/// One iteration of polite spinning (a pause on x86, plain no-op elsewhere).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// The spin window for a process allowed to run on `allowed_cpus` CPUs:
/// 0 for one CPU, 20 µs otherwise.
std::chrono::nanoseconds spin_window_for(std::size_t allowed_cpus) noexcept;

/// This process's spin window, from its `sched_getaffinity` mask. Resolved
/// once per process, on first use.
std::chrono::nanoseconds spin_window() noexcept;

/// Phases 1 and 2 of the policy: poll `ready` while spinning for the
/// window, then while yielding. Returns true as soon as `ready()` does, or
/// false when the caller should block.
template <typename Ready>
bool spin_then_yield(Ready&& ready) {
  if (ready()) return true;
  if (const auto window = spin_window(); window.count() > 0) {
    // The window is spun in four slices, each after a yield: the scheduler
    // may have queued the awaited thread on this very CPU (a thread woken
    // by this one may land here), and it then runs at once instead of
    // after a slice. With nothing else queued a yield returns at once.
    constexpr int kSlices = 4;
    for (int slice = 0; slice < kSlices; ++slice) {
      std::this_thread::yield();
      // Read the clock every few pauses: a clock read costs about as much
      // as a pause, and the slice needs no finer grain.
      const auto end = std::chrono::steady_clock::now() + window / kSlices;
      do {
        for (int i = 0; i < 8; ++i) {
          cpu_relax();
          if (ready()) return true;
        }
      } while (std::chrono::steady_clock::now() < end);
    }
  }
  constexpr int kYields = 16;
  for (int i = 0; i < kYields; ++i) {
    std::this_thread::yield();
    if (ready()) return true;
  }
  return false;
}

/// The whole policy: spin_then_yield(ready), then sleep on `word` until
/// `ready()` holds. Whoever makes `ready()` true must change `word` after
/// (or in the same atomic step as) the state `ready` reads, then call
/// `word.notify_one()` or `word.notify_all()`.
template <typename Ready>
void wait_until(const std::atomic<std::uint32_t>& word, Ready&& ready) {
  if (spin_then_yield(ready)) return;
  for (;;) {
    // Sample the word before the last check: a change after the check
    // makes wait() return at once instead of sleeping through it.
    const std::uint32_t seen = word.load(std::memory_order_acquire);
    if (ready()) return;
    word.wait(seen, std::memory_order_acquire);
  }
}

/// A single-use countdown: `count` count_down() calls release every wait().
/// Keep it in shared ownership when the counting threads may outlive the
/// waiter's frame, so the last count_down()'s notify never touches freed
/// memory.
class Latch {
 public:
  explicit Latch(std::uint32_t count) noexcept : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down() noexcept {
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_all();
    }
  }

  /// Return once the count has reached zero; everything the counting
  /// threads did before count_down() happens-before the return.
  void wait() const noexcept {
    wait_until(remaining_, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  std::atomic<std::uint32_t> remaining_;
};

}  // namespace pdc
