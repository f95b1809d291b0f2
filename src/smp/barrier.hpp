#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "support/error.hpp"

namespace pdc::smp {

/// Thrown at a team synchronization point (barrier, reduction rendezvous,
/// ordered-region turnstile, slot recycling) after the team was poisoned —
/// i.e. after a sibling threw out of the parallel region. The runtime uses
/// it to unwind every surviving member instead of leaving them parked at a
/// rendezvous nobody will ever complete; `parallel(...)` always rethrows the
/// *original* member exception to its caller, never the TeamAborted echoes.
class TeamAborted : public Error {
 public:
  explicit TeamAborted(const std::string& what) : Error(what) {}
};

/// Reusable (cyclic) barrier for a fixed-size thread team.
///
/// This is the synchronization primitive behind the `barrier` patternlet and
/// the implicit barriers at the end of worksharing constructs. It is a
/// centralized sense-reversing barrier on two atomics: arrivals fetch_add a
/// counter, the last arriver resets it and bumps the phase word every waiter
/// watches. Waiters follow the shared wait policy (support/wait.hpp): spin
/// briefly, then yield, then block on a futex — so an uncontended round trip
/// never touches the kernel while an oversubscribed host (e.g. a 1-core CI
/// container running a 16-thread teaching example) still parks instead of
/// burning its only core.
///
/// poison() aborts the barrier permanently: every current waiter wakes and
/// every present or future arrival throws TeamAborted instead of blocking —
/// the mechanism `parallel(...)` uses to free survivors when a team member
/// throws (there is no "un-poison"; a Team lives for exactly one region).
class CyclicBarrier {
 public:
  /// A barrier for `parties` threads. Requires parties >= 1.
  explicit CyclicBarrier(std::size_t parties);

  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  /// Block until all `parties` threads have arrived; then all are released
  /// and the barrier resets for the next cycle. Returns the arrival index
  /// within this cycle (0 for the first arriver, parties-1 for the last),
  /// which tests use to observe barrier semantics. Throws TeamAborted if
  /// the barrier is (or becomes) poisoned.
  std::size_t arrive_and_wait();

  /// Poison the barrier: wake every waiter and make every subsequent
  /// arrival throw TeamAborted. Idempotent; safe from any thread.
  void poison() noexcept;

  /// Whether poison() has been called.
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }

  /// Number of participating threads.
  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }

 private:
  const std::size_t parties_;
  /// Arrival counter for the current cycle; reset by the last arriver
  /// *before* the phase bump, so re-arrivals for the next cycle are counted
  /// correctly. Own cache line: every arrival writes it.
  alignas(64) std::atomic<std::size_t> arrived_{0};
  /// The sense word. 32-bit so the blocking path is a plain futex wait on
  /// the word itself (no libstdc++ proxy-waiter indirection). Own cache
  /// line: waiters poll it while arrivers hammer arrived_.
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  std::atomic<bool> poisoned_{false};
};

}  // namespace pdc::smp
