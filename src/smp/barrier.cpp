#include "smp/barrier.hpp"

#include "chaos/chaos.hpp"
#include "support/error.hpp"
#include "support/wait.hpp"
#include "trace/trace.hpp"

namespace pdc::smp {

CyclicBarrier::CyclicBarrier(std::size_t parties) : parties_(parties) {
  if (parties == 0) {
    throw InvalidArgument("CyclicBarrier requires at least one party");
  }
}

std::size_t CyclicBarrier::arrive_and_wait() {
  // Covers explicit `barrier` patternlets and the implicit barriers at the
  // end of worksharing constructs alike: the span is this thread's wait.
  // The chaos schedule point shuffles arrival order (the dimension
  // barrier-dependent code is sensitive to); the chaos checkpoint is where
  // a hostile plan kills a team member mid-region — which must poison, not
  // hang, the survivors.
  chaos::on_schedule_point("smp.barrier");
  chaos::on_op("smp.barrier");
  trace::Span span("smp.barrier", "smp.sync");

  if (poisoned()) {
    throw TeamAborted("smp: barrier poisoned before arrival");
  }

  // Read the sense *before* publishing the arrival: a thread can only
  // re-arrive for cycle k+1 after observing the cycle-k phase bump, so this
  // load can never see a stale cycle.
  const std::uint32_t my_phase = phase_.load(std::memory_order_acquire);
  const std::size_t my_index =
      arrived_.fetch_add(1, std::memory_order_acq_rel);

  if (my_index + 1 == parties_) {
    // Last arriver: reset for the next cycle, then reverse the sense. The
    // reset must precede the bump — a released waiter may re-arrive
    // immediately and its fetch_add has to land on a zeroed counter.
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_acq_rel);
    phase_.notify_all();
    if (poisoned()) {
      throw TeamAborted("smp: barrier poisoned during arrival");
    }
    return my_index;
  }

  wait_until(phase_, [&] {
    return phase_.load(std::memory_order_acquire) != my_phase;
  });
  if (poisoned()) {
    throw TeamAborted("smp: barrier poisoned while waiting");
  }
  return my_index;
}

void CyclicBarrier::poison() noexcept {
  poisoned_.store(true, std::memory_order_release);
  // Bump the sense so every current waiter is released; it finds the poison
  // flag on the way out. New arrivals see the flag before they ever wait.
  phase_.fetch_add(1, std::memory_order_acq_rel);
  phase_.notify_all();
}

}  // namespace pdc::smp
