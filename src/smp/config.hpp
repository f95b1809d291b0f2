#pragma once

#include <cstddef>

namespace pdc::smp {

/// Default thread count used when a parallel construct is invoked without an
/// explicit count. Resolution order:
///   1. the value set by set_default_num_threads(),
///   2. the PDC_NUM_THREADS environment variable,
///   3. std::thread::hardware_concurrency() (at least 1).
///
/// This mirrors OMP_NUM_THREADS / omp_set_num_threads in the OpenMP
/// materials the paper teaches.
std::size_t default_num_threads();

/// Programmatic override; `n == 0` restores environment/hardware resolution.
void set_default_num_threads(std::size_t n);

/// The hardware concurrency of this host (never 0).
std::size_t hardware_threads();

/// Sentinel for set_spin_limit(): restore environment/hardware resolution.
inline constexpr std::size_t kSpinAuto = static_cast<std::size_t>(-1);

/// How many times a waiting thread polls before it starts yielding and then
/// blocks (the spin phase of every smp wait: barriers, the fork-join
/// completion latch, parked workers, and slot-ring recycling). Resolution:
///   1. the value set by set_spin_limit(),
///   2. the PDCLAB_SMP_SPIN environment variable,
///   3. a hardware default: 0 on single-core hosts (spinning there only
///      steals the core from the thread being waited for), 4096 otherwise.
std::size_t spin_limit();

/// Programmatic override; `kSpinAuto` restores environment/hardware
/// resolution. `0` means "never spin, go straight to yield-then-block" —
/// the right setting for heavily oversubscribed hosts.
void set_spin_limit(std::size_t n);

}  // namespace pdc::smp
