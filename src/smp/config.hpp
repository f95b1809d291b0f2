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

}  // namespace pdc::smp
