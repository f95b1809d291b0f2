#include "support/wait.hpp"

#include <sched.h>

namespace pdc {

std::chrono::nanoseconds spin_window_for(std::size_t allowed_cpus) noexcept {
  if (allowed_cpus <= 1) return std::chrono::nanoseconds(0);
  return std::chrono::microseconds(20);
}

std::chrono::nanoseconds spin_window() noexcept {
  static const std::chrono::nanoseconds window = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    // A mask too small for the host's CPUs fails with EINVAL; such a host
    // has more than one CPU.
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      return spin_window_for(2);
    }
    return spin_window_for(static_cast<std::size_t>(CPU_COUNT(&allowed)));
  }();
  return window;
}

}  // namespace pdc
