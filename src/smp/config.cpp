#include "smp/config.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

namespace pdc::smp {

namespace {
std::atomic<std::size_t> g_override{0};

// Spin override: kSpinAuto means "unset", anything else is the value.
std::atomic<std::size_t> g_spin_override{kSpinAuto};

std::size_t env_num_threads() {
  if (const char* env = std::getenv("PDC_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 0;
}
}  // namespace

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t default_num_threads() {
  if (const std::size_t n = g_override.load(std::memory_order_relaxed); n > 0) {
    return n;
  }
  if (const std::size_t n = env_num_threads(); n > 0) return n;
  return hardware_threads();
}

void set_default_num_threads(std::size_t n) {
  g_override.store(n, std::memory_order_relaxed);
}

std::size_t spin_limit() {
  if (const std::size_t n = g_spin_override.load(std::memory_order_relaxed);
      n != kSpinAuto) {
    return n;
  }
  if (const char* env = std::getenv("PDCLAB_SMP_SPIN")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 0) return static_cast<std::size_t>(parsed);
  }
  return hardware_threads() > 1 ? 4096 : 0;
}

void set_spin_limit(std::size_t n) {
  g_spin_override.store(n, std::memory_order_relaxed);
}

}  // namespace pdc::smp
