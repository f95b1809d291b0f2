#include "smp/config.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>

namespace pdc::smp {

namespace {
std::atomic<std::size_t> g_override{0};

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

}  // namespace pdc::smp
