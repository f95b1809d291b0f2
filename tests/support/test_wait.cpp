#include "support/wait.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace pdc {
namespace {

TEST(WaitPolicy, SpinWindowIsZeroOnOneAllowedCpu) {
  EXPECT_EQ(spin_window_for(1), std::chrono::nanoseconds(0));
}

TEST(WaitPolicy, SpinWindowIsTwentyMicrosecondsOnMoreCpus) {
  for (const std::size_t cpus : {2, 4, 64, 1024}) {
    EXPECT_EQ(spin_window_for(cpus), std::chrono::microseconds(20)) << cpus;
  }
}

TEST(WaitPolicy, ProcessWindowIsOneOfTheTwo) {
  const auto window = spin_window();
  EXPECT_TRUE(window == spin_window_for(1) || window == spin_window_for(2));
  EXPECT_EQ(spin_window(), window);  // resolved once
}

TEST(Latch, CountedDownFromEightThreadsReleasesItsWaiter) {
  constexpr int kThreads = 8;
  Latch latch(kThreads);
  std::atomic<int> counted{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      counted.fetch_add(1, std::memory_order_relaxed);
      latch.count_down();
    });
  }
  latch.wait();
  // Every count_down() happens-before wait() returns.
  EXPECT_EQ(counted.load(std::memory_order_relaxed), kThreads);
  for (auto& thread : threads) thread.join();
}

TEST(Latch, WaitAtZeroReturnsAtOnce) {
  Latch never_counted(0);
  never_counted.wait();
  Latch counted_out(1);
  counted_out.count_down();
  counted_out.wait();
  counted_out.wait();  // a released latch stays released
}

TEST(WaitUntil, WakesOnABumpThatLandsAfterTheSpinWindow) {
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    wait_until(word, [&] { return word.load(std::memory_order_acquire) != 0; });
    returned.store(true, std::memory_order_release);
  });
  // Far past the 20 µs window and the yields: the waiter is asleep on the
  // futex by now (or, on a loaded host, still on its way there).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));
  word.store(1, std::memory_order_release);
  word.notify_all();
  waiter.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

TEST(WaitUntil, ReturnsAtOnceWhenAlreadyReady) {
  std::atomic<std::uint32_t> word{7};
  wait_until(word, [] { return true; });
}

}  // namespace
}  // namespace pdc
