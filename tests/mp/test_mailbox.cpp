#include "mp/mailbox.hpp"

#include <gtest/gtest.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace pdc::mp {
namespace {

Envelope make(std::uint64_t comm, int src, int tag, std::byte payload_byte) {
  Envelope e;
  e.comm_id = comm;
  e.source = src;
  e.tag = tag;
  e.payload = make_payload({payload_byte});
  return e;
}

// A blocked receive with no progress engine spins for the wait policy's
// window, yields, then sleeps (support/wait.hpp). The tests that loop over
// kDelays land their event 2 µs after the wait starts (inside the spin) and
// 20 ms after (in the sleep); each must wake the receiver either way.

using std::chrono::microseconds;
using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

constexpr std::array<microseconds, 2> kDelays = {microseconds(2),
                                                 microseconds(20'000)};

/// Runs `act` on its own thread `delay` after go(). The thread is running
/// before the constructor returns, and a sub-millisecond delay is
/// busy-waited, so it lands while the receiver is still spinning.
class After {
 public:
  After(microseconds delay, std::function<void()> act)
      : thread_([this, delay, act = std::move(act)] {
          started_.store(true, std::memory_order_release);
          while (!go_.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          if (delay >= milliseconds(1)) {
            std::this_thread::sleep_for(delay);
          } else {
            const auto due = Clock::now() + delay;
            while (Clock::now() < due) {
            }
          }
          act();
        }) {
    while (!started_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  After(const After&) = delete;
  After& operator=(const After&) = delete;
  ~After() { thread_.join(); }

  void go() { go_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> go_{false};
  std::thread thread_;
};

TEST(Mailbox, DeliverThenReceive) {
  Mailbox box;
  box.deliver(make(0, 1, 5, std::byte{0xAB}));
  const Envelope e = box.receive(0, 1, 5);
  EXPECT_EQ(e.source, 1);
  EXPECT_EQ(e.tag, 5);
  EXPECT_EQ(e.payload->at(0), std::byte{0xAB});
}

TEST(Mailbox, WildcardSourceMatchesAnySender) {
  Mailbox box;
  box.deliver(make(0, 3, 7, std::byte{1}));
  const Envelope e = box.receive(0, kAnySource, 7);
  EXPECT_EQ(e.source, 3);
}

TEST(Mailbox, WildcardTagMatchesAnyTag) {
  Mailbox box;
  box.deliver(make(0, 2, 99, std::byte{1}));
  const Envelope e = box.receive(0, 2, kAnyTag);
  EXPECT_EQ(e.tag, 99);
}

TEST(Mailbox, NonOvertakingSameSourceSameTag) {
  Mailbox box;
  box.deliver(make(0, 1, 0, std::byte{10}));
  box.deliver(make(0, 1, 0, std::byte{20}));
  EXPECT_EQ(box.receive(0, 1, 0).payload->at(0), std::byte{10});
  EXPECT_EQ(box.receive(0, 1, 0).payload->at(0), std::byte{20});
}

TEST(Mailbox, TagSelectionSkipsEarlierNonMatching) {
  Mailbox box;
  box.deliver(make(0, 1, 1, std::byte{10}));  // data
  box.deliver(make(0, 1, 2, std::byte{20}));  // control
  // Receiving tag 2 first must skip over the earlier tag-1 message.
  EXPECT_EQ(box.receive(0, 1, 2).payload->at(0), std::byte{20});
  EXPECT_EQ(box.receive(0, 1, 1).payload->at(0), std::byte{10});
}

TEST(Mailbox, CommunicatorIsolation) {
  Mailbox box;
  box.deliver(make(7, 0, 0, std::byte{70}));
  box.deliver(make(8, 0, 0, std::byte{80}));
  EXPECT_EQ(box.receive(8, 0, 0).payload->at(0), std::byte{80});
  EXPECT_EQ(box.receive(7, 0, 0).payload->at(0), std::byte{70});
}

TEST(Mailbox, TryReceiveReturnsNulloptWhenEmpty) {
  Mailbox box;
  EXPECT_FALSE(box.try_receive(0, kAnySource, kAnyTag).has_value());
}

TEST(Mailbox, ReceiveForTimesOut) {
  // Never before its deadline, whether that falls inside the spin or not.
  for (const milliseconds timeout : {milliseconds(0), milliseconds(20)}) {
    SCOPED_TRACE(timeout.count());
    Mailbox box;
    const auto start = Clock::now();
    EXPECT_FALSE(box.receive_for(0, kAnySource, kAnyTag, timeout).has_value());
    EXPECT_GE(Clock::now() - start, timeout);
  }
}

TEST(Mailbox, ReceiveForSucceedsWhenMessageArrivesLate) {
  for (const microseconds delay : kDelays) {
    SCOPED_TRACE(delay.count());
    Mailbox box;
    After sender(delay, [&] { box.deliver(make(0, 0, 0, std::byte{42})); });
    const auto start = Clock::now();
    sender.go();
    const auto result = box.receive_for(0, kAnySource, kAnyTag,
                                        milliseconds(5000));
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload->at(0), std::byte{42});
    // Woken by the delivery, not by the deadline's rescan.
    EXPECT_LT(Clock::now() - start, milliseconds(2500));
  }
}

TEST(Mailbox, BlockingReceiveWakesOnDelivery) {
  for (const microseconds delay : kDelays) {
    SCOPED_TRACE(delay.count());
    Mailbox box;
    After sender(delay, [&] { box.deliver(make(0, 5, 1, std::byte{9})); });
    sender.go();
    const Envelope e = box.receive(0, 5, 1);
    EXPECT_EQ(e.payload->at(0), std::byte{9});
    EXPECT_EQ(box.queued(), 0u);
  }
}

TEST(Mailbox, ProbeReportsWithoutRemoving) {
  Mailbox box;
  box.deliver(make(0, 4, 6, std::byte{1}));
  const Status status = box.probe(0, kAnySource, kAnyTag);
  EXPECT_EQ(status.source, 4);
  EXPECT_EQ(status.tag, 6);
  EXPECT_EQ(status.bytes, 1u);
  EXPECT_EQ(box.queued(), 1u);  // still there
}

TEST(Mailbox, TryProbeOnEmptyReturnsNullopt) {
  Mailbox box;
  EXPECT_FALSE(box.try_probe(0, kAnySource, kAnyTag).has_value());
}

TEST(Mailbox, AbortWakesBlockedReceivers) {
  for (const microseconds delay : kDelays) {
    SCOPED_TRACE(delay.count());
    Mailbox box;
    After aborter(delay, [&] { box.abort(); });
    aborter.go();
    EXPECT_THROW((void)box.receive(0, kAnySource, kAnyTag), Aborted);
  }
}

TEST(Mailbox, OperationsAfterAbortThrow) {
  Mailbox box;
  box.abort();
  EXPECT_THROW(box.try_receive(0, kAnySource, kAnyTag), Aborted);
  EXPECT_THROW(box.try_probe(0, kAnySource, kAnyTag), Aborted);
}

TEST(Mailbox, QueuedCountsAllCommunicators) {
  Mailbox box;
  box.deliver(make(0, 0, 0, std::byte{1}));
  box.deliver(make(1, 0, 0, std::byte{2}));
  EXPECT_EQ(box.queued(), 2u);
}

TEST(Mailbox, ProbeWakesInTheSpinAndInTheSleepAndLeavesTheMessage) {
  for (const microseconds delay : kDelays) {
    SCOPED_TRACE(delay.count());
    Mailbox box;
    After sender(delay, [&] { box.deliver(make(0, 4, 9, std::byte{1})); });
    sender.go();
    const Status status = box.probe(0, kAnySource, 9);
    EXPECT_EQ(status.source, 4);
    EXPECT_EQ(status.tag, 9);
    EXPECT_EQ(box.queued(), 1u);
    EXPECT_EQ(box.receive(0, 4, 9).payload->at(0), std::byte{1});
  }
}

// Four senders stream on alternating tags while the receiver asks for the
// tags in turn, so most waits are woken by a delivery that does not match
// and must go back to waiting. A lost wake-up sleeps to the 5 s deadline
// (whose rescan may still find the message), so a slow receive fails too.
TEST(Mailbox, NoWakeUpIsLostAcrossFourSendersOnAlternatingTags) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 10'000;
  Mailbox box;
  std::vector<std::thread> senders;
  for (int source = 0; source < kSenders; ++source) {
    senders.emplace_back([&box, source] {
      for (int i = 0; i < kPerSender; ++i) {
        Envelope e;
        e.source = source;
        e.tag = i % 2;
        e.payload = make_payload(Bytes{static_cast<std::byte>(i & 0xFF),
                                       static_cast<std::byte>(i >> 8)});
        box.deliver(std::move(e));
      }
    });
  }
  // Per (source, tag), messages arrive in send order: non-overtaking. A
  // failure stops the loop, so the senders are still joined.
  std::array<std::array<int, 2>, kSenders> next{};
  for (auto& per_tag : next) per_tag = {0, 1};
  for (int received = 0; received < kSenders * kPerSender; ++received) {
    const int tag = received % 2;
    const auto start = Clock::now();
    const auto e = box.receive_for(0, kAnySource, tag, milliseconds(5000));
    if (!e || Clock::now() - start >= milliseconds(2500)) {
      ADD_FAILURE() << "receive " << received << " waited for its deadline";
      break;
    }
    int& expected = next[static_cast<std::size_t>(e->source)]
                        [static_cast<std::size_t>(tag)];
    const int i = static_cast<int>(e->payload->at(0)) |
                  static_cast<int>(e->payload->at(1)) << 8;
    if (e->tag != tag || i != expected) {
      ADD_FAILURE() << "receive " << received << ": source " << e->source
                    << " tag " << e->tag << " message " << i << ", expected tag "
                    << tag << " message " << expected;
      break;
    }
    expected += 2;
  }
  for (auto& sender : senders) sender.join();
  EXPECT_EQ(box.queued(), 0u);
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// The spin is bounded: a receiver that waits 200 ms sleeps for nearly all
// of it, timed or not.
TEST(Mailbox, AReceiveThatWaits200MsSleeps) {
  {
    Mailbox box;
    After sender(microseconds(200'000),
                 [&] { box.deliver(make(0, 0, 0, std::byte{1})); });
    const double cpu_before = thread_cpu_ms();
    sender.go();
    (void)box.receive(0, 0, 0);
    EXPECT_LT(thread_cpu_ms() - cpu_before, 20.0);
  }
  {
    Mailbox box;
    const double cpu_before = thread_cpu_ms();
    EXPECT_FALSE(box.receive_for(0, 0, 0, milliseconds(200)).has_value());
    EXPECT_LT(thread_cpu_ms() - cpu_before, 20.0);
  }
}

}  // namespace
}  // namespace pdc::mp
