// The shared-memory rank transport: co-located Data frames ride lock-free
// shm rings while the unix-socket mesh keeps carrying wireup, Abort, Bye
// and death detection. These tests run the same in-process cluster harness
// the socket suites use — real segments, real futex waits, one thread per
// rank — plus the data-path bugfix regressions that rode along with the
// backend (dial backoff schedule, partial-send hardening).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "mp/ops.hpp"
#include "net/errors.hpp"
#include "net/harness.hpp"
#include "net/socket.hpp"

namespace pdc::net {
namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;

ClusterOptions shm_options(int np) {
  ClusterOptions options;
  options.np = np;
  options.use_shm = true;
  return options;
}

TEST(ShmTransport, PointToPointRoundTrip) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result =
        run_socket_cluster(shm_options(2), [](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(std::string("through the rings"), 1, 7);
            const auto back = comm.recv<int>(1, 8);
            comm.print("got " + std::to_string(back));
          } else {
            const auto text = comm.recv<std::string>(0, 7);
            comm.send(static_cast<int>(text.size()), 0, 8);
          }
        });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    ASSERT_EQ(result.output[0].size(), 1u);
    EXPECT_EQ(result.output[0][0], "got 17");
  }));
}

TEST(ShmTransport, TransportReportsShmName) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    ClusterOptions options = shm_options(2);
    std::atomic<int> named{0};
    options.on_wired = [&](int, SocketTransport& transport) {
      if (std::string(transport.name()) == "shm") named.fetch_add(1);
    };
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          comm.barrier();
        });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(named.load(), 2);
  }));
}

TEST(ShmTransport, CollectivesMatchLoopbackSemantics) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        shm_options(4), [](mp::Communicator& comm) {
          int n = comm.rank() == 0 ? 12 : -1;
          comm.bcast(n);
          std::vector<int> data(static_cast<std::size_t>(n));
          std::iota(data.begin(), data.end(), 1);
          const std::vector<int> mine = comm.scatter_chunks(data);
          const int local = std::accumulate(mine.begin(), mine.end(), 0);
          const int total =
              comm.reduce(local, [](int a, int b) { return a + b; });
          if (comm.rank() == 0) {
            comm.print("total=" + std::to_string(total));
          }
          const std::vector<int> all = comm.allgather(local);
          comm.print('r' + std::to_string(comm.rank()) + " sees " +
                     std::to_string(all.size()) + " partials");
        });
    ASSERT_TRUE(result.ok()) << result.errors[0];
    EXPECT_EQ(result.output[0][0], "total=78");
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(result.output[static_cast<std::size_t>(r)].back(),
                'r' + std::to_string(r) + " sees 4 partials");
    }
  }));
}

TEST(ShmTransport, TinyRingStreamsLargePayloads) {
  // 16 KiB rings (the minimum) and a 1 MiB payload: the record cannot fit
  // in the ring, so the producer must stream it through in bursts while
  // the consumer drains — the rendezvous-style single-copy path, plus many
  // ring wrap-arounds.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    ClusterOptions options = shm_options(2);
    options.shm_ring_bytes = 16384;
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          std::vector<double> big(1 << 17);  // 1 MiB of doubles
          if (comm.rank() == 0) {
            for (std::size_t i = 0; i < big.size(); ++i) {
              big[i] = static_cast<double>(i) * 0.5;
            }
            comm.send(big, 1);
            // And immediately stream a second one the other way to check
            // full-duplex rings do not interfere.
            const auto echoed = comm.recv<std::vector<double>>(1);
            comm.print(echoed == big ? "echo intact" : "echo corrupt");
          } else {
            const auto got = comm.recv<std::vector<double>>(0);
            comm.send(got, 0);
            bool all_match = got.size() == big.size();
            for (std::size_t i = 0; all_match && i < got.size(); ++i) {
              all_match = got[i] == static_cast<double>(i) * 0.5;
            }
            comm.print(all_match ? "intact" : "corrupt");
          }
        });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    EXPECT_EQ(result.output[0][0], "echo intact");
    EXPECT_EQ(result.output[1][0], "intact");
  }));
}

TEST(ShmTransport, ManySmallMessagesKeepFifoOrder) {
  // 2000 small records through a small ring: hundreds of wraps, constant
  // producer/consumer hand-off through the futex bell.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    ClusterOptions options = shm_options(2);
    options.shm_ring_bytes = 16384;
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          constexpr int kCount = 2000;
          if (comm.rank() == 0) {
            for (int i = 0; i < kCount; ++i) comm.send(i, 1);
          } else {
            bool in_order = true;
            for (int i = 0; i < kCount; ++i) {
              in_order = in_order && comm.recv<int>(0) == i;
            }
            comm.print(in_order ? "fifo" : "scrambled");
          }
        });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    EXPECT_EQ(result.output[1][0], "fifo");
  }));
}

TEST(ShmTransport, ZeroLengthPayloadsSurviveTheRings) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result =
        run_socket_cluster(shm_options(2), [](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send(std::vector<int>{}, 1, 1);
            comm.send(std::string{}, 1, 2);
          } else {
            const auto v = comm.recv<std::vector<int>>(0, 1);
            const auto s = comm.recv<std::string>(0, 2);
            comm.print(v.empty() && s.empty() ? "both empty" : "nonempty?");
          }
        });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    EXPECT_EQ(result.output[1][0], "both empty");
  }));
}

TEST(ShmTransport, TryRecvPollsTheRingsWithoutBlocking) {
  // try_receive never parks in a futex wait; it must still *pump* the shm
  // channel, or a message sitting in the ring would be invisible until the
  // next blocking receive.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result =
        run_socket_cluster(shm_options(2), [](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            comm.send(41, 1);
          } else {
            std::optional<int> got;
            while (!got) {
              got = comm.try_recv<int>(0);
              if (!got) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
            }
            comm.print("polled " + std::to_string(*got));
          }
        });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    EXPECT_EQ(result.output[1][0], "polled 41");
  }));
}

TEST(ShmTransport, RepeatedJobsLeaveNoResidue) {
  // Segments and bell pages are unlinked during wireup; back-to-back shm
  // clusters (distinct uniquified jobs) must never trip over a leftover.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [] {
    for (int round = 0; round < 3; ++round) {
      const ClusterResult result =
          run_socket_cluster(shm_options(3), [](mp::Communicator& comm) {
            const int total = comm.allreduce(
                comm.rank(), [](int a, int b) { return a + b; });
            if (comm.rank() == 0) comm.print(std::to_string(total));
          });
      ASSERT_TRUE(result.ok()) << "round " << round;
      EXPECT_EQ(result.output[0][0], "3");
    }
  }));
}

TEST(ShmTransport, SeveredPeerSurfacesTypedErrorAndPostmortem) {
  // The EOF-without-Bye contract, shm edition: the socket mesh still owns
  // death detection, and a severed peer must poison the rings (waking any
  // blocked producer/consumer) and abort the universe with a postmortem.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    ClusterOptions options = shm_options(2);
    options.linger_ms = 2000;
    options.on_wired = [](int rank, SocketTransport& transport) {
      if (rank == 1) transport.debug_sever_peer(0);
    };
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            try {
              (void)comm.recv<int>(1);
            } catch (const mp::Aborted&) {
              auto* transport = static_cast<SocketTransport*>(
                  comm.universe().transport());
              comm.print("postmortem=" + transport->postmortem());
              throw;
            }
          } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
    EXPECT_FALSE(result.errors[0].empty()) << "rank 0 should have aborted";
    ASSERT_EQ(result.output[0].size(), 1u);
    EXPECT_NE(result.output[0][0], "postmortem=") << "postmortem was empty";
    EXPECT_NE(result.output[0][0].find("rank 1"), std::string::npos)
        << result.output[0][0];
  }));
}

TEST(ShmTransport, ForcedTopologyRunsHierarchicalCollectives) {
  // Mixed-backend shape on one machine: a forced {0,0,1,1} topology makes
  // Auto resolve Hierarchical while ranks still talk shm within a "node"
  // and (notionally) sockets across. Results must match the flat schedules
  // exactly.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    ClusterOptions options = shm_options(4);
    options.nodes = {0, 0, 1, 1};
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          using Algo = mp::Communicator::CollectiveAlgo;
          const int sum_auto =
              comm.allreduce(comm.rank() + 1, mp::ops::Sum{});
          const int sum_flat =
              comm.allreduce(comm.rank() + 1, mp::ops::Sum{}, Algo::Flat);
          std::string text = comm.rank() == 1 ? "from the delegate tier" : "";
          comm.bcast(text, 1);
          const int max_at_2 =
              comm.reduce(comm.rank() * 5, mp::ops::Max{}, 2);
          comm.print('r' + std::to_string(comm.rank()) + " sum=" +
                     std::to_string(sum_auto) + "/" +
                     std::to_string(sum_flat) + " text=" + text +
                     (comm.rank() == 2
                          ? " max=" + std::to_string(max_at_2)
                          : ""));
        });
    ASSERT_TRUE(result.ok())
        << result.errors[0] << result.errors[1] << result.errors[2]
        << result.errors[3];
    EXPECT_EQ(result.output[0][0],
              "r0 sum=10/10 text=from the delegate tier");
    EXPECT_EQ(result.output[2][0],
              "r2 sum=10/10 text=from the delegate tier max=15");
  }));
}

// ---- satellite regressions: the data-path bugfix sweep -------------------

TEST(DialBackoff, ScheduleIsExponentialWithCap) {
  using std::chrono::milliseconds;
  // Jitter is bounded by base/4, so the base doubling must show through:
  // every delay lives in [base, min(base + base/4, cap)].
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const auto delay =
        dial_backoff_delay(attempt, milliseconds(1), milliseconds(200), 42);
    const long long base = std::min(1LL << (attempt - 1), 200LL);
    EXPECT_GE(delay.count(), base) << "attempt " << attempt;
    EXPECT_LE(delay.count(), std::min(base + base / 4, 200LL))
        << "attempt " << attempt;
  }
  // Far past the doubling horizon the cap rules absolutely.
  EXPECT_EQ(
      dial_backoff_delay(63, milliseconds(1), milliseconds(200), 7).count(),
      200);
  EXPECT_EQ(
      dial_backoff_delay(1000, milliseconds(1), milliseconds(200), 7).count(),
      200);
}

TEST(DialBackoff, ActuallyGrowsBetweenAttempts) {
  // The original bug: the per-attempt sleep never changed, so attempt 8
  // slept exactly as long as attempt 1. Pin strict growth until the cap.
  using std::chrono::milliseconds;
  auto previous = dial_backoff_delay(1, milliseconds(2), milliseconds(500), 9);
  for (int attempt = 2; attempt <= 8; ++attempt) {
    const auto delay =
        dial_backoff_delay(attempt, milliseconds(2), milliseconds(500), 9);
    EXPECT_GT(delay.count(), previous.count()) << "attempt " << attempt;
    previous = delay;
  }
}

TEST(DialBackoff, ZeroInitialNoLongerBusyDials) {
  // initial=0 used to sleep 0ms forever (a busy-dial hammering the
  // listener); it must now behave as 1ms-and-doubling.
  using std::chrono::milliseconds;
  EXPECT_GE(
      dial_backoff_delay(1, milliseconds(0), milliseconds(100), 3).count(), 1);
  EXPECT_GE(
      dial_backoff_delay(4, milliseconds(0), milliseconds(100), 3).count(), 8);
}

TEST(DialBackoff, JitterIsDeterministicPerKeyAndDecorrelatesKeys) {
  using std::chrono::milliseconds;
  bool any_differ = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const auto a =
        dial_backoff_delay(attempt, milliseconds(16), milliseconds(400), 1);
    const auto b =
        dial_backoff_delay(attempt, milliseconds(16), milliseconds(400), 1);
    EXPECT_EQ(a.count(), b.count()) << "same key must replay identically";
    const auto other =
        dial_backoff_delay(attempt, milliseconds(16), milliseconds(400), 2);
    any_differ = any_differ || other.count() != a.count();
  }
  EXPECT_TRUE(any_differ) << "distinct keys should decorrelate somewhere";
}

/// A unix socketpair with deliberately tiny buffers and a send timeout —
/// the shape under which a bulk send_all sees EAGAIN mid-buffer.
struct TinyPair {
  Socket writer;
  Socket reader;
  TinyPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
    timeval tv{};
    tv.tv_usec = 50 * 1000;  // 50ms: EAGAIN arrives fast and often
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    writer = Socket(fds[0]);
    reader = Socket(fds[1]);
  }
};

TEST(PartialSend, SlowDrainerCompletesDespiteRepeatedEagain) {
  // The original bug: EAGAIN from the send timeout was treated as a dead
  // peer. A slow-but-alive drainer must never be declared lost.
  TinyPair pair;
  mp::Bytes blob(512 * 1024);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i * 31);
  }

  std::thread drainer([&] {
    std::size_t total = 0;
    char buf[2048];
    while (total < blob.size()) {
      const ssize_t n = ::recv(pair.reader.fd(), buf, sizeof buf, 0);
      ASSERT_GT(n, 0);
      total += static_cast<std::size_t>(n);
      // Slow enough to overrun the 4K buffers constantly, fast enough to
      // always count as progress within the stall budget.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_NO_THROW(send_all(pair.writer, blob, nullptr, false, "test",
                           std::chrono::milliseconds(5000)));
  drainer.join();
}

TEST(PartialSend, FrozenDrainerIsDeclaredLostAfterTheStallBudget) {
  TinyPair pair;
  mp::Bytes blob(1024 * 1024);
  const auto start = std::chrono::steady_clock::now();
  try {
    send_all(pair.writer, blob, nullptr, false, "test",
             std::chrono::milliseconds(300));
    FAIL() << "a frozen drainer must surface as PeerLost";
  } catch (const PeerLost& lost) {
    EXPECT_NE(std::string(lost.what()).find("stopped draining"),
              std::string::npos)
        << lost.what();
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(10)) << "stall budget ignored";
}

}  // namespace
}  // namespace pdc::net
