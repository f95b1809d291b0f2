// Functional tests of the socket transport through the in-process cluster
// harness: real unix/TCP sockets, real writer/reader threads, one thread
// per rank — the configuration the tsan suite can watch end to end.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "net/harness.hpp"

namespace pdc::net {

/// Names each backend ("unix", "tcp"); ctest takes the test id from this.
/// Without it gtest prints the enum as raw bytes.
void PrintTo(Endpoint::Kind kind, std::ostream* os) {
  *os << (kind == Endpoint::Kind::Unix ? "unix" : "tcp");
}

namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;

ClusterOptions options_for(Endpoint::Kind kind, int np) {
  ClusterOptions options;
  options.kind = kind;
  options.np = np;
  return options;
}

class SocketTransportTest : public ::testing::TestWithParam<Endpoint::Kind> {};

INSTANTIATE_TEST_SUITE_P(Backends, SocketTransportTest,
                         ::testing::Values(Endpoint::Kind::Unix,
                                           Endpoint::Kind::Tcp));

TEST_P(SocketTransportTest, PointToPointRoundTrip) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result =
        run_socket_cluster(options_for(GetParam(), 2),
                           [](mp::Communicator& comm) {
                             if (comm.rank() == 0) {
                               comm.send(std::string("over the wire"), 1, 7);
                               const auto back = comm.recv<int>(1, 8);
                               comm.print("got " + std::to_string(back));
                             } else {
                               const auto text = comm.recv<std::string>(0, 7);
                               comm.send(static_cast<int>(text.size()), 0, 8);
                             }
                           });
    ASSERT_TRUE(result.ok()) << result.errors[0] << result.errors[1];
    ASSERT_EQ(result.output[0].size(), 1u);
    EXPECT_EQ(result.output[0][0], "got 13");
  }));
}

TEST_P(SocketTransportTest, CollectivesMatchLoopbackSemantics) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 4), [](mp::Communicator& comm) {
          // bcast → scatter → local work → reduce → allgather: one pass
          // over the collective surface, every byte through the sockets.
          int n = comm.rank() == 0 ? 12 : -1;
          comm.bcast(n);
          std::vector<int> data(static_cast<std::size_t>(n));
          std::iota(data.begin(), data.end(), 1);
          const std::vector<int> mine = comm.scatter_chunks(data);
          const int local =
              std::accumulate(mine.begin(), mine.end(), 0);
          const int total =
              comm.reduce(local, [](int a, int b) { return a + b; });
          if (comm.rank() == 0) {
            comm.print("total=" + std::to_string(total));
          }
          const std::vector<int> all = comm.allgather(local);
          comm.print('r' + std::to_string(comm.rank()) + " sees " +
                     std::to_string(all.size()) + " partials");
        });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output[0][0], "total=78");  // 1+…+12
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(result.output[static_cast<std::size_t>(r)].back(),
                'r' + std::to_string(r) + " sees 4 partials");
    }
  }));
}

TEST_P(SocketTransportTest, LargePayloadSurvivesFraming) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 2), [](mp::Communicator& comm) {
          std::vector<double> big(1 << 17);  // 1 MiB of doubles
          if (comm.rank() == 0) {
            for (std::size_t i = 0; i < big.size(); ++i) {
              big[i] = static_cast<double>(i) * 0.5;
            }
            comm.send(big, 1);
          } else {
            const auto got = comm.recv<std::vector<double>>(0);
            bool all_match = got.size() == big.size();
            for (std::size_t i = 0; all_match && i < got.size(); ++i) {
              all_match = got[i] == static_cast<double>(i) * 0.5;
            }
            comm.print(all_match ? "intact" : "corrupt");
          }
        });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output[1][0], "intact");
  }));
}

TEST_P(SocketTransportTest, DupAndSplitWorkAcrossProcessNamespaces) {
  // dup/split allocate fresh communicator ids concurrently on different
  // "processes" (namespaced per rank in a distributed universe); the ids
  // must agree within a group and never collide across groups.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 4), [](mp::Communicator& comm) {
          mp::Communicator dup = comm.dup();
          const int via_dup = dup.allreduce(
              comm.rank(), [](int a, int b) { return a + b; });
          mp::Communicator half =
              comm.split(comm.rank() % 2, comm.rank());
          const int via_half = half.allreduce(
              comm.rank(), [](int a, int b) { return a + b; });
          comm.print('r' + std::to_string(comm.rank()) + " dup=" +
                     std::to_string(via_dup) + " half=" +
                     std::to_string(via_half));
        });
    ASSERT_TRUE(result.ok());
    // world sum 0+1+2+3=6; evens 0+2=2; odds 1+3=4.
    EXPECT_EQ(result.output[0][0], "r0 dup=6 half=2");
    EXPECT_EQ(result.output[1][0], "r1 dup=6 half=4");
    EXPECT_EQ(result.output[2][0], "r2 dup=6 half=2");
    EXPECT_EQ(result.output[3][0], "r3 dup=6 half=4");
  }));
}

TEST_P(SocketTransportTest, TagsAndAnySourceMatchOverTheWire) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 3), [](mp::Communicator& comm) {
          if (comm.rank() == 0) {
            int sum = 0;
            for (int i = 0; i < 2; ++i) {
              mp::Status status;
              sum += comm.recv<int>(mp::kAnySource, 5, &status);
            }
            comm.print("sum=" + std::to_string(sum));
          } else {
            comm.send(comm.rank() * 10, 0, 5);
          }
        });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output[0][0], "sum=30");
  }));
}

TEST_P(SocketTransportTest, HostnamesLearnedThroughWireup) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 2), [](mp::Communicator& comm) {
          comm.print(comm.processor_name());
        });
    ASSERT_TRUE(result.ok());
    // The harness leaves the default hostname in place — the same name the
    // loopback goldens carry, which is what keeps the transcripts
    // comparable.
    EXPECT_EQ(result.output[0][0], "d6ff4f902ed6");
    EXPECT_EQ(result.output[1][0], "d6ff4f902ed6");
  }));
}

TEST_P(SocketTransportTest, SingleRankJobNeedsNoPeers) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 1), [](mp::Communicator& comm) {
          int v = 3;
          comm.bcast(v);  // self-collectives still work
          comm.barrier();
          comm.print("alone but fine");
        });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output[0][0], "alone but fine");
  }));
}

TEST_P(SocketTransportTest, ManySmallMessagesKeepFifoOrder) {
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    const ClusterResult result = run_socket_cluster(
        options_for(GetParam(), 2), [](mp::Communicator& comm) {
          constexpr int kCount = 500;
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
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.output[1][0], "fifo");
  }));
}

TEST(SocketTransportCleanup, RepeatedJobsLeaveNoResidue) {
  // Back-to-back jobs in one process: sockets, scratch dirs and threads
  // from job N must be fully gone before job N+1 (shutdown-ordering
  // satellite, success path).
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [] {
    for (int round = 0; round < 3; ++round) {
      ClusterOptions options;
      options.np = 3;
      const ClusterResult result =
          run_socket_cluster(options, [](mp::Communicator& comm) {
            comm.barrier();
          });
      ASSERT_TRUE(result.ok()) << "round " << round;
    }
  }));
}

}  // namespace
}  // namespace pdc::net
