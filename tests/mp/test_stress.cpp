// Stress and property tests of the message-passing runtime: random
// point-to-point storms, concurrent jobs, and mixed-construct workloads.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mp/ops.hpp"
#include "mp/runtime.hpp"
#include "support/rng.hpp"

namespace pdc::mp {
namespace {

TEST(Stress, RandomAllToAllStormConservesEverySum) {
  // Every rank sends a random number of random values to every other rank,
  // then announces how many it sent; receivers drain exactly that many.
  // Property: the global sum received equals the global sum sent.
  constexpr int kProcs = 6;
  run(kProcs, [&](Communicator& comm) {
    Rng rng = Rng::for_stream(99, static_cast<std::uint64_t>(comm.rank()));
    constexpr int kCountTag = 1;
    constexpr int kValueTag = 2;

    std::int64_t sent_total = 0;
    for (int dest = 0; dest < comm.size(); ++dest) {
      if (dest == comm.rank()) continue;
      const int count = static_cast<int>(rng.uniform_int(0, 20));
      comm.send(count, dest, kCountTag);
      for (int k = 0; k < count; ++k) {
        const std::int64_t value = rng.uniform_int(-1000, 1000);
        sent_total += value;
        comm.send(value, dest, kValueTag);
      }
    }

    std::int64_t received_total = 0;
    for (int src = 0; src < comm.size(); ++src) {
      if (src == comm.rank()) continue;
      const int count = comm.recv<int>(src, kCountTag);
      for (int k = 0; k < count; ++k) {
        received_total += comm.recv<std::int64_t>(src, kValueTag);
      }
    }

    const std::int64_t global_sent =
        comm.allreduce(sent_total, ops::Sum{});
    const std::int64_t global_received =
        comm.allreduce(received_total, ops::Sum{});
    EXPECT_EQ(global_sent, global_received);
  });
}

TEST(Stress, ConcurrentIndependentJobs) {
  // Several mp jobs running simultaneously from different host threads must
  // not interfere (separate universes).
  constexpr int kJobs = 4;
  std::atomic<int> successes{0};
  std::vector<std::thread> drivers;
  for (int j = 0; j < kJobs; ++j) {
    drivers.emplace_back([&, j] {
      run(3, [&](Communicator& comm) {
        const int sum = comm.allreduce(comm.rank() + j * 100, ops::Sum{});
        if (sum == 3 + 3 * j * 100) successes.fetch_add(1);
      });
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(successes.load(), kJobs * 3);
}

TEST(Stress, ManySmallCollectivesInterleavedWithP2P) {
  run(5, [](Communicator& comm) {
    Rng rng = Rng::for_stream(7, static_cast<std::uint64_t>(comm.rank()));
    for (int round = 0; round < 40; ++round) {
      // A collective every round...
      const int total = comm.allreduce(1, ops::Sum{});
      ASSERT_EQ(total, 5);
      // ...plus a ring hop with a payload derived from the round.
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() - 1 + comm.size()) % comm.size();
      comm.send(round * 10 + comm.rank(), right, 3);
      const int got = comm.recv<int>(left, 3);
      ASSERT_EQ(got, round * 10 + left);
      (void)rng;
    }
  });
}

TEST(Stress, LargeWorldBarrierAndReduce) {
  run(48, [](Communicator& comm) {
    comm.barrier();
    const int sum = comm.allreduce(1, ops::Sum{});
    EXPECT_EQ(sum, 48);
    const int max =
        comm.reduce(comm.rank(), ops::Max{}, 0,
                    Communicator::CollectiveAlgo::Binomial);
    if (comm.rank() == 0) {
      EXPECT_EQ(max, 47);
    }
  });
}

TEST(Stress, SplitFollowedByHeavyTrafficInEachHalf) {
  run(8, [](Communicator& comm) {
    Communicator half = comm.split(comm.rank() % 2, comm.rank());
    for (int round = 0; round < 20; ++round) {
      const int sum = half.allreduce(half.rank(), ops::Sum{});
      ASSERT_EQ(sum, 0 + 1 + 2 + 3);
    }
    // The parent still works afterwards.
    EXPECT_EQ(comm.allreduce(1, ops::Sum{}), 8);
  });
}

}  // namespace
}  // namespace pdc::mp
