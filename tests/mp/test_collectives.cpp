// Collective correctness across communicator sizes 1..8 (property sweep via
// TEST_P) plus semantics checks for each collective.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "mp/ops.hpp"
#include "mp/runtime.hpp"
#include "support/error.hpp"

namespace pdc::mp {
namespace {

class CollectiveSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizeTest, BroadcastDeliversToEveryRank) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) data = {5, 6, 7};
    comm.bcast(data, 0);
    if (data == std::vector<int>{5, 6, 7}) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, GatherCollectsInRankOrder) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    const auto all = comm.gather(comm.rank() * 2, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<std::size_t>(procs));
      for (int r = 0; r < procs; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 2);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveSizeTest, AllgatherGivesEveryoneEverything) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    const auto all = comm.allgather(comm.rank() + 1);
    bool ok = all.size() == static_cast<std::size_t>(procs);
    for (int r = 0; ok && r < procs; ++r) {
      ok = all[static_cast<std::size_t>(r)] == r + 1;
    }
    if (ok) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, ScatterDeliversPerRankValue) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    std::vector<std::string> values;
    if (comm.rank() == 0) {
      for (int r = 0; r < procs; ++r) values.push_back('v' + std::to_string(r));
    }
    const std::string mine = comm.scatter(values, 0);
    EXPECT_EQ(mine, "v" + std::to_string(comm.rank()));
  });
}

TEST_P(CollectiveSizeTest, ScatterChunksThenGatherChunksIsIdentity) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) {
      data.resize(23);  // deliberately not divisible by procs
      std::iota(data.begin(), data.end(), 100);
    }
    const std::vector<int> mine = comm.scatter_chunks(data, 0);
    const std::vector<int> back = comm.gather_chunks(mine, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(back, data);
    }
  });
}

TEST_P(CollectiveSizeTest, ReduceSumMatchesClosedForm) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    const int total = comm.reduce(comm.rank() + 1, ops::Sum{}, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(total, procs * (procs + 1) / 2);
    }
  });
}

TEST_P(CollectiveSizeTest, AllreduceMaxEverywhere) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    const int max = comm.allreduce(comm.rank(), ops::Max{});
    if (max == procs - 1) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, InclusiveScanIsPrefixSum) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    const int prefix = comm.scan(comm.rank() + 1, ops::Sum{});
    const int expected = (comm.rank() + 1) * (comm.rank() + 2) / 2;
    if (prefix == expected) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, ExclusiveScanShiftsByOne) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    const int prefix = comm.exscan(comm.rank() + 1, ops::Sum{}, 0);
    const int expected = comm.rank() * (comm.rank() + 1) / 2;
    if (prefix == expected) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, AlltoallTransposesPersonalizedData) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    std::vector<int> per_dest(static_cast<std::size_t>(procs));
    for (int d = 0; d < procs; ++d) {
      per_dest[static_cast<std::size_t>(d)] = comm.rank() * 100 + d;
    }
    const auto received = comm.alltoall(per_dest);
    bool ok = received.size() == static_cast<std::size_t>(procs);
    for (int s = 0; ok && s < procs; ++s) {
      ok = received[static_cast<std::size_t>(s)] == s * 100 + comm.rank();
    }
    if (ok) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(CollectiveSizeTest, BarrierCompletesForAllSizes) {
  const int procs = GetParam();
  std::atomic<int> passed{0};
  run(procs, [&](Communicator& comm) {
    comm.barrier();
    passed.fetch_add(1);
  });
  EXPECT_EQ(passed.load(), procs);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(Collectives, NonRootBroadcastSourceIgnoresLocalValue) {
  run(3, [&](Communicator& comm) {
    std::vector<int> data{-1, -1};  // garbage off-root
    if (comm.rank() == 1) data = {9, 9, 9};
    comm.bcast(data, 1);
    EXPECT_EQ(data, (std::vector<int>{9, 9, 9}));
  });
}

TEST(Collectives, ReduceWithNonZeroRoot) {
  run(4, [&](Communicator& comm) {
    const int total = comm.reduce(1, ops::Sum{}, 2);
    if (comm.rank() == 2) {
      EXPECT_EQ(total, 4);
    }
  });
}

TEST(Collectives, ReduceCombinesInRankOrder) {
  // String concatenation is associative but NOT commutative; rank-order
  // combination makes the result deterministic.
  run(4, [&](Communicator& comm) {
    const std::string combined = comm.reduce(
        std::string(1, static_cast<char>('a' + comm.rank())),
        [](const std::string& x, const std::string& y) { return x + y; }, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(combined, "abcd");
    }
  });
}

TEST(Collectives, MinLocTracksContributingRank) {
  run(4, [&](Communicator& comm) {
    const ops::Located<int> mine{10 - comm.rank(), comm.rank()};
    const auto best = comm.allreduce(mine, ops::MinLoc{});
    EXPECT_EQ(best.value, 7);
    EXPECT_EQ(best.rank, 3);
  });
}

TEST(Collectives, MaxLocBreaksTiesTowardLowerRank) {
  run(4, [&](Communicator& comm) {
    const ops::Located<int> mine{42, comm.rank()};  // all equal
    const auto best = comm.allreduce(mine, ops::MaxLoc{});
    EXPECT_EQ(best.rank, 0);
  });
}

TEST(Collectives, ScatterWrongCountThrowsAtRoot) {
  EXPECT_THROW(run(3,
                   [&](Communicator& comm) {
                     std::vector<int> values{1, 2};  // 2 values, 3 ranks
                     (void)comm.scatter(values, 0);
                   }),
               Error);
}

TEST(Collectives, BackToBackCollectivesDoNotInterfere) {
  run(4, [&](Communicator& comm) {
    for (int round = 0; round < 25; ++round) {
      const int sum = comm.allreduce(round + comm.rank(), ops::Sum{});
      EXPECT_EQ(sum, 4 * round + 6);
      std::vector<int> data;
      if (comm.rank() == round % 4) data = {round};
      comm.bcast(data, round % 4);
      EXPECT_EQ(data, std::vector<int>{round});
    }
  });
}

}  // namespace
}  // namespace pdc::mp
