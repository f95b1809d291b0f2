// The Flat and Binomial collective algorithms must be observationally
// equivalent; Binomial additionally bounds the root's critical path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "mp/ops.hpp"
#include "mp/runtime.hpp"

namespace pdc::mp {
namespace {

using Algo = Communicator::CollectiveAlgo;

class AlgoSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgoSizeTest, BinomialBroadcastDeliversEverywhere) {
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) data = {3, 1, 4, 1, 5};
    comm.bcast(data, 0, Algo::Binomial);
    if (data == std::vector<int>{3, 1, 4, 1, 5}) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(AlgoSizeTest, BinomialBroadcastWithNonZeroRoot) {
  const int procs = GetParam();
  const int root = procs - 1;
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    int value = comm.rank() == root ? 777 : -1;
    comm.bcast(value, root, Algo::Binomial);
    if (value == 777) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST_P(AlgoSizeTest, BinomialReduceMatchesFlat) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    const int contribution = (comm.rank() + 3) * (comm.rank() + 3);
    const int flat = comm.reduce(contribution, ops::Sum{}, 0, Algo::Flat);
    const int tree = comm.reduce(contribution, ops::Sum{}, 0, Algo::Binomial);
    if (comm.rank() == 0) {
      EXPECT_EQ(tree, flat);
    }
  });
}

TEST_P(AlgoSizeTest, BinomialReduceWithNonZeroRoot) {
  const int procs = GetParam();
  const int root = procs / 2;
  run(procs, [&](Communicator& comm) {
    const int maximum =
        comm.reduce(comm.rank() * 10, ops::Max{}, root, Algo::Binomial);
    if (comm.rank() == root) {
      EXPECT_EQ(maximum, (procs - 1) * 10);
    }
  });
}

TEST_P(AlgoSizeTest, MixedAlgorithmsInOneProgramAreIndependent) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      int v = comm.rank() == 0 ? round : -1;
      comm.bcast(v, 0, round % 2 == 0 ? Algo::Flat : Algo::Binomial);
      EXPECT_EQ(v, round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlgoSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(AlgoMessages, BothAlgorithmsSendExactlyPMinusOneMessages) {
  // Total message count is identical (p-1); the tree only shortens the
  // critical path. Verified through the universe's send counter.
  for (const Algo algo : {Algo::Flat, Algo::Binomial}) {
    for (int procs : {2, 4, 7, 16}) {
      std::atomic<std::uint64_t> sent{0};
      run(procs, [&](Communicator& comm) {
        int v = comm.rank() == 0 ? 1 : 0;
        comm.bcast(v, 0, algo);
        comm.barrier();  // drain before reading the counter
        if (comm.rank() == 0) {
          // barrier itself costs 2*(p-1) messages.
          sent.store(comm.universe().messages_sent());
        }
      });
      const auto barrier_cost = static_cast<std::uint64_t>(2 * (procs - 1));
      EXPECT_EQ(sent.load() - barrier_cost,
                static_cast<std::uint64_t>(procs - 1))
          << "procs=" << procs;
    }
  }
}

TEST_P(AlgoSizeTest, RecursiveDoublingAllreduceMatchesFlat) {
  // Including non-power-of-two sizes, which exercise the remainder
  // fold-in/fold-out steps.
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    const int contribution = (comm.rank() + 3) * (comm.rank() + 3);
    const int flat = comm.allreduce(contribution, ops::Sum{}, Algo::Flat);
    const int rd =
        comm.allreduce(contribution, ops::Sum{}, Algo::RecursiveDoubling);
    if (rd == flat) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs) << "every rank must hold the full result";
}

TEST_P(AlgoSizeTest, RecursiveDoublingHandlesMinMaxAndVectors) {
  const int procs = GetParam();
  run(procs, [&](Communicator& comm) {
    EXPECT_EQ(comm.allreduce(comm.rank(), ops::Max{}, Algo::RecursiveDoubling),
              procs - 1);
    EXPECT_EQ(
        comm.allreduce(comm.rank() + 5, ops::Min{}, Algo::RecursiveDoubling),
        5);
  });
}

TEST_P(AlgoSizeTest, AutoAllreduceAgreesAcrossRanksAndIsCorrect) {
  // Auto must resolve identically on every rank (a divergent choice would
  // deadlock) — run a chain of Auto collectives and check the values.
  const int procs = GetParam();
  std::atomic<int> correct{0};
  run(procs, [&](Communicator& comm) {
    bool ok = comm.allreduce(1, ops::Sum{}) == procs;
    ok = ok && comm.allreduce(comm.rank(), ops::Max{}) == procs - 1;
    // A dynamic-size payload takes the tree path of Auto.
    std::vector<int> v{comm.rank(), comm.rank() * 2};
    const auto vsum = comm.allreduce(
        v, [](const std::vector<int>& a, const std::vector<int>& b) {
          std::vector<int> out(a.size());
          for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
          return out;
        });
    const int n = procs;
    ok = ok && vsum[0] == n * (n - 1) / 2 && vsum[1] == n * (n - 1);
    if (ok) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), procs);
}

TEST(AlgoContract, RecursiveDoublingRequiresCommutativeOp) {
  // A lambda carries no commutativity declaration, so the out-of-order
  // pairwise schedule must refuse it.
  EXPECT_THROW(
      run(4,
          [](Communicator& comm) {
            (void)comm.allreduce(
                comm.rank(), [](int a, int b) { return a + b; },
                Algo::RecursiveDoubling);
          }),
      InvalidArgument);
}

TEST(AlgoContract, RecursiveDoublingIsAllreduceOnly) {
  run(2, [](Communicator& comm) {
    int v = comm.rank() == 0 ? 1 : 0;
    EXPECT_THROW(comm.bcast(v, 0, Algo::RecursiveDoubling), InvalidArgument);
    EXPECT_THROW((void)comm.reduce(v, ops::Sum{}, 0, Algo::RecursiveDoubling),
                 InvalidArgument);
    EXPECT_THROW((void)comm.allgather(v, Algo::RecursiveDoubling),
                 InvalidArgument);
  });
}

TEST(AlgoContract, LambdasReduceInRankOrder) {
  // Operators without the commutative marker must fold strictly in rank
  // order no matter what Auto resolves elsewhere — string concatenation
  // makes any deviation visible.
  run(4, [](Communicator& comm) {
    const std::string piece(1, static_cast<char>('a' + comm.rank()));
    const auto concat = [](const std::string& a, const std::string& b) {
      return a + b;
    };
    const std::string folded = comm.reduce(piece, concat, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(folded, "abcd");
    }
    std::string everywhere = comm.allreduce(piece, concat);
    EXPECT_EQ(everywhere, "abcd");
  });
}

TEST(AlgoMessages, AllgatherHonorsExplicitAlgorithms) {
  for (const Algo algo : {Algo::Flat, Algo::Binomial}) {
    std::atomic<int> correct{0};
    run(6, [&](Communicator& comm) {
      const auto all = comm.allgather(comm.rank() * 3, algo);
      bool ok = all.size() == 6u;
      for (int r = 0; ok && r < 6; ++r) {
        ok = all[static_cast<std::size_t>(r)] == r * 3;
      }
      if (ok) correct.fetch_add(1);
    });
    EXPECT_EQ(correct.load(), 6);
  }
}

TEST(EncodeSharing, FlatBroadcastEncodesExactlyOnce) {
  // The headline fix: a flat bcast of a vector<double> at p=16 used to
  // serialize the payload 15 times, once per destination. The shared
  // payload makes it exactly one encode for the whole fan-out. Only the
  // root encodes, so its own post-bcast read of the counter is exact.
  std::atomic<std::uint64_t> encodes{~0ull};
  run(16, [&](Communicator& comm) {
    std::vector<double> payload;
    if (comm.rank() == 0) payload.assign(4096, 1.0);
    comm.bcast(payload, 0, Algo::Flat);
    if (comm.rank() == 0) encodes.store(comm.universe().payloads_encoded());
    EXPECT_EQ(payload.size(), 4096u);
  });
  EXPECT_EQ(encodes.load(), 1u);
}

TEST(EncodeSharing, BinomialBroadcastForwardsWithoutReencoding) {
  // Interior tree ranks forward the payload they received; the job-wide
  // encode count stays 1 no matter how many hops the value takes. Read
  // after the job joins so every forward has happened.
  std::uint64_t encodes = 0;
  std::atomic<int> correct{0};
  run(16, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) data = {1, 2, 3};
    comm.bcast(data, 0, Algo::Binomial);
    if (data == std::vector<int>{1, 2, 3}) correct.fetch_add(1);
    comm.barrier();
    if (comm.rank() == 0) {
      // barrier cost: 15 entry tokens + 1 shared release token.
      encodes = comm.universe().payloads_encoded() - 16;
    }
  });
  EXPECT_EQ(correct.load(), 16);
  EXPECT_EQ(encodes, 1u);
}

TEST(EncodeSharing, BarrierReleaseSharesOneToken) {
  // 2*(p-1) messages but only (p-1) entry encodes + 1 release encode.
  std::uint64_t encodes = 0;
  run(8, [&](Communicator& comm) {
    comm.barrier();
    if (comm.rank() == 0) encodes = comm.universe().payloads_encoded();
  });
  EXPECT_EQ(encodes, 8u);
}

TEST(EncodeSharing, RecursiveDoublingMessageCount) {
  // p = 2^k: every rank sends one partial per round, k rounds. No
  // remainder traffic.
  std::atomic<std::uint64_t> sent{0};
  run(8, [&](Communicator& comm) {
    (void)comm.allreduce(comm.rank(), ops::Sum{}, Algo::RecursiveDoubling);
    comm.barrier();
    if (comm.rank() == 0) sent.store(comm.universe().messages_sent());
  });
  const std::uint64_t barrier_cost = 2 * 7;
  EXPECT_EQ(sent.load() - barrier_cost, 8u * 3u);
}

/// What a collective call threw, for pinning exact validation messages.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "<no throw>";
}

TEST(Hierarchical, MatchesFlatAcrossSizesAndTopologies) {
  struct Case {
    int procs;
    std::vector<int> topology;
  };
  const std::vector<Case> cases = {
      {4, {0, 0, 1, 1}},
      {5, {0, 0, 0, 1, 1}},
      {6, {0, 1, 0, 1, 0, 1}},  // interleaved placement
      {8, {0, 0, 0, 0, 1, 1, 2, 2}},
      {4, {0, 0, 0, 0}},  // single node: degenerates to Flat
  };
  for (const auto& c : cases) {
    RunConfig cfg;
    cfg.num_procs = c.procs;
    cfg.topology = c.topology;
    std::atomic<int> correct{0};
    run(cfg, [&](Communicator& comm) {
      const int contribution = (comm.rank() + 3) * (comm.rank() + 3);
      const int flat = comm.reduce(contribution, ops::Sum{}, 0, Algo::Flat);
      const int hier =
          comm.reduce(contribution, ops::Sum{}, 0, Algo::Hierarchical);
      bool ok = comm.rank() != 0 || hier == flat;
      // Non-zero root: the root is its own node's delegate even when it is
      // not the lowest rank there.
      const int root = comm.size() / 2;
      const int maximum =
          comm.reduce(comm.rank() * 10, ops::Max{}, root, Algo::Hierarchical);
      ok = ok && (comm.rank() != root ||
                  maximum == (comm.size() - 1) * 10);
      const int all_flat = comm.allreduce(contribution, ops::Sum{}, Algo::Flat);
      const int all_hier =
          comm.allreduce(contribution, ops::Sum{}, Algo::Hierarchical);
      ok = ok && all_hier == all_flat;
      std::vector<int> data;
      if (comm.rank() == comm.size() - 1) data = {3, 1, 4};
      comm.bcast(data, comm.size() - 1, Algo::Hierarchical);
      ok = ok && data == std::vector<int>{3, 1, 4};
      if (ok) correct.fetch_add(1);
    });
    EXPECT_EQ(correct.load(), c.procs)
        << "procs=" << c.procs << " diverged from Flat";
  }
}

TEST(Hierarchical, AutoIsTopologyAwareAndRankInvariant) {
  // With a multi-node topology Auto resolves the hierarchical schedules;
  // every rank must derive the same choice (a divergent pick deadlocks) and
  // the results must be unchanged — including inside split groups, whose
  // members span both nodes.
  RunConfig cfg;
  cfg.num_procs = 6;
  cfg.topology = {0, 0, 0, 1, 1, 1};
  std::atomic<int> correct{0};
  run(cfg, [&](Communicator& comm) {
    bool ok = comm.allreduce(1, ops::Sum{}) == 6;
    ok = ok && comm.allreduce(comm.rank(), ops::Max{}) == 5;
    int v = comm.rank() == 2 ? 99 : -1;
    comm.bcast(v, 2);
    ok = ok && v == 99;
    const auto all = comm.allgather(comm.rank() * 2);
    ok = ok && all.size() == 6u && all[5] == 10;
    Communicator half = comm.split(comm.rank() % 2, comm.rank());
    ok = ok && half.allreduce(1, ops::Sum{}) == 3;
    if (ok) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 6);
}

TEST(Hierarchical, BcastStaysPMinusOneMessagesAndEncodesOnce) {
  // Leader-per-node does not add traffic: one message per remote delegate
  // plus the local fan-outs is still exactly p-1 sends and one encode —
  // only the *edges* move off the inter-node links.
  RunConfig cfg;
  cfg.num_procs = 8;
  cfg.topology = {0, 0, 0, 0, 1, 1, 1, 1};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> encodes{0};
  run(cfg, [&](Communicator& comm) {
    std::vector<int> data;
    if (comm.rank() == 0) data = {1, 2, 3};
    comm.bcast(data, 0, Algo::Hierarchical);
    EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
    comm.barrier();
    if (comm.rank() == 0) {
      sent.store(comm.universe().messages_sent());
      // barrier cost: 7 entry tokens + 1 shared release token.
      encodes.store(comm.universe().payloads_encoded() - 8);
    }
  });
  const std::uint64_t barrier_cost = 2 * 7;
  EXPECT_EQ(sent.load() - barrier_cost, 7u);
  EXPECT_EQ(encodes.load(), 1u);
}

TEST(AlgoContract, HierarchicalRequiresCommutativeOp) {
  RunConfig cfg;
  cfg.num_procs = 4;
  cfg.topology = {0, 0, 1, 1};
  EXPECT_THROW(run(cfg,
                   [](Communicator& comm) {
                     (void)comm.reduce(
                         comm.rank(), [](int a, int b) { return a + b; }, 0,
                         Algo::Hierarchical);
                   }),
               InvalidArgument);
  EXPECT_THROW(run(cfg,
                   [](Communicator& comm) {
                     (void)comm.allreduce(
                         comm.rank(), [](int a, int b) { return a + b; },
                         Algo::Hierarchical);
                   }),
               InvalidArgument);
}

TEST(AlgoContract, ValidationNamesTheCollectiveExactly) {
  // Every collective that takes an algorithm must reject an unsupported
  // one with an InvalidArgument naming *that* collective — pinned to the
  // exact strings so a refactor cannot silently regress reduce into
  // reporting itself as "allreduce" (the bug this satellite fixed).
  run(1, [](Communicator& comm) {
    int v = 1;
    const auto concat = [](const std::string& a, const std::string& b) {
      return a + b;
    };
    EXPECT_EQ(thrown_message([&] { comm.bcast(v, 0, Algo::RecursiveDoubling); }),
              "bcast: RecursiveDoubling is an allreduce schedule; use Auto, "
              "Flat or Binomial");
    EXPECT_EQ(
        thrown_message(
            [&] { (void)comm.allgather(v, Algo::RecursiveDoubling); }),
        "allgather: RecursiveDoubling is an allreduce schedule; use Auto, "
        "Flat or Binomial");
    EXPECT_EQ(
        thrown_message(
            [&] { (void)comm.reduce(v, ops::Sum{}, 0, Algo::RecursiveDoubling); }),
        "reduce: RecursiveDoubling is an allreduce schedule; use Auto, "
        "Flat or Binomial");
    EXPECT_EQ(
        thrown_message([&] {
          (void)comm.allreduce(std::string("x"), concat,
                               Algo::RecursiveDoubling);
        }),
        "allreduce: RecursiveDoubling pairs ranks out of rank order and "
        "requires an operator declared commutative (see ops::is_commutative)");
    EXPECT_EQ(
        thrown_message([&] {
          (void)comm.reduce(std::string("x"), concat, 0, Algo::Hierarchical);
        }),
        "reduce: Hierarchical folds contributions in arrival order within "
        "each node and requires an operator declared commutative (see "
        "ops::is_commutative)");
    EXPECT_EQ(
        thrown_message([&] {
          (void)comm.allreduce(std::string("x"), concat, Algo::Hierarchical);
        }),
        "allreduce: Hierarchical folds contributions in arrival order within "
        "each node and requires an operator declared commutative (see "
        "ops::is_commutative)");
  });
}

TEST(AlgoMessages, BinomialSubtreesForwardTheData) {
  // With 8 ranks and root 0, rank 4 must forward to ranks 5 and 6 — i.e.
  // non-root ranks send too. Indirectly verified: every rank still gets the
  // value even if the root could only have reached log2(p) ranks directly.
  std::atomic<int> correct{0};
  run(8, [&](Communicator& comm) {
    std::string v = comm.rank() == 0 ? "payload" : "";
    comm.bcast(v, 0, Algo::Binomial);
    if (v == "payload") correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 8);
}

}  // namespace
}  // namespace pdc::mp
