#include "exemplars/drugdesign.hpp"

#include "mp/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

namespace pdc::exemplars {
namespace {

TEST(Lcs, KnownValues) {
  EXPECT_EQ(score("abc", "abc"), 3);
  EXPECT_EQ(score("abc", "xyz"), 0);
  EXPECT_EQ(score("aggtab", "gxtxayb"), 4);  // classic LCS example: "gtab"
  EXPECT_EQ(score("a", "aaaa"), 1);
  EXPECT_EQ(score("", "anything"), 0);
}

TEST(Lcs, IsSymmetricInItsArguments) {
  EXPECT_EQ(score("gattaca", "tacgat"), score("tacgat", "gattaca"));
}

TEST(Lcs, BoundedByShorterString) {
  const std::string protein = "acgtacgtacgt";
  for (const std::string ligand : {"acg", "tttt", "gtca"}) {
    EXPECT_LE(score(ligand, protein),
              static_cast<int>(std::min(ligand.size(), protein.size())));
  }
}

TEST(Lcs, SubstringScoresItsOwnLength) {
  EXPECT_EQ(score("tacg", "xxtacgyy"), 4);
}

TEST(MakeLigands, DeterministicForSeed) {
  DrugDesignConfig config;
  EXPECT_EQ(make_ligands(config), make_ligands(config));
  DrugDesignConfig other = config;
  other.seed = 43;
  EXPECT_NE(make_ligands(config), make_ligands(other));
}

TEST(MakeLigands, RespectsCountAndLengthBounds) {
  DrugDesignConfig config;
  config.num_ligands = 57;
  config.max_ligand_length = 5;
  const auto ligands = make_ligands(config);
  ASSERT_EQ(ligands.size(), 57u);
  for (const auto& ligand : ligands) {
    EXPECT_GE(ligand.size(), 2u);
    EXPECT_LE(ligand.size(), 5u);
    for (char c : ligand) {
      EXPECT_TRUE(c == 'a' || c == 'c' || c == 'g' || c == 't');
    }
  }
}

TEST(MakeLigands, ValidatesConfig) {
  DrugDesignConfig config;
  config.num_ligands = 0;
  EXPECT_THROW(make_ligands(config), InvalidArgument);
  config.num_ligands = 10;
  config.max_ligand_length = 1;
  EXPECT_THROW(make_ligands(config), InvalidArgument);
  config.max_ligand_length = 4;
  config.protein.clear();
  EXPECT_THROW(make_ligands(config), InvalidArgument);
}

TEST(ScreenSerial, FindsTheTrueMaximum) {
  DrugDesignConfig config;
  config.num_ligands = 80;
  const DrugResult result = screen_serial(config);
  const auto ligands = make_ligands(config);
  int best = 0;
  for (const auto& ligand : ligands) {
    best = std::max(best, score(ligand, config.protein));
  }
  EXPECT_EQ(result.max_score, best);
  ASSERT_FALSE(result.best_ligands.empty());
  for (const auto& ligand : result.best_ligands) {
    EXPECT_EQ(score(ligand, config.protein), best);
  }
}

TEST(ScreenSerial, BestLigandsAreSortedAndUnique) {
  DrugDesignConfig config;
  config.num_ligands = 200;
  const DrugResult result = screen_serial(config);
  EXPECT_TRUE(std::is_sorted(result.best_ligands.begin(),
                             result.best_ligands.end()));
  EXPECT_EQ(std::adjacent_find(result.best_ligands.begin(),
                               result.best_ligands.end()),
            result.best_ligands.end());
}

class ScreenEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScreenEquivalenceTest, SmpMatchesSerial) {
  DrugDesignConfig config;
  config.num_ligands = 120;
  const DrugResult serial = screen_serial(config);
  const DrugResult smp =
      screen_smp(config, static_cast<std::size_t>(GetParam()));
  EXPECT_EQ(smp, serial);
}

TEST_P(ScreenEquivalenceTest, MpMatchesSerial) {
  DrugDesignConfig config;
  config.num_ligands = 120;
  const DrugResult serial = screen_serial(config);
  EXPECT_EQ(screen_mp(config, GetParam()), serial);
}

INSTANTIATE_TEST_SUITE_P(Workers, ScreenEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(ScreenMasterWorker, MatchesSerialResult) {
  DrugDesignConfig config;
  config.num_ligands = 60;
  const DrugResult serial = screen_serial(config);
  mp::run(4, [&](mp::Communicator& comm) {
    const DrugResult result = screen_master_worker(comm, config);
    if (comm.rank() == 0) {
      EXPECT_EQ(result, serial);
    } else {
      EXPECT_EQ(result, DrugResult{});
    }
  });
}

TEST(ScreenMasterWorker, MoreWorkersThanLigands) {
  DrugDesignConfig config;
  config.num_ligands = 2;
  const DrugResult serial = screen_serial(config);
  mp::run(6, [&](mp::Communicator& comm) {
    const DrugResult result = screen_master_worker(comm, config);
    if (comm.rank() == 0) {
      EXPECT_EQ(result, serial);
    }
  });
}

TEST(ScreenMasterWorker, RequiresTwoProcesses) {
  DrugDesignConfig config;
  EXPECT_THROW(mp::run(1,
                       [&](mp::Communicator& comm) {
                         (void)screen_master_worker(comm, config);
                       }),
               InvalidArgument);
}

TEST(ScreenRank, EveryRankGetsTheFullResult) {
  DrugDesignConfig config;
  config.num_ligands = 90;
  const DrugResult serial = screen_serial(config);
  mp::run(3, [&](mp::Communicator& comm) {
    EXPECT_EQ(screen_rank(comm, config), serial);
  });
}

}  // namespace
}  // namespace pdc::exemplars
