#include "exemplars/forestfire.hpp"

#include "mp/runtime.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace pdc::exemplars {
namespace {

TEST(FireSim, StartsWithOnlyTheCenterBurning) {
  FireSim sim(FireParams{9, 0.5, 1});
  EXPECT_EQ(sim.count(Cell::Burning), 1);
  EXPECT_EQ(sim.at(4, 4), Cell::Burning);
  EXPECT_EQ(sim.count(Cell::Burnt), 0);
  EXPECT_EQ(sim.count(Cell::Unburnt), 80);
}

TEST(FireSim, ValidatesParameters) {
  EXPECT_THROW(FireSim(FireParams{2, 0.5, 1}), InvalidArgument);
  EXPECT_THROW(FireSim(FireParams{9, -0.1, 1}), InvalidArgument);
  EXPECT_THROW(FireSim(FireParams{9, 1.1, 1}), InvalidArgument);
}

TEST(FireSim, ZeroProbabilityBurnsOnlyTheCenter) {
  const FireResult result = burn_once(FireParams{15, 0.0, 7});
  EXPECT_EQ(result.steps, 1);
  EXPECT_NEAR(result.burned_fraction, 1.0 / 225.0, 1e-12);
}

TEST(FireSim, CertainSpreadBurnsTheWholeForest) {
  const FireResult result = burn_once(FireParams{11, 1.0, 7});
  EXPECT_NEAR(result.burned_fraction, 1.0, 1e-12);
  // With certain spread, fire advances one Manhattan ring per step: the
  // farthest corner is 2 * (11/2) = 10 hops away, +1 final burn-out step.
  EXPECT_EQ(result.steps, 11);
}

TEST(FireSim, CellCountsAreConserved) {
  FireSim sim(FireParams{13, 0.6, 3});
  const int total = 13 * 13;
  while (sim.step()) {
    EXPECT_EQ(sim.count(Cell::Unburnt) + sim.count(Cell::Burning) +
                  sim.count(Cell::Burnt),
              total);
  }
}

TEST(FireSim, BurntNeverDecreases) {
  FireSim sim(FireParams{13, 0.7, 9});
  int prev_burnt = sim.count(Cell::Burnt);
  while (sim.step()) {
    const int burnt = sim.count(Cell::Burnt);
    EXPECT_GE(burnt, prev_burnt);
    prev_burnt = burnt;
  }
}

TEST(FireSim, IsDeterministicForSeed) {
  const FireResult a = burn_once(FireParams{21, 0.5, 1234});
  const FireResult b = burn_once(FireParams{21, 0.5, 1234});
  EXPECT_DOUBLE_EQ(a.burned_fraction, b.burned_fraction);
  EXPECT_EQ(a.steps, b.steps);
  const FireResult c = burn_once(FireParams{21, 0.5, 1235});
  EXPECT_TRUE(a.burned_fraction != c.burned_fraction || a.steps != c.steps);
}

TEST(FireSim, RenderShowsAllThreeStates) {
  FireSim sim(FireParams{9, 1.0, 2});
  sim.step();  // center burnt, ring burning
  const auto rows = sim.render();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[4][4], ' ');   // burnt center
  EXPECT_EQ(rows[4][5], '*');   // burning neighbor
  EXPECT_EQ(rows[0][0], '.');   // untouched corner
}

TEST(FireSim, AtValidatesCoordinates) {
  FireSim sim(FireParams{9, 0.5, 1});
  EXPECT_THROW((void)sim.at(-1, 0), InvalidArgument);
  EXPECT_THROW((void)sim.at(0, 9), InvalidArgument);
}

TEST(Sweep, DefaultProbabilitiesCoverTheUnitRange) {
  const auto probs = default_probabilities();
  ASSERT_EQ(probs.size(), 10u);
  EXPECT_DOUBLE_EQ(probs.front(), 0.1);
  EXPECT_DOUBLE_EQ(probs.back(), 1.0);
}

TEST(Sweep, BurnFractionShowsPhaseTransition) {
  const auto sweep = sweep_serial(21, default_probabilities(), 40, 99);
  // Low spread probability: almost nothing burns. High: nearly everything.
  EXPECT_LT(sweep.front().mean_burned_fraction, 0.1);
  EXPECT_GT(sweep.back().mean_burned_fraction, 0.95);
  // And the curve rises overall.
  EXPECT_LT(sweep[2].mean_burned_fraction, sweep[8].mean_burned_fraction);
}

TEST(Sweep, ValidatesArguments) {
  EXPECT_THROW(sweep_serial(2, {0.5}, 10, 1), InvalidArgument);
  EXPECT_THROW(sweep_serial(9, {0.5}, 0, 1), InvalidArgument);
}

class SweepEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SweepEquivalenceTest, SmpSweepIsBitIdenticalToSerial) {
  const std::vector<double> probs{0.2, 0.5, 0.8};
  const auto serial = sweep_serial(15, probs, 24, 7);
  const auto smp =
      sweep_smp(15, probs, 24, 7, static_cast<std::size_t>(GetParam()));
  ASSERT_EQ(smp.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_DOUBLE_EQ(smp[k].mean_burned_fraction,
                     serial[k].mean_burned_fraction);
    EXPECT_DOUBLE_EQ(smp[k].mean_steps, serial[k].mean_steps);
  }
}

TEST_P(SweepEquivalenceTest, MpSweepIsBitIdenticalToSerial) {
  const std::vector<double> probs{0.3, 0.6};
  const auto serial = sweep_serial(15, probs, 20, 11);
  const auto mp_result = sweep_mp(15, probs, 20, 11, GetParam());
  ASSERT_EQ(mp_result.size(), serial.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_DOUBLE_EQ(mp_result[k].mean_burned_fraction,
                     serial[k].mean_burned_fraction);
    EXPECT_DOUBLE_EQ(mp_result[k].mean_steps, serial[k].mean_steps);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SweepEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(Sweep, EveryRankReturnsTheFullSweep) {
  const std::vector<double> probs{0.4};
  const auto serial = sweep_serial(15, probs, 12, 5);
  mp::run(3, [&](mp::Communicator& comm) {
    const auto mine = sweep_rank(comm, 15, probs, 12, 5);
    ASSERT_EQ(mine.size(), 1u);
    EXPECT_DOUBLE_EQ(mine[0].mean_burned_fraction,
                     serial[0].mean_burned_fraction);
  });
}

TEST(Sweep, MeanStepsGrowThenShrinkAcrossTheTransition) {
  // Burn duration peaks near the critical probability: fires at low p die
  // instantly, fires at p=1 sweep the grid in ~grid_size steps, and fires
  // near the transition meander. We only assert the weak property that the
  // maximum mean duration is not at p=0.1.
  const auto sweep = sweep_serial(21, default_probabilities(), 30, 17);
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    if (sweep[k].mean_steps > sweep[argmax].mean_steps) argmax = k;
  }
  EXPECT_GT(argmax, 0u);
}

}  // namespace
}  // namespace pdc::exemplars
