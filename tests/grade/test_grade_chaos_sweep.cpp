// Chaos sweep over the grader's dispatch path (ctest label: stress).
// A globally active hostile plan may abort workers at the
// "grade.dispatch" checkpoint as often as it likes; the grader must
// (1) never hang, (2) never lose a verdict, and (3) produce the same
// canonical report it produces with chaos off — graded runs bind their own
// plans, so global chaos can delay grading but never change a grade.
// PDCLAB_CHAOS_SEEDS scales the sweep (scripts/verify.sh exports 80).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "chaos/chaos.hpp"
#include "grade/grader.hpp"

namespace pdc::grade {
namespace {

using chaos_test::run_with_watchdog;
using chaos_test::sweep_seeds;

std::vector<MutantSpec> sweep_corpus() {
  // Deadlock mutants excluded: each costs a full watchdog per plan seed,
  // which would turn an 80-seed sweep into minutes of intentional waiting.
  // test_grader and the golden suite cover the Hang path.
  std::vector<MutantSpec> corpus;
  for (const char* base : {"spmd", "ring"}) {
    for (MutationKind kind : {MutationKind::Clean, MutationKind::Wrong,
                              MutationKind::Race, MutationKind::Order,
                              MutationKind::Crash}) {
      corpus.push_back(MutantSpec{base, kind, 0, 4});
    }
  }
  return corpus;
}

GraderConfig sweep_config() {
  GraderConfig cfg;
  cfg.seeds = 4;
  cfg.workers = 4;
  cfg.watchdog_ms = 2000;
  return cfg;
}

TEST(GradeChaosSweep, HostilePlansCannotLoseOrChangeVerdicts) {
  const auto corpus = sweep_corpus();
  const GraderConfig cfg = sweep_config();
  const std::string expected = grade_corpus(corpus, cfg).to_text();

  const int seeds = sweep_seeds(6);
  std::size_t injected = 0;
  for (int s = 0; s < seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(3000 + s);
    chaos::Config config = chaos::Config::hostile(seed);
    config.abort_probability = 0.3;  // hammer the dispatch retry loop
    config.max_delay_us = 25;

    std::string report_text;
    std::size_t lost = 1;
    chaos::Scope scope(config);
    const bool finished =
        run_with_watchdog(chaos_test::kWatchdogBudget, [&] {
          const Report report = grade_corpus(corpus, cfg);
          report_text = report.to_text();
          lost = report.lost();
        });
    ASSERT_TRUE(finished) << "grader wedged under hostile seed " << seed;
    EXPECT_EQ(lost, 0u) << "verdicts lost under hostile seed " << seed;
    EXPECT_EQ(report_text, expected)
        << "global chaos changed a grade under seed " << seed;
    injected += scope.plan().fault_count();
  }
  // A single seed can legitimately draw zero aborts from ~10 dispatch
  // checkpoints; a whole sweep that injects nothing tested nothing.
  EXPECT_GT(injected, 0u);
}

TEST(GradeChaosSweep, TargetedDispatchAbortRedispatches) {
  const auto corpus = sweep_corpus();
  const GraderConfig cfg = sweep_config();
  const std::string expected = grade_corpus(corpus, cfg).to_text();

  for (int w = 0; w < 2; ++w) {
    // Kill worker w's very first claim (every worker makes at least one
    // dispatch attempt against this corpus, so the abort always lands).
    chaos::Config config;  // no probabilistic faults at all
    config.seed = static_cast<std::uint64_t>(7000 + w);
    config.abort_actor = chaos::kGradeActorBase + w;
    config.abort_at_op = 0;

    chaos::Scope scope(config);
    const Report report = grade_corpus(corpus, cfg);
    EXPECT_EQ(report.lost(), 0u);
    EXPECT_EQ(report.to_text(), expected);
    EXPECT_EQ(scope.plan().fault_count(chaos::FaultKind::Abort), 1u)
        << "targeted abort did not fire for actor " << config.abort_actor;
  }
}

}  // namespace
}  // namespace pdc::grade
