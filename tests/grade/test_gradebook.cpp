// The grade ↔ store bridge: Grade::parse_line as the exact inverse of
// to_line (the lab server recovers structured verdicts from a grade job's
// output line), GradeBook's record conversion both ways, and the journaling
// hook — every verdict a corpus grade produces is durable in the store,
// keyed (cohort, mutant id, submission), before grade_corpus returns.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "../store/store_test_util.hpp"
#include "grade/gradebook.hpp"
#include "grade/grader.hpp"
#include "lab/fields.hpp"
#include "store/store.hpp"
#include "support/error.hpp"

namespace pdc::grade {
namespace {

using store_test::ScratchDir;

Grade example_grade() {
  Grade grade;
  grade.id = "spmd~race#3@np4";
  grade.verdict = Verdict::Flaky;
  grade.matched = 5;
  grade.explored = 8;
  grade.divergence = 1;
  return grade;
}

TEST(GradeLine, RoundTripsEveryVerdict) {
  for (std::size_t v = 0; v < kVerdictCount; ++v) {
    Grade grade = example_grade();
    grade.verdict = static_cast<Verdict>(v);
    const Grade parsed = Grade::parse_line(grade.to_line());
    EXPECT_EQ(parsed.id, grade.id);
    EXPECT_EQ(parsed.verdict, grade.verdict);
    EXPECT_EQ(parsed.matched, grade.matched);
    EXPECT_EQ(parsed.explored, grade.explored);
    EXPECT_EQ(parsed.divergence, grade.divergence);
    EXPECT_TRUE(parsed.detail.empty());
  }
}

TEST(GradeLine, RoundTripsTheDetailSuffix) {
  Grade grade = example_grade();
  grade.verdict = Verdict::Skipped;
  grade.detail = "reference synthesis failed (seed 3)";
  const Grade parsed = Grade::parse_line(grade.to_line());
  EXPECT_EQ(parsed.detail, grade.detail);
  EXPECT_EQ(parsed.to_line(), grade.to_line());
}

TEST(GradeLine, RejectsEverythingToLineCouldNotHaveProduced) {
  const std::vector<std::string> hostile = {
      "",
      "no-colon-here",
      ": flaky matched=5/8 divergence=1",          // empty id
      "id: notaverdict matched=5/8 divergence=1",  // unknown verdict
      "id: flaky",                                 // missing matched=
      "id: flaky matched=5/8",                     // missing divergence=
      "id: flaky matched=x/8 divergence=1",        // non-digit
      "id: flaky matched=5/8 divergence=",         // empty number
      "id: flaky matched=99999999999/8 divergence=1",  // overflow
      "id: flaky matched=5/8 divergence=1 trailing junk",
      "id: flaky matched=5/8 divergence=1 (unclosed detail",
  };
  for (const std::string& line : hostile) {
    EXPECT_THROW((void)Grade::parse_line(line), InvalidArgument)
        << "accepted: '" << line << "'";
  }
}

TEST(GradeBookConversion, RoundTripsThroughAStoreRecord) {
  const Grade grade = example_grade();
  const store::GradeRecord record =
      GradeBook::to_record(grade, "2026s", "ada");
  EXPECT_EQ(record.cohort, "2026s");
  EXPECT_EQ(record.mutant, grade.id);
  EXPECT_EQ(record.submission, "ada");
  EXPECT_EQ(record.verdict, "flaky");
  EXPECT_EQ(record.matched, 5u);
  EXPECT_EQ(record.explored, 8u);
  EXPECT_DOUBLE_EQ(record.divergence, 1.0);

  const Grade back = GradeBook::from_record(record);
  EXPECT_EQ(back.id, grade.id);
  EXPECT_EQ(back.verdict, grade.verdict);
  EXPECT_EQ(back.matched, grade.matched);
  EXPECT_EQ(back.explored, grade.explored);
  EXPECT_EQ(back.divergence, grade.divergence);
}

TEST(GradeBookConversion, RejectsAVerdictNameFromADisagreeingVersion) {
  store::GradeRecord record =
      GradeBook::to_record(example_grade(), "2026s", "ada");
  record.verdict = "excellent";
  EXPECT_THROW((void)GradeBook::from_record(record), InvalidArgument);
}

TEST(GradeBook, RecordedVerdictsSurviveAReopen) {
  const ScratchDir scratch("gradebook");
  const std::string& dir = scratch.path();
  store::StoreConfig config;
  config.dir = dir;
  {
    store::Store store(config);
    GradeBook book(store, "2026s", "ada");
    book.record(example_grade());
    Grade second = example_grade();
    second.id = "barrier~deadlock#0@np2";
    second.verdict = Verdict::Hang;
    book.record(second);
    EXPECT_EQ(store.grade_count(), 2u);
  }
  store::Store reopened(config);
  ASSERT_EQ(reopened.grade_count(), 2u);
  const auto grades = reopened.grades();
  const store::GradeRecord& record =
      grades.at({"2026s", "spmd~race#3@np4", "ada"});
  EXPECT_EQ(GradeBook::from_record(record).verdict, Verdict::Flaky);
  EXPECT_EQ(grades.at({"2026s", "barrier~deadlock#0@np2", "ada"}).verdict,
            "hang");
}

TEST(GradeBook, RejectsACohortLongerThanAReportCarries) {
  const ScratchDir scratch("gradebook-cohort");
  store::StoreConfig config;
  config.dir = scratch.path();
  store::Store store(config);
  const std::string longest(lab::protocol::kMaxIdentityBytes, 'c');
  EXPECT_NO_THROW(GradeBook(store, longest, "ada"));
  EXPECT_THROW(GradeBook(store, longest + "c", "ada"), InvalidArgument);
  EXPECT_EQ(store.grade_count(), 0u);
}

TEST(GradeBook, HookJournalsEveryCorpusVerdictBeforeTheGraderReturns) {
  const ScratchDir scratch("gradebook-hook");
  const std::string& dir = scratch.path();
  store::StoreConfig config;
  config.dir = dir;
  store::Store store(config);
  GradeBook book(store, "lab3", "run-1");

  const std::vector<MutantSpec> corpus = {
      {"spmd", MutationKind::Clean, 0, 4},
      {"spmd", MutationKind::Race, 0, 4},
      {"spmd", MutationKind::Wrong, 1, 4},
  };
  GraderConfig cfg;
  cfg.seeds = 4;
  cfg.workers = 2;
  cfg.watchdog_ms = 250;
  cfg.on_grade = book.hook();
  const Report report = grade_corpus(corpus, cfg);

  // One journaled record per graded mutant, durable already, and each one
  // converts back to the exact verdict the report holds.
  ASSERT_EQ(store.grade_count(), corpus.size());
  const auto grades = store.grades();
  for (const Grade& graded : report.grades) {
    const auto it = grades.find({"lab3", graded.id, "run-1"});
    ASSERT_NE(it, grades.end()) << graded.id << " was not journaled";
    const Grade back = GradeBook::from_record(it->second);
    EXPECT_EQ(back.verdict, graded.verdict) << graded.id;
    EXPECT_EQ(back.matched, graded.matched) << graded.id;
  }
}

}  // namespace
}  // namespace pdc::grade
