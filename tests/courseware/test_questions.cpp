#include "courseware/questions.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace pdc::courseware {
namespace {

MultipleChoice race_question() {
  // The paper's Fig. 1 question, verbatim.
  return MultipleChoice(
      "sp_mc_2", "Q-2: What is a race condition?",
      {{"It is the smallest set of instructions that must execute "
        "sequentailly to ensure correctness.",
        "no"},
       {"It is a mechanism that helps protect a resource.", "no"},
       {"It is something that arises when two or more threads attempt to "
        "modify a shared variable",
        "yes"}},
      {2});
}

TEST(MultipleChoice, GradesCorrectSingleSelection) {
  const auto q = race_question();
  EXPECT_TRUE(q.grade(std::size_t{2}));
  EXPECT_FALSE(q.grade(std::size_t{0}));
  EXPECT_FALSE(q.grade(std::size_t{1}));
}

TEST(MultipleChoice, MultiSelectRequiresExactSet) {
  const MultipleChoice q("m1", "Pick the shared-memory constructs:",
                         {{"critical", ""}, {"send/recv", ""}, {"atomic", ""}},
                         {0, 2});
  EXPECT_TRUE(q.grade(std::set<std::size_t>{0, 2}));
  EXPECT_FALSE(q.grade(std::set<std::size_t>{0}));
  EXPECT_FALSE(q.grade(std::set<std::size_t>{0, 1, 2}));
}

TEST(MultipleChoice, RendersOptionsWithLetters) {
  const std::string out = race_question().render();
  EXPECT_NE(out.find("A. "), std::string::npos);
  EXPECT_NE(out.find("B. "), std::string::npos);
  EXPECT_NE(out.find("C. "), std::string::npos);
  EXPECT_NE(out.find("Activity: sp_mc_2"), std::string::npos);
}

TEST(MultipleChoice, ValidatesConstruction) {
  EXPECT_THROW(MultipleChoice("id", "p", {{"only one", ""}}, {0}),
               InvalidArgument);
  EXPECT_THROW(MultipleChoice("id", "p", {{"a", ""}, {"b", ""}}, {}),
               InvalidArgument);
  EXPECT_THROW(MultipleChoice("id", "p", {{"a", ""}, {"b", ""}}, {5}),
               InvalidArgument);
}

TEST(MultipleChoice, GradeRejectsOutOfRangeChoice) {
  EXPECT_THROW((void)race_question().grade(std::size_t{9}), InvalidArgument);
}

TEST(MultipleChoice, FeedbackPerChoice) {
  const auto q = race_question();
  EXPECT_EQ(q.feedback_for(2), "yes");
  EXPECT_THROW((void)q.feedback_for(7), InvalidArgument);
}

TEST(MultipleChoice, IsGradable) {
  EXPECT_TRUE(race_question().is_gradable());
  EXPECT_EQ(race_question().kind(), "multiple-choice");
}

TEST(FillInBlank, TextAnswersAreCaseAndSpaceInsensitive) {
  const FillInBlank q("f1", "OpenMP targets ____ memory.",
                      std::vector<std::string>{"shared"});
  EXPECT_TRUE(q.grade("shared"));
  EXPECT_TRUE(q.grade("  SHARED  "));
  EXPECT_FALSE(q.grade("distributed"));
}

TEST(FillInBlank, MultipleAcceptedAnswers) {
  const FillInBlank q("f2", "MPI stands for ____.",
                      std::vector<std::string>{"message passing interface",
                                               "the message passing interface"});
  EXPECT_TRUE(q.grade("Message Passing Interface"));
  EXPECT_TRUE(q.grade("the message passing interface"));
  EXPECT_FALSE(q.grade("message interface"));
}

TEST(FillInBlank, NumericAnswersUseTolerance) {
  const FillInBlank q("f3", "Speedup = ____", 4.0, 0.01);
  EXPECT_TRUE(q.grade("4"));
  EXPECT_TRUE(q.grade("4.0"));
  EXPECT_TRUE(q.grade("4.005"));
  EXPECT_FALSE(q.grade("4.5"));
  EXPECT_FALSE(q.grade("four"));  // non-numeric
}

TEST(FillInBlank, ValidatesConstruction) {
  EXPECT_THROW(FillInBlank("f", "p", std::vector<std::string>{}),
               InvalidArgument);
  EXPECT_THROW(FillInBlank("f", "p", 1.0, -0.5), InvalidArgument);
}

TEST(DragAndDrop, FullCorrectMatchingGradesTrue) {
  const DragAndDrop q("d1", "Match:",
                      {{"barrier", "all wait"}, {"reduction", "combine"}});
  EXPECT_TRUE(q.grade({{"barrier", "all wait"}, {"reduction", "combine"}}));
  EXPECT_TRUE(q.grade({{"reduction", "combine"}, {"barrier", "all wait"}}));
}

TEST(DragAndDrop, WrongOrMissingPlacementsGradeFalse) {
  const DragAndDrop q("d2", "Match:",
                      {{"barrier", "all wait"}, {"reduction", "combine"}});
  EXPECT_FALSE(q.grade({{"barrier", "combine"}, {"reduction", "all wait"}}));
  EXPECT_FALSE(q.grade({{"barrier", "all wait"}}));
}

TEST(DragAndDrop, PartialCredit) {
  const DragAndDrop q("d3", "Match:",
                      {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}});
  EXPECT_DOUBLE_EQ(q.partial_credit({{"a", "1"}, {"b", "2"}, {"c", "4"},
                                     {"d", "3"}}),
                   0.5);
  EXPECT_DOUBLE_EQ(q.partial_credit({}), 0.0);
}

TEST(DragAndDrop, ValidatesConstruction) {
  EXPECT_THROW(DragAndDrop("d", "p", {{"only", "one"}}), InvalidArgument);
}

TEST(Question, RequiresIdAndPrompt) {
  EXPECT_THROW(FillInBlank("", "p", 1.0, 0.1), InvalidArgument);
  EXPECT_THROW(FillInBlank("id", "", 1.0, 0.1), InvalidArgument);
}

}  // namespace
}  // namespace pdc::courseware
