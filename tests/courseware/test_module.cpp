#include "courseware/module.hpp"

#include <gtest/gtest.h>

#include "courseware/questions.hpp"
#include "support/error.hpp"

namespace pdc::courseware {
namespace {

std::unique_ptr<Module> tiny_module() {
  auto module = std::make_unique<Module>("Tiny", "A test module.");
  auto& chapter = module->add_chapter("1. Basics");
  auto& s1 = chapter.add_section("1.1", "Intro", 10);
  s1.add(std::make_unique<TextBlock>("words"));
  s1.add(std::make_unique<MultipleChoice>(
      "q1", "Pick A", std::vector<Choice>{{"A", ""}, {"B", ""}},
      std::set<std::size_t>{0}));
  auto& s2 = chapter.add_section("1.2", "More", 20);
  s2.add(std::make_unique<FillInBlank>("q2", "2+2 = ____", 4.0, 0.0));
  return module;
}

TEST(Section, TracksItemsAndPacing) {
  Section section("9.9", "Demo", 15);
  EXPECT_EQ(section.expected_minutes(), 15);
  section.add(std::make_unique<TextBlock>("x"));
  EXPECT_EQ(section.items().size(), 1u);
  EXPECT_TRUE(section.gradable_items().empty());
}

TEST(Section, RejectsNonPositivePacingAndNullItems) {
  EXPECT_THROW(Section("1", "t", 0), InvalidArgument);
  Section ok("1", "t", 5);
  EXPECT_THROW(ok.add(nullptr), InvalidArgument);
}

TEST(Module, ExpectedMinutesSumOverSections) {
  const auto module = tiny_module();
  EXPECT_EQ(module->expected_minutes(), 30);
}

TEST(Module, QuestionCountFindsAllGradables) {
  EXPECT_EQ(tiny_module()->question_count(), 2u);
}

TEST(Module, SectionLookupByNumber) {
  const auto module = tiny_module();
  EXPECT_EQ(module->section("1.2").title(), "More");
  EXPECT_THROW((void)module->section("7.7"), NotFound);
}

TEST(Module, QuestionLookupByActivityId) {
  const auto module = tiny_module();
  EXPECT_EQ(module->question("q2").kind(), "fill-in-blank");
  EXPECT_THROW((void)module->question("nope"), NotFound);
}

TEST(Module, TableOfContentsListsSectionsWithPacing) {
  const std::string toc = tiny_module()->table_of_contents();
  EXPECT_NE(toc.find("1.1 Intro (10 min)"), std::string::npos);
  EXPECT_NE(toc.find("1.2 More (20 min)"), std::string::npos);
  EXPECT_NE(toc.find("Total: 30 minutes"), std::string::npos);
}

TEST(Module, RenderIncludesAllContent) {
  const std::string out = tiny_module()->render();
  EXPECT_NE(out.find("Tiny"), std::string::npos);
  EXPECT_NE(out.find("words"), std::string::npos);
  EXPECT_NE(out.find("Pick A"), std::string::npos);
  EXPECT_NE(out.find("2+2"), std::string::npos);
}

TEST(Module, RequiresTitle) {
  EXPECT_THROW(Module("", "desc"), InvalidArgument);
}

TEST(Chapter, MinutesAggregateAcrossSections) {
  Module module("M", "d");
  auto& chapter = module.add_chapter("C");
  chapter.add_section("1", "a", 5);
  chapter.add_section("2", "b", 7);
  EXPECT_EQ(chapter.expected_minutes(), 12);
}

TEST(Section, GradableItemsPreservesOrder) {
  Section section("1", "t", 5);
  section.add(std::make_unique<MultipleChoice>(
      "first", "p", std::vector<Choice>{{"a", ""}, {"b", ""}},
      std::set<std::size_t>{0}));
  section.add(std::make_unique<TextBlock>("not gradable"));
  section.add(std::make_unique<FillInBlank>("second", "p", 1.0, 0.0));
  const auto gradables = section.gradable_items();
  ASSERT_EQ(gradables.size(), 2u);
  EXPECT_EQ(gradables[0]->activity_id(), "first");
  EXPECT_EQ(gradables[1]->activity_id(), "second");
}

}  // namespace
}  // namespace pdc::courseware
