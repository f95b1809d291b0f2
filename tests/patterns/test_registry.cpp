#include "patterns/registry.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace pdc::patterns {
namespace {

PatternletInfo sample_info(const std::string& id, Paradigm paradigm,
                           std::vector<Pattern> patterns) {
  PatternletInfo info;
  info.id = id;
  info.title = "title of " + id;
  info.paradigm = paradigm;
  info.patterns = std::move(patterns);
  return info;
}

Patternlet sample(const std::string& id,
                  Paradigm paradigm = Paradigm::SharedMemory,
                  std::vector<Pattern> patterns = {Pattern::SPMD}) {
  return Patternlet(sample_info(id, paradigm, std::move(patterns)),
                    [](const RunOptions&, OutputLog& log) {
                      log.println("ran");
                    });
}

TEST(OutputLog, CollectsLinesInOrder) {
  OutputLog log;
  log.println("first");
  log.println("second");
  EXPECT_EQ(log.lines(), (std::vector<std::string>{"first", "second"}));
}

TEST(Patternlet, RunCapturesOutput) {
  const Patternlet p = sample("x/1");
  EXPECT_EQ(p.run(RunOptions{}), std::vector<std::string>{"ran"});
}

TEST(Patternlet, RequiresIdAndBody) {
  EXPECT_THROW(
      Patternlet(sample_info("", Paradigm::SharedMemory, {}),
                 [](const RunOptions&, OutputLog&) {}),
      InvalidArgument);
  EXPECT_THROW(
      Patternlet(sample_info("ok", Paradigm::SharedMemory, {}), nullptr),
      InvalidArgument);
}

TEST(Registry, AddAndLookup) {
  Registry registry;
  registry.add(sample("a/1"));
  EXPECT_TRUE(registry.contains("a/1"));
  EXPECT_FALSE(registry.contains("a/2"));
  EXPECT_EQ(registry.at("a/1").info().title, "title of a/1");
}

TEST(Registry, DuplicateIdThrows) {
  Registry registry;
  registry.add(sample("dup"));
  EXPECT_THROW(registry.add(sample("dup")), InvalidArgument);
}

TEST(Registry, AtThrowsForMissing) {
  Registry registry;
  EXPECT_THROW((void)registry.at("missing"), NotFound);
}

TEST(Registry, AllIsSortedById) {
  Registry registry;
  registry.add(sample("z/9"));
  registry.add(sample("a/0"));
  registry.add(sample("m/5"));
  const auto all = registry.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->info().id, "a/0");
  EXPECT_EQ(all[1]->info().id, "m/5");
  EXPECT_EQ(all[2]->info().id, "z/9");
}

TEST(Registry, FiltersByParadigm) {
  Registry registry;
  registry.add(sample("s/1", Paradigm::SharedMemory));
  registry.add(sample("m/1", Paradigm::MessagePassing));
  registry.add(sample("s/2", Paradigm::SharedMemory));
  EXPECT_EQ(registry.by_paradigm(Paradigm::SharedMemory).size(), 2u);
  EXPECT_EQ(registry.by_paradigm(Paradigm::MessagePassing).size(), 1u);
}

TEST(Registry, FiltersByPattern) {
  Registry registry;
  registry.add(sample("a", Paradigm::SharedMemory, {Pattern::Reduction}));
  registry.add(sample("b", Paradigm::SharedMemory,
                      {Pattern::Reduction, Pattern::Barrier}));
  registry.add(sample("c", Paradigm::SharedMemory, {Pattern::SPMD}));
  EXPECT_EQ(registry.by_pattern(Pattern::Reduction).size(), 2u);
  EXPECT_EQ(registry.by_pattern(Pattern::Barrier).size(), 1u);
  EXPECT_TRUE(registry.by_pattern(Pattern::RingPass).empty());
}

TEST(Registry, SizeTracksAdditions) {
  Registry registry;
  EXPECT_EQ(registry.size(), 0u);
  registry.add(sample("one"));
  registry.add(sample("two"));
  EXPECT_EQ(registry.size(), 2u);
}

}  // namespace
}  // namespace pdc::patterns
