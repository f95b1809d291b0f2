#include "notebook/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

namespace pdc::notebook {
namespace {

ExecutionEngine standard_engine() {
  return ExecutionEngine(ProgramRegistry::mpi4py_standard());
}

int count_matching(const std::vector<std::string>& lines,
                   const std::string& needle) {
  return static_cast<int>(
      std::count_if(lines.begin(), lines.end(), [&](const std::string& line) {
        return line.find(needle) != std::string::npos;
      }));
}

TEST(ProgramRegistry, StandardBindsAllFifteenFiles) {
  const auto registry = ProgramRegistry::mpi4py_standard();
  EXPECT_EQ(registry.filenames().size(), 15u);
  EXPECT_TRUE(registry.find("00spmd.py").has_value());
  EXPECT_TRUE(registry.find("14ring.py").has_value());
  EXPECT_FALSE(registry.find("99unknown.py").has_value());
}

TEST(ProgramRegistry, ValidatesBindArguments) {
  ProgramRegistry registry;
  EXPECT_THROW(registry.bind("", [](mp::Communicator&) {}), InvalidArgument);
  EXPECT_THROW(registry.bind("x.py", nullptr), InvalidArgument);
}

TEST(Engine, WritefileCreatesFileAndReportsWriting) {
  auto engine = standard_engine();
  const auto out = engine.execute_source("%%writefile 00spmd.py\ncode body\n");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "Writing 00spmd.py");
  EXPECT_EQ(*engine.files().read("00spmd.py"), "code body\n\n");
}

TEST(Engine, WritefileSecondTimeReportsOverwriting) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile a.py\nv1");
  const auto out = engine.execute_source("%%writefile a.py\nv2");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "Overwriting a.py");
}

TEST(Engine, WritefileRequiresExactlyOneFilename) {
  auto engine = standard_engine();
  const auto out = engine.execute_source("%%writefile\nbody");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("UsageError"), std::string::npos);
}

TEST(Engine, MpirunReproducesFig2) {
  // The full Fig. 2 interaction: write the SPMD file, then run it with
  // `mpirun --allow-run-as-root -np 4 python 00spmd.py` on the Colab VM.
  auto engine = standard_engine();
  engine.execute_source("%%writefile 00spmd.py\nfrom mpi4py import MPI\n...");
  const auto out = engine.execute_source(
      "! mpirun --allow-run-as-root -np 4 python 00spmd.py");
  ASSERT_EQ(out.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(count_matching(out, "Greetings from process " +
                                      std::to_string(r) +
                                      " of 4 on d6ff4f902ed6"),
              1);
  }
}

TEST(Engine, MpirunWithoutFileWrittenFailsLikePython) {
  auto engine = standard_engine();
  const auto out =
      engine.execute_source("!mpirun -np 4 python 00spmd.py");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("No such file or directory"), std::string::npos);
}

TEST(Engine, MpirunValidatesProcessCount) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile 00spmd.py\nx");
  EXPECT_NE(engine.execute_source("!mpirun -np 0 python 00spmd.py")[0].find(
                "positive"),
            std::string::npos);
  EXPECT_NE(engine.execute_source("!mpirun -np banana python 00spmd.py")[0]
                .find("invalid process count"),
            std::string::npos);
  EXPECT_NE(
      engine.execute_source("!mpirun -np 9999 python 00spmd.py")[0].find(
          "at most"),
      std::string::npos);
}

TEST(Engine, MpirunAcceptsDashNAlias) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile 00spmd.py\nx");
  const auto out = engine.execute_source("!mpirun -n 2 python 00spmd.py");
  EXPECT_EQ(out.size(), 2u);
}

TEST(Engine, UnboundFileGetsHonestKernelMessage) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile custom.py\nprint('hi')");
  const auto out = engine.execute_source("!mpirun -np 2 python custom.py");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("no native program is bound"), std::string::npos);
}

TEST(Engine, PlainPythonRunsOneProcess) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile 00spmd.py\nx");
  const auto out = engine.execute_source("!python 00spmd.py");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("of 1 on"), std::string::npos);
}

TEST(Engine, LsListsFiles) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile b.py\nx");
  engine.execute_source("%%writefile a.py\nx");
  const auto out = engine.execute_source("!ls");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "a.py  b.py");
}

TEST(Engine, CatPrintsFileContents) {
  auto engine = standard_engine();
  engine.execute_source("%%writefile hello.py\nline one\nline two");
  const auto out = engine.execute_source("!cat hello.py");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "line one");
  EXPECT_EQ(out[1], "line two");
  EXPECT_NE(engine.execute_source("!cat nope")[0].find("No such file"),
            std::string::npos);
}

TEST(Engine, UnknownShellCommandReportsNotFound) {
  auto engine = standard_engine();
  const auto out = engine.execute_source("!frobnicate --now");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("command not found"), std::string::npos);
}

TEST(Engine, ArbitraryPythonIsSkippedHonestly) {
  auto engine = standard_engine();
  const auto out = engine.execute_source("x = 1\nprint(x)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].find("skipped Python statement"), std::string::npos);
}

TEST(Engine, ExecuteUpdatesCellOutputsAndCount) {
  auto engine = standard_engine();
  Notebook nb("t");
  const std::size_t markdown = nb.add_markdown("# heading");
  const std::size_t code = nb.add_code("%%writefile f.py\nx");
  engine.execute(nb.cells()[markdown]);
  engine.execute(nb.cells()[code]);
  EXPECT_EQ(nb.cells()[markdown].execution_count, 0);
  EXPECT_EQ(nb.cells()[code].execution_count, 1);
  ASSERT_EQ(nb.cells()[code].outputs.size(), 1u);
  EXPECT_EQ(nb.cells()[code].outputs[0], "Writing f.py");
}

TEST(Engine, AddedCellIndexesSurviveLaterAdds) {
  // add_* hands back an index, not a reference into the cell vector: the
  // adds after it reallocate that vector, and the index must still name
  // the cell it was returned for.
  Notebook nb("t");
  const std::size_t first = nb.add_markdown("# first");
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(nb.add_code("!ls"), static_cast<std::size_t>(i) + 1);
  }
  EXPECT_EQ(nb.cells()[first].kind, CellKind::Markdown);
  EXPECT_EQ(nb.cells()[first].source, "# first");
}

TEST(Engine, ExecutionCountsIncrease) {
  auto engine = standard_engine();
  Notebook nb("t");
  nb.add_code("!ls");
  nb.add_code("!ls");
  engine.run_all(nb);
  EXPECT_EQ(nb.cells()[0].execution_count, 1);
  EXPECT_EQ(nb.cells()[1].execution_count, 2);
}

TEST(Engine, ClusterHostsPlaceRanksRoundRobin) {
  EngineConfig config;
  config.cluster_hosts = {"chameleon0", "chameleon1"};
  ExecutionEngine engine(ProgramRegistry::mpi4py_standard(), config);
  engine.execute_source("%%writefile 00spmd.py\nx");
  const auto out = engine.execute_source("!mpirun -np 4 python 00spmd.py");
  EXPECT_EQ(count_matching(out, "on chameleon0"), 2);
  EXPECT_EQ(count_matching(out, "on chameleon1"), 2);
}

TEST(Engine, CommentsAndBlankLinesAreIgnored) {
  auto engine = standard_engine();
  const auto out = engine.execute_source("\n# just a comment\n\n");
  EXPECT_TRUE(out.empty());
}

TEST(Engine, ConfigValidation) {
  EngineConfig config;
  config.max_procs = 0;
  EXPECT_THROW(
      ExecutionEngine(ProgramRegistry::mpi4py_standard(), config),
      InvalidArgument);
}

}  // namespace
}  // namespace pdc::notebook
