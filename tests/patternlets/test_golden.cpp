// Golden-output tests: every registered patternlet, at 1/2/4/8
// threads-or-ranks, must reproduce the checked-in transcript in
// tests/patternlets/golden/. Lines are normalized per patternlet before
// comparing — sorted where interleaving is legitimately nondeterministic,
// scrubbed where the *content* is the nondeterminism being taught (the race
// condition's lost-update count, the dynamic schedule's thread assignment).
//
// Regenerate after an intentional output change with:
//   PDCLAB_GOLDEN_REGEN=1 ./build/tests/test_patternlets --gtest_filter='*Golden*'

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "patterns/patternlet.hpp"
#include "patterns/registry.hpp"
#include "patternlets/patternlets.hpp"

namespace pdc::patternlets {
namespace {

constexpr int kSizes[] = {1, 2, 4, 8};

bool starts_with(const std::string& line, const std::string& prefix) {
  return line.compare(0, prefix.size(), prefix) == 0;
}

/// Per-patternlet normalization. The default is a sort: content is
/// deterministic, interleaving is not. Two patternlets teach content
/// nondeterminism and need scrubbing instead.
std::vector<std::string> normalize(const std::string& id,
                                   std::vector<std::string> lines) {
  if (id == "omp/07-race-condition") {
    // The actual balance (and whether updates were lost) is the lesson;
    // only the shape of the transcript is golden.
    for (std::string& line : lines) {
      if (starts_with(line, "Actual balance:")) {
        line = "Actual balance: <nondeterministic>";
      } else if (line.find("updates") != std::string::npos) {
        line = "<race outcome>";
      }
    }
    return lines;  // printed sequentially after the join: order is stable
  }
  if (id == "omp/13-dynamic-schedule") {
    // Which thread claims which weighted iteration is scheduler-dependent;
    // that every iteration completes exactly once is the invariant.
    for (std::string& line : lines) {
      if (starts_with(line, "Thread ")) {
        const std::size_t cut = line.find(" finished");
        if (cut != std::string::npos) line = line.substr(cut + 1);
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string golden_path(const std::string& id) {
  std::string file = id;
  std::replace(file.begin(), file.end(), '/', '_');
  return std::string(PDCLAB_GOLDEN_DIR) + "/" + file + ".txt";
}

std::string section_header(int n) {
  return "== n=" + std::to_string(n) + " ==";
}

/// Runs the patternlet at every size and returns the normalized transcripts.
std::map<int, std::vector<std::string>> run_all_sizes(
    const patterns::Patternlet& patternlet) {
  std::map<int, std::vector<std::string>> result;
  for (int n : kSizes) {
    patterns::RunOptions options;
    options.num_threads = static_cast<std::size_t>(n);
    options.num_procs = n;
    result[n] = normalize(patternlet.info().id, patternlet.run(options));
  }
  return result;
}

std::map<int, std::vector<std::string>> parse_golden(std::istream& in) {
  std::map<int, std::vector<std::string>> result;
  std::vector<std::string>* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    bool is_header = false;
    for (int n : kSizes) {
      if (line == section_header(n)) {
        current = &result[n];
        is_header = true;
        break;
      }
    }
    if (!is_header && current != nullptr) current->push_back(line);
  }
  return result;
}

void write_golden(const std::string& path,
                  const std::map<int, std::vector<std::string>>& transcripts) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  for (const auto& [n, lines] : transcripts) {
    out << section_header(n) << "\n";
    for (const std::string& line : lines) out << line << "\n";
  }
}

/// One registered patternlet. Its printed name ("mpi_00_spmd": the id
/// with every non-alphanumeric character replaced by '_') is the ctest id.
struct GoldenCase {
  std::string id;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  for (const char ch : c.id) {
    *os << (std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_');
  }
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, MatchesCheckedInTranscript) {
  const std::string& id = GetParam().id;
  const patterns::Patternlet& patternlet = global_registry().at(id);
  const auto transcripts = run_all_sizes(patternlet);

  const std::string path = golden_path(id);
  if (std::getenv("PDCLAB_GOLDEN_REGEN") != nullptr) {
    write_golden(path, transcripts);
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " — regenerate with PDCLAB_GOLDEN_REGEN=1";
  const auto golden = parse_golden(in);

  for (int n : kSizes) {
    const auto expected = golden.find(n);
    ASSERT_NE(expected, golden.end())
        << id << ": golden file lacks the n=" << n << " section";
    EXPECT_EQ(transcripts.at(n), expected->second)
        << id << " diverged from its golden transcript at n=" << n;
  }
}

std::vector<GoldenCase> all_patternlets() {
  std::vector<GoldenCase> cases;
  for (const patterns::Patternlet* p : global_registry().all()) {
    cases.push_back({p->info().id});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPatternlets, GoldenTest,
                         ::testing::ValuesIn(all_patternlets()));

}  // namespace
}  // namespace pdc::patternlets
