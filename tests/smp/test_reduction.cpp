#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "smp/parallel.hpp"

namespace pdc::smp {
namespace {

TEST(ParallelSum, MatchesClosedForm) {
  const auto total = parallel_sum<std::int64_t>(
      1, 1001, [](std::int64_t i) { return i; }, Schedule::static_blocks(), 4);
  EXPECT_EQ(total, 500500);
}

TEST(ParallelSum, EmptyRangeIsIdentity) {
  const auto total = parallel_sum<std::int64_t>(
      10, 10, [](std::int64_t i) { return i; }, Schedule::static_blocks(), 3);
  EXPECT_EQ(total, 0);
}

TEST(ParallelReduce, MaxReduction) {
  const int maximum = parallel_reduce<int>(
      0, 1000, 0,
      [](int acc, std::int64_t i) {
        const int value = static_cast<int>((i * 37) % 997);
        return std::max(acc, value);
      },
      [](int a, int b) { return std::max(a, b); }, Schedule::dynamic(8), 4);
  // max of (i*37) mod 997 over 0..999: 37 and 997 are coprime and the range
  // covers >= one full period, so the max residue 996 is attained.
  EXPECT_EQ(maximum, 996);
}

TEST(ParallelReduce, ProductReduction) {
  const std::int64_t product = parallel_reduce<std::int64_t>(
      1, 11, 1, [](std::int64_t acc, std::int64_t i) { return acc * i; },
      [](std::int64_t a, std::int64_t b) { return a * b; },
      Schedule::static_chunks(2), 3);
  EXPECT_EQ(product, 3628800);  // 10!
}

struct Combo {
  Schedule schedule;
  std::size_t threads;
};

/// Names each combination from its values ("dynamic16_np4"); ctest takes
/// the test id from this. Without it gtest prints the Schedule as raw
/// bytes, padding included, and the ids change from one run to the next.
void PrintTo(const Combo& c, std::ostream* os) {
  switch (c.schedule.kind) {
    case Schedule::Kind::Static: *os << "static_blocks"; break;
    case Schedule::Kind::StaticChunk:
      *os << "static_chunks" << c.schedule.chunk;
      break;
    case Schedule::Kind::Dynamic: *os << "dynamic" << c.schedule.chunk; break;
    case Schedule::Kind::Guided: *os << "guided" << c.schedule.chunk; break;
  }
  *os << "_np" << c.threads;
}

class ReductionConsistencyTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ReductionConsistencyTest, AllSchedulesAgreeWithSerial) {
  const auto [sched, threads] = GetParam();
  std::int64_t serial = 0;
  for (std::int64_t i = 0; i < 5000; ++i) serial += i * i;
  const auto parallel_result = parallel_sum<std::int64_t>(
      0, 5000, [](std::int64_t i) { return i * i; }, sched, threads);
  EXPECT_EQ(parallel_result, serial);
}

INSTANTIATE_TEST_SUITE_P(Combos, ReductionConsistencyTest,
                         ::testing::Values(
                             Combo{Schedule::static_blocks(), 1},
                             Combo{Schedule::static_blocks(), 4},
                             Combo{Schedule::static_chunks(1), 4},
                             Combo{Schedule::dynamic(16), 4},
                             Combo{Schedule::guided(4), 4},
                             Combo{Schedule::dynamic(1), 8}));

TEST(ParallelReduce, DoubleSumIsAccurate) {
  // pi^2/6 via Basel series, enough terms for 1e-4 accuracy.
  const double basel = parallel_sum<double>(
      1, 100000, [](std::int64_t i) {
        const double x = static_cast<double>(i);
        return 1.0 / (x * x);
      },
      Schedule::static_blocks(), 4);
  EXPECT_NEAR(basel, M_PI * M_PI / 6.0, 1e-4);
}

}  // namespace
}  // namespace pdc::smp
