#include "exemplars/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mp/runtime.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace pdc::exemplars {
namespace {

TEST(MonteCarloPi, ConvergesToPi) {
  const PiEstimate estimate = pi_serial(400000, 42, 4);
  EXPECT_EQ(estimate.darts, 400000);
  EXPECT_NEAR(estimate.value(), M_PI, 0.02);
}

TEST(MonteCarloPi, DeterministicForSeed) {
  EXPECT_EQ(pi_serial(40000, 7, 4), pi_serial(40000, 7, 4));
  EXPECT_NE(pi_serial(40000, 7, 4).hits, pi_serial(40000, 8, 4).hits);
}

TEST(MonteCarloPi, ValidatesArguments) {
  EXPECT_THROW(pi_serial(0, 1, 1), InvalidArgument);
  EXPECT_THROW(pi_serial(100, 1, 0), InvalidArgument);
  EXPECT_THROW(pi_serial(100, 1, 3), InvalidArgument);  // not divisible
}

TEST(MonteCarloPi, MoreStreamsSameExpectation) {
  const double a = pi_serial(240000, 5, 4).value();
  const double b = pi_serial(240000, 5, 12).value();
  EXPECT_NEAR(a, b, 0.05);
}

// Golden hit counts captured from the scalar one-stream-at-a-time loop.
// Every strategy and every code path (four-stream lane groups, leftover
// streams) must reproduce them exactly: a changed dart loop that moves a
// single boundary dart shows up here.
struct PiGolden {
  int streams;
  std::uint64_t seed;
  std::int64_t hits;
};

TEST(MonteCarloPi, SerialHitsMatchGoldenCounts) {
  constexpr PiGolden kGolden[] = {
      {1, 0, 18886},  {1, 7, 18812},  {1, 2021, 18802},
      {2, 0, 18803},  {2, 7, 18832},  {2, 2021, 18944},
      {4, 0, 18931},  {4, 7, 18863},  {4, 2021, 19038},
      {6, 0, 18983},  {6, 7, 18820},  {6, 2021, 19017},
      {8, 0, 18940},  {8, 7, 18811},  {8, 2021, 18890},
      {12, 0, 18928}, {12, 7, 18786}, {12, 2021, 18906},
  };
  for (const PiGolden& golden : kGolden) {
    EXPECT_EQ(pi_serial(24000, golden.seed, golden.streams),
              (PiEstimate{24000, golden.hits}))
        << "streams " << golden.streams << ", seed " << golden.seed;
  }
}

TEST(MonteCarloPi, MpHitsMatchGoldenCounts) {
  // np 3 with 12 streams: four per rank. np 3 with 10: ranks 1 and 2 hold
  // three. np 6 with 24: four per rank. np 6 with 36: six per rank.
  EXPECT_EQ(pi_mp(24000, 11, 12, 3).hits, 18798);
  EXPECT_EQ(pi_mp(20000, 3, 10, 3).hits, 15709);
  EXPECT_EQ(pi_mp(48000, 5, 24, 6).hits, 37668);
  EXPECT_EQ(pi_mp(36000, 9, 36, 6).hits, 28440);
}

#if defined(__x86_64__)
/// The scalar dart loop, written out independently of the library: the
/// reference the AVX2 lane kernel must reproduce. Without AVX2 the library
/// throws every stream through the scalar loop, which the golden counts
/// above pin.
std::int64_t scalar_hits(std::uint64_t seed, int stream, std::int64_t darts) {
  Rng rng = Rng::for_stream(seed, static_cast<std::uint64_t>(stream));
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < darts; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    hits += (x * x + y * y <= 1.0);
  }
  return hits;
}

TEST(MonteCarloPi, LaneKernelMatchesScalarStreamsPerSeed) {
  // 10 000 seeds of the lab's shape (four streams of 2048 darts), with the
  // stream stride of np 1..4 and a varying first stream.
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU without AVX2";
  for (std::uint64_t seed = 0; seed < 10000; ++seed) {
    const int stride = 1 + static_cast<int>(seed % 4);
    const int first = static_cast<int>(seed % 5);
    std::int64_t expected = 0;
    for (int lane = 0; lane < 4; ++lane) {
      expected += scalar_hits(seed, first + lane * stride, 2048);
    }
    ASSERT_EQ(detail::throw_four_streams_avx2(seed, first, stride, 2048),
              expected)
        << "seed " << seed;
  }
  // Streams shorter than the lab's, down to a single dart.
  for (std::int64_t darts = 0; darts <= 9; ++darts) {
    std::int64_t expected = 0;
    for (int stream = 0; stream < 4; ++stream) {
      expected += scalar_hits(3, stream, darts);
    }
    EXPECT_EQ(detail::throw_four_streams_avx2(3, 0, 1, darts), expected)
        << darts << " darts";
  }
}
#endif

class PiStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(PiStrategyTest, SmpIsBitIdenticalToSerial) {
  const PiEstimate serial = pi_serial(80000, 11, 8);
  const PiEstimate smp =
      pi_smp(80000, 11, 8, static_cast<std::size_t>(GetParam()));
  EXPECT_EQ(smp, serial);
}

TEST_P(PiStrategyTest, MpIsBitIdenticalToSerial) {
  const PiEstimate serial = pi_serial(80000, 11, 8);
  EXPECT_EQ(pi_mp(80000, 11, 8, GetParam()), serial);
}

INSTANTIATE_TEST_SUITE_P(Workers, PiStrategyTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MonteCarloPi, EveryRankGetsTheEstimate) {
  const PiEstimate serial = pi_serial(40000, 3, 4);
  mp::run(4, [&](mp::Communicator& comm) {
    EXPECT_EQ(pi_rank(comm, 40000, 3, 4), serial);
  });
}

TEST(MonteCarloPi, MoreRanksThanStreamsStillCorrect) {
  const PiEstimate serial = pi_serial(20000, 9, 2);
  EXPECT_EQ(pi_mp(20000, 9, 2, 6), serial);
}

TEST(MonteCarloPi, EmptyEstimateIsZero) {
  EXPECT_DOUBLE_EQ(PiEstimate{}.value(), 0.0);
}

TEST(MonteCarloPi, ErrorShrinksWithSampleSize) {
  // Monte Carlo error ~ 1/sqrt(n): with 100x the darts, the error over a
  // few seeds should shrink clearly.
  double small_err = 0.0, large_err = 0.0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    small_err += std::abs(pi_serial(4000, seed, 4).value() - M_PI);
    large_err += std::abs(pi_serial(400000, seed, 4).value() - M_PI);
  }
  EXPECT_LT(large_err, small_err);
}

}  // namespace
}  // namespace pdc::exemplars
