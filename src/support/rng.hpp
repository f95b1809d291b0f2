#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pdc {

/// SplitMix64: a tiny, fast, high-quality 64-bit mixer.
///
/// Used directly for cheap streams and to seed Xoshiro256** state.
/// Deterministic across platforms; pdclab never uses std::random_device so
/// every simulation, workload and dataset in the repository is reproducible.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library-wide pseudo random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, but pdclab prefers the portable helper
/// methods below (standard distributions are not bit-reproducible across
/// standard-library implementations).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 256-bit state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 random bits. Defined here, with uniform(), so that dart and
  /// sampling loops in other translation units inline the generator.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of next(), times 2^-53.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in the inclusive range [lo, hi] via rejection-free
  /// Lemire reduction. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal deviate (Marsaglia polar method, deterministic).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Jump the generator to an independent substream. Equivalent to 2^128
  /// calls of next(); used to give each thread/rank its own stream.
  void jump() noexcept;

  /// Convenience: an independent stream for worker `rank` derived from
  /// `base_seed`. Streams for distinct ranks never overlap in practice.
  static Rng for_stream(std::uint64_t base_seed, std::uint64_t rank) noexcept;

  /// The four xoshiro256** state words, for kernels that step several
  /// generators side by side and must reproduce next() bit for bit.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace pdc
