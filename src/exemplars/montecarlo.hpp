#pragma once

#include <cstdint>

#include "mp/communicator.hpp"
#include "smp/schedule.hpp"

namespace pdc::exemplars {

/// The Monte Carlo pi exemplar: throw random darts at the unit square and
/// count how many land inside the quarter circle; pi ~= 4 * hits / darts.
/// A classic CSinParallel companion to the trapezoid exemplar because it
/// forces the RNG-per-worker discussion: a naively shared generator either
/// races or serializes, so each thread/rank gets its own deterministic
/// stream (Rng::for_stream), making every strategy agree exactly.

/// Result of a pi estimation.
struct PiEstimate {
  std::int64_t darts = 0;
  std::int64_t hits = 0;

  [[nodiscard]] double value() const {
    return darts == 0 ? 0.0 : 4.0 * static_cast<double>(hits) /
                                  static_cast<double>(darts);
  }
  bool operator==(const PiEstimate&) const = default;
};

/// Sequential estimate using `num_streams` substreams of `seed` (so the
/// parallel versions, which split by stream, reproduce it exactly).
/// Requires darts divisible by num_streams.
PiEstimate pi_serial(std::int64_t darts, std::uint64_t seed,
                     int num_streams = 4);

/// Shared-memory estimate: each of `num_streams` stream-chunks is thrown by
/// some thread of the team; hit counts are summed in stream order, so the
/// result is bit-identical to pi_serial for the same (seed, num_streams).
PiEstimate pi_smp(std::int64_t darts, std::uint64_t seed, int num_streams = 4,
                  std::size_t num_threads = 0);

/// Message-passing SPMD kernel: rank r throws streams r, r+p, ... and a
/// reduction combines the counts. Identical to pi_serial for the same
/// (seed, num_streams). Every rank returns the estimate.
PiEstimate pi_rank(mp::Communicator& comm, std::int64_t darts,
                   std::uint64_t seed, int num_streams = 4);

/// Convenience wrapper launching `num_procs` ranks of pi_rank.
PiEstimate pi_mp(std::int64_t darts, std::uint64_t seed, int num_streams,
                 int num_procs);

#if defined(__x86_64__)
/// The dart kernel behind pi_serial and pi_rank on a CPU with AVX2, which
/// then throw their streams four at a time: one xoshiro256** generator per
/// 64-bit lane of 256-bit vectors, bit-identical to throwing the four
/// streams one after another. Elsewhere, and for leftover streams (fewer
/// than four) and pi_smp's one-stream tasks, they take the scalar loop.
/// Exposed so tests can hold the kernel to the scalar result.
namespace detail {

/// Hits scored by streams first, first + stride, first + 2*stride and
/// first + 3*stride of `seed`, each throwing `darts_per_stream` darts.
/// Compiled for AVX2: call only on a CPU with AVX2 whose OS saves the
/// 256-bit register state (cpuid and xgetbv, as pi_serial checks).
std::int64_t throw_four_streams_avx2(std::uint64_t seed, int first,
                                     int stride,
                                     std::int64_t darts_per_stream);

}  // namespace detail
#endif

}  // namespace pdc::exemplars
