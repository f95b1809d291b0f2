#include "exemplars/montecarlo.hpp"

#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "mp/ops.hpp"
#include "mp/runtime.hpp"
#include "smp/parallel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace pdc::exemplars {

namespace {

void check_args(std::int64_t darts, int num_streams) {
  if (darts < 1) throw InvalidArgument("pi: need at least one dart");
  if (num_streams < 1) throw InvalidArgument("pi: need at least one stream");
  if (darts % num_streams != 0) {
    throw InvalidArgument("pi: darts must be divisible by num_streams so "
                          "every strategy throws identical streams");
  }
}

/// Hits scored by stream `stream` throwing `darts_per_stream` darts.
std::int64_t throw_stream(std::uint64_t seed, int stream,
                          std::int64_t darts_per_stream) {
  Rng rng = Rng::for_stream(seed, static_cast<std::uint64_t>(stream));
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < darts_per_stream; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    hits += (x * x + y * y <= 1.0);
  }
  return hits;
}

#if defined(__x86_64__)
/// AVX2 in the CPU and its 256-bit register state enabled by the OS. Read
/// with cpuid/xgetbv rather than __builtin_cpu_supports, which links
/// libgcc's CPU-model constructor into every program: its cpuid series
/// added 27 us to each process start on a virtual machine where every
/// cpuid traps (1.5 us each on a 4-vCPU Xeon guest).
bool cpu_has_avx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0 || (ecx & bit_AVX) == 0) return false;
  unsigned xcr0 = 0, xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  if ((xcr0 & 0x6) != 0x6) return false;  // XMM and YMM state saved
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_AVX2) != 0;
}

/// Whether groups of four streams go through the AVX2 kernel; read once,
/// on the first call, so one binary still runs on a CPU without AVX2.
bool use_lanes() {
  static const bool has_avx2 = cpu_has_avx2();
  return has_avx2;
}
#endif

/// Hits scored by streams first, first + stride, ... below num_streams:
/// whole groups of four through the AVX2 kernel when the CPU has it, the
/// rest (and every stream without it) one at a time.
std::int64_t throw_strided(std::uint64_t seed, int first, int stride,
                           int num_streams, std::int64_t darts_per_stream) {
  std::int64_t hits = 0;
  int s = first;
#if defined(__x86_64__)
  if (use_lanes()) {
    for (; s + 3 * stride < num_streams; s += 4 * stride) {
      hits += detail::throw_four_streams_avx2(seed, s, stride,
                                              darts_per_stream);
    }
  }
#endif
  for (; s < num_streams; s += stride) {
    hits += throw_stream(seed, s, darts_per_stream);
  }
  return hits;
}

}  // namespace

#if defined(__x86_64__)
namespace detail {

// ---- four streams per call ----------------------------------------------
// Lane layout: lane k of the kernel is stream first + k*stride, and word w
// of its xoshiro256** state is element k of vector `s[w]`, so one vector
// operation steps all four generators and throws four darts. The state
// update is the scalar next() with the multiplications written as shifts
// and adds (AVX2 has no 64-bit multiply), which is the same arithmetic mod
// 2^64. Each lane's hit count is therefore the scalar throw_stream's.
//
// The kernel is compiled with target "avx2" and picked at run time, once,
// rather than by compiling the library with -mavx2, so the same binary
// still runs on a CPU without AVX2 (which throws every stream through the
// scalar loop). x*x + y*y must stay two roundings like the scalar loop's:
// a fused multiply-add moves the darts that land on the circle's edge.
// This file is compiled with -ffp-contract=off (src/exemplars/
// CMakeLists.txt), so neither loop is fused whatever ISA the build
// targets. Every vector value lives inside this one function; a helper
// returning a 32-byte vector compiled outside the AVX2 function would
// change its ABI (GCC's -Wpsabi warning).

using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using I64x4 = std::int64_t __attribute__((vector_size(32)));
using F64x4 = double __attribute__((vector_size(32)));

[[gnu::target("avx2")]] std::int64_t throw_four_streams_avx2(
    std::uint64_t seed, int first, int stride,
    std::int64_t darts_per_stream) {
  U64x4 s[4];
  for (int lane = 0; lane < 4; ++lane) {
    const auto words =
        Rng::for_stream(seed, static_cast<std::uint64_t>(first + lane * stride))
            .state();
    for (int w = 0; w < 4; ++w) s[w][lane] = words[w];
  }
  // uniform() returns static_cast<double>(bits) * 2^-53 for the 53 bits
  // bits = next() >> 11. Without AVX-512 there is no vector u64 -> double
  // convert, so split bits into hi (its top 21 bits) and lo (its low 32)
  // and build each part exactly from its bit pattern:
  //  - hi OR-ed into the mantissa of 2^31 (ulp 2^-21) is 2^31 + hi*2^-21;
  //  - lo OR-ed into the mantissa of 0.5 (ulp 2^-53) is 0.5 + lo*2^-53.
  // (2^31 + hi*2^-21) - (2^31 + 0.5) = hi*2^-21 - 0.5 is exact (both
  // operands share a binade, and 2^31 + 0.5 is a multiple of 2^-21).
  // Adding 0.5 + lo*2^-53 gives bits * 2^-53, a double, so that rounding
  // is exact too. It is (hi*2^32 + lo) * 2^-53 with both power-of-two
  // scalings folded into the exponents, three vector operations fewer.
  const U64x4 two31_bits = U64x4{} + 0x41e0000000000000ULL;  // 2^31
  const U64x4 half_bits = U64x4{} + 0x3fe0000000000000ULL;   // 0.5
  const F64x4 two31_half = F64x4{} + (0x1.0p31 + 0.5);
  const F64x4 one = F64x4{} + 1.0;
  I64x4 hits{};
  for (std::int64_t i = 0; i < darts_per_stream; ++i) {
    F64x4 coord[2];
    for (F64x4& c : coord) {
      const U64x4 times5 = (s[1] << 2) + s[1];
      const U64x4 rotated = (times5 << 7) | (times5 >> 57);
      const U64x4 bits = ((rotated << 3) + rotated) >> 11;
      const U64x4 t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = (s[3] << 45) | (s[3] >> 19);

      const F64x4 hi = __builtin_bit_cast(F64x4, (bits >> 32) | two31_bits);
      const F64x4 lo =
          __builtin_bit_cast(F64x4, (bits & 0xffffffffULL) | half_bits);
      c = (hi - two31_half) + lo;
    }
    const F64x4 x = coord[0];
    const F64x4 y = coord[1];
    hits -= (x * x + y * y <= one);  // a true lane compares as -1
  }
  return hits[0] + hits[1] + hits[2] + hits[3];
}

}  // namespace detail
#endif

PiEstimate pi_serial(std::int64_t darts, std::uint64_t seed, int num_streams) {
  check_args(darts, num_streams);
  return {darts, throw_strided(seed, 0, 1, num_streams, darts / num_streams)};
}

PiEstimate pi_smp(std::int64_t darts, std::uint64_t seed, int num_streams,
                  std::size_t num_threads) {
  check_args(darts, num_streams);
  const std::int64_t per_stream = darts / num_streams;
  // One slot per stream, each written by exactly one thread; summing the
  // slots in stream order afterwards keeps the result exact.
  std::vector<std::int64_t> hits_by_stream(
      static_cast<std::size_t>(num_streams), 0);
  smp::parallel_for(
      0, num_streams,
      [&](std::int64_t s) {
        hits_by_stream[static_cast<std::size_t>(s)] =
            throw_stream(seed, static_cast<int>(s), per_stream);
      },
      smp::Schedule::dynamic(1), num_threads);

  PiEstimate estimate{darts, 0};
  for (std::int64_t h : hits_by_stream) estimate.hits += h;
  return estimate;
}

PiEstimate pi_rank(mp::Communicator& comm, std::int64_t darts,
                   std::uint64_t seed, int num_streams) {
  check_args(darts, num_streams);
  const std::int64_t local_hits = throw_strided(
      seed, comm.rank(), comm.size(), num_streams, darts / num_streams);
  PiEstimate estimate{darts, comm.allreduce(local_hits, mp::ops::Sum{})};
  return estimate;
}

PiEstimate pi_mp(std::int64_t darts, std::uint64_t seed, int num_streams,
                 int num_procs) {
  PiEstimate estimate;
  std::mutex estimate_mutex;
  mp::run(num_procs, [&](mp::Communicator& comm) {
    PiEstimate mine = pi_rank(comm, darts, seed, num_streams);
    if (comm.rank() == 0) {
      std::lock_guard lock(estimate_mutex);
      estimate = mine;
    }
  });
  return estimate;
}

}  // namespace pdc::exemplars
