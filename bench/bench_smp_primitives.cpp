// google-benchmark microbenchmarks of the shared-memory runtime: the cost
// of the constructs the OpenMP module teaches (fork-join, worksharing
// schedules, reduction, barrier, critical vs atomic).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>

#include "smp/config.hpp"
#include "smp/parallel.hpp"
#include "smp/thread_pool.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace {

using namespace pdc;

void BM_ForkJoin(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    smp::parallel(threads, [](smp::TeamContext&) {});
  }
}
BENCHMARK(BM_ForkJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The fork-join hot-path acceptance measurement: per-region overhead of a
// repeated small parallel_for at p=8 on the cached worker team. The work per
// region is deliberately tiny (~0.2 us serially) so the region machinery
// dominates.
void BM_RegionPerParallelFor(benchmark::State& state) {
  std::vector<double> data(1024, 1.0);
  for (auto _ : state) {
    smp::parallel_for_ranges(
        0, static_cast<std::int64_t>(data.size()),
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            data[static_cast<std::size_t>(i)] *= 1.0000001;
          }
        },
        smp::Schedule::static_blocks(), 8);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_RegionPerParallelFor);

// Barrier round-trip cost as the team grows: `rounds` arrive_and_wait
// cycles inside one region, reported per round. Exercises the centralized
// sense-reversing barrier's spin/yield/futex ladder at each width.
void BM_BarrierRoundTrip(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr int kRounds = 64;
  for (auto _ : state) {
    smp::parallel(threads, [&](smp::TeamContext& ctx) {
      for (int i = 0; i < kRounds; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_BarrierRoundTrip)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Dynamic-schedule chunk-claim throughput: the slot ring's fetch_add
// dispatch cursor under a team hammering an empty-bodied loop. items/s is
// claimed chunks per second.
void BM_DynamicClaims(benchmark::State& state) {
  constexpr std::int64_t kChunk = 16;
  constexpr std::int64_t kN = 1 << 16;
  for (auto _ : state) {
    smp::parallel(4, [&](smp::TeamContext& ctx) {
      ctx.for_ranges(
          0, kN, smp::Schedule::dynamic(kChunk),
          [](std::int64_t begin, std::int64_t) {
            benchmark::DoNotOptimize(begin);
          });
    });
  }
  state.SetItemsProcessed(state.iterations() * (kN / kChunk));
}
BENCHMARK(BM_DynamicClaims);

void BM_ParallelForStatic(benchmark::State& state) {
  const auto n = state.range(0);
  std::vector<double> data(static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    smp::parallel_for_ranges(
        0, n,
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            data[static_cast<std::size_t>(i)] *= 1.0000001;
          }
        },
        smp::Schedule::static_blocks(), 4);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForStatic)->Arg(1 << 12)->Arg(1 << 16);

void BM_ParallelForDynamic(benchmark::State& state) {
  const auto n = state.range(0);
  std::vector<double> data(static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    smp::parallel_for_ranges(
        0, n,
        [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            data[static_cast<std::size_t>(i)] *= 1.0000001;
          }
        },
        smp::Schedule::dynamic(64), 4);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelForDynamic)->Arg(1 << 12)->Arg(1 << 16);

void BM_ParallelSum(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    const double sum = smp::parallel_sum<double>(
        0, n, [](std::int64_t i) { return static_cast<double>(i); },
        smp::Schedule::static_blocks(), 4);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelSum)->Arg(1 << 14)->Arg(1 << 18);

void BM_Barrier(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    smp::parallel(4, [&](smp::TeamContext& ctx) {
      for (int i = 0; i < rounds; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_Barrier)->Arg(16)->Arg(64);

void BM_CriticalIncrement(benchmark::State& state) {
  const int per_thread = static_cast<int>(state.range(0));
  for (auto _ : state) {
    long balance = 0;
    smp::parallel(4, [&](smp::TeamContext& ctx) {
      for (int i = 0; i < per_thread; ++i) {
        ctx.critical([&] { ++balance; });
      }
    });
    benchmark::DoNotOptimize(balance);
  }
  state.SetItemsProcessed(state.iterations() * per_thread * 4);
}
BENCHMARK(BM_CriticalIncrement)->Arg(1000);

void BM_AtomicIncrement(benchmark::State& state) {
  const int per_thread = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<long> balance{0};
    smp::parallel(4, [&](smp::TeamContext&) {
      for (int i = 0; i < per_thread; ++i) {
        balance.fetch_add(1, std::memory_order_relaxed);
      }
    });
    benchmark::DoNotOptimize(balance.load());
  }
  state.SetItemsProcessed(state.iterations() * per_thread * 4);
}
BENCHMARK(BM_AtomicIncrement)->Arg(1000);

void BM_TeamReduce(benchmark::State& state) {
  for (auto _ : state) {
    smp::parallel(4, [](smp::TeamContext& ctx) {
      const int total = ctx.reduce_sum(static_cast<int>(ctx.thread_num()));
      benchmark::DoNotOptimize(total);
    });
  }
}
BENCHMARK(BM_TeamReduce);

void BM_ThreadPoolSubmit(benchmark::State& state) {
  smp::ThreadPool pool(2);
  for (auto _ : state) {
    auto future = pool.submit([] { return 1; });
    benchmark::DoNotOptimize(future.get());
  }
}
BENCHMARK(BM_ThreadPoolSubmit);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Traced replay of a representative mixed workload: a dynamic-schedule
  // worksharing loop plus a burst of thread-pool submissions, so the
  // report shows queue-wait vs run time and barrier costs side by side.
  pdc::trace::TraceSession session;
  session.start();
  smp::parallel(4, [](smp::TeamContext& ctx) {
    ctx.for_each(
        0, 1 << 12, smp::Schedule::dynamic(64),
        [](std::int64_t i) { benchmark::DoNotOptimize(i * i); });
    ctx.barrier();
  });
  {
    smp::ThreadPool pool(2);
    std::vector<std::future<int>> results;
    results.reserve(256);
    for (int i = 0; i < 256; ++i) {
      results.push_back(pool.submit([i] { return i; }));
    }
    for (auto& r : results) benchmark::DoNotOptimize(r.get());
  }
  session.stop();

  std::printf("\n-- traced replay: dynamic for + 256 pool submissions --\n\n");
  std::fputs(pdc::trace::summary_report(session).c_str(), stdout);
  return 0;
}
