// google-benchmark microbenchmarks of the message-passing runtime: p2p
// latency/throughput and the collectives the mpi4py module teaches, plus
// the Monte Carlo pi job the lab server runs most.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "exemplars/montecarlo.hpp"
#include "mp/ops.hpp"
#include "mp/runtime.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace {

using namespace pdc;

/// The mailbox-congestion scenario: rank 1 preloads `cold_comms`
/// duplicated communicators with kDepth pending messages each, then the
/// two ranks ping `kRounds` messages over one more ("hot") communicator.
/// Every hot-side match must get past the cold backlog, so the cost of
/// matching is what this measures. The trace counters mailbox.scanned /
/// mailbox.matched turn the backlog traversal into a number.
constexpr int kCongestDepth = 32;
constexpr int kCongestRounds = 64;

void congested_match_round(int cold_comms) {
  mp::run(2, [&](mp::Communicator& comm) {
    std::vector<mp::Communicator> cold;
    cold.reserve(static_cast<std::size_t>(cold_comms));
    for (int c = 0; c < cold_comms; ++c) cold.push_back(comm.dup());
    mp::Communicator hot = comm.dup();
    if (comm.rank() == 1) {
      for (auto& backlog : cold) {
        for (int i = 0; i < kCongestDepth; ++i) backlog.send(i, 0);
      }
      comm.barrier();  // backlog is pending at rank 0 from here on
      for (int i = 0; i < kCongestRounds; ++i) {
        hot.send(i, 0);
        benchmark::DoNotOptimize(hot.recv<int>(0));
      }
    } else {
      comm.barrier();
      for (int i = 0; i < kCongestRounds; ++i) {
        const int v = hot.recv<int>(1);
        hot.send(v, 1);
      }
      // Drain the backlog so the job shuts down with empty mailboxes.
      for (auto& backlog : cold) {
        for (int i = 0; i < kCongestDepth; ++i) {
          benchmark::DoNotOptimize(backlog.recv<int>(1));
        }
      }
    }
  });
}

void BM_JobLaunch(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(procs, [](mp::Communicator&) {});
  }
}
BENCHMARK(BM_JobLaunch)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_PingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(2, [&](mp::Communicator& comm) {
      for (int i = 0; i < rounds; ++i) {
        if (comm.rank() == 0) {
          comm.send(i, 1);
          benchmark::DoNotOptimize(comm.recv<int>(1));
        } else {
          const int v = comm.recv<int>(0);
          comm.send(v, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_PingPong)->Arg(100)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_LargePayloadSend(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<char> payload(bytes, 'x');
  for (auto _ : state) {
    mp::run(2, [&](mp::Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(payload, 1);
      } else {
        benchmark::DoNotOptimize(comm.recv<std::vector<char>>(0));
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LargePayloadSend)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Broadcast(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(procs, [](mp::Communicator& comm) {
      std::vector<int> data;
      if (comm.rank() == 0) data.assign(256, 7);
      comm.bcast(data, 0);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_Broadcast)->Arg(2)->Arg(4)->Arg(8);

void BM_Allreduce(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(procs, [](mp::Communicator& comm) {
      benchmark::DoNotOptimize(comm.allreduce(comm.rank(), mp::ops::Sum{}));
    });
  }
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_Barrier(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(4, [&](mp::Communicator& comm) {
      for (int i = 0; i < rounds; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_Barrier)->Arg(50);

void BM_ScatterGatherChunks(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mp::run(procs, [](mp::Communicator& comm) {
      std::vector<double> data;
      if (comm.rank() == 0) data.assign(4096, 1.5);
      const auto mine = comm.scatter_chunks(data, 0);
      const auto back = comm.gather_chunks(mine, 0);
      benchmark::DoNotOptimize(back.data());
    });
  }
}
BENCHMARK(BM_ScatterGatherChunks)->Arg(2)->Arg(4);

void BM_MailboxCongestedMatch(benchmark::State& state) {
  const int cold_comms = static_cast<int>(state.range(0));
  for (auto _ : state) {
    congested_match_round(cold_comms);
  }
  state.SetItemsProcessed(state.iterations() * kCongestRounds);
}
BENCHMARK(BM_MailboxCongestedMatch)->Arg(1)->Arg(8)->Arg(64);

/// The many-senders variant of the congestion scenario: the backlog sits on
/// the SAME communicator as the timed traffic, spread over many sources.
/// Ranks 2..p-1 each park kSenderDepth messages at rank 0, then ranks 0 and
/// 1 ping-pong targeted receives. A matcher that scans the whole comm queue
/// pays for the entire backlog on every match; a per-source index pays only
/// for rank 1's own queue.
constexpr int kSenderDepth = 32;
constexpr int kSenderRounds = 64;

void many_senders_round(int senders) {
  const int procs = senders + 2;
  mp::run(procs, [&](mp::Communicator& comm) {
    if (comm.rank() >= 2) {
      for (int i = 0; i < kSenderDepth; ++i) comm.send(i, 0, 5);
      comm.barrier();  // backlog is queued at rank 0 from here on
    } else if (comm.rank() == 1) {
      comm.barrier();
      for (int i = 0; i < kSenderRounds; ++i) {
        comm.send(i, 0, 0);
        benchmark::DoNotOptimize(comm.recv<int>(0, 0));
      }
    } else {
      comm.barrier();
      for (int i = 0; i < kSenderRounds; ++i) {
        const int v = comm.recv<int>(1, 0);  // targeted match past the backlog
        comm.send(v, 1, 0);
      }
      // Drain the backlog so the job shuts down with empty mailboxes.
      for (int s = 2; s < procs; ++s) {
        for (int i = 0; i < kSenderDepth; ++i) {
          benchmark::DoNotOptimize(comm.recv<int>(s, 5));
        }
      }
    }
  });
}

void BM_MailboxManySenders(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  for (auto _ : state) {
    many_senders_round(senders);
  }
  state.SetItemsProcessed(state.iterations() * kSenderRounds);
}
BENCHMARK(BM_MailboxManySenders)->Arg(2)->Arg(8)->Arg(16);

/// Root-side fan-out cost of a flat broadcast: the root serializes a
/// 4096-double payload for its p-1 destinations every round.
void BM_BcastFanout(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  constexpr int kRounds = 8;
  for (auto _ : state) {
    mp::run(procs, [&](mp::Communicator& comm) {
      std::vector<double> payload;
      for (int i = 0; i < kRounds; ++i) {
        if (comm.rank() == 0) payload.assign(4096, 1.0);
        comm.bcast(payload, 0, mp::Communicator::CollectiveAlgo::Flat);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_BcastFanout)->Arg(4)->Arg(8)->Arg(16);

/// Gather with a deliberate straggler: rank 1 sleeps before contributing its
/// 2 MiB chunk while ranks 2 and 3 deliver immediately. A root that drains
/// in strict rank order sits idle through the sleep and only then starts
/// deserializing the (long-queued) later chunks; an arrival-order drain
/// overlaps that work with the straggler's delay.
void BM_GatherStraggler(benchmark::State& state) {
  const auto chunk_len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mp::run(4, [&](mp::Communicator& comm) {
      std::vector<double> chunk(chunk_len, comm.rank() + 0.5);
      if (comm.rank() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      benchmark::DoNotOptimize(comm.gather_chunks(chunk, 0));
    });
  }
}
BENCHMARK(BM_GatherStraggler)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void BM_CommSplit(benchmark::State& state) {
  for (auto _ : state) {
    mp::run(8, [](mp::Communicator& comm) {
      auto sub = comm.split(comm.rank() % 2, comm.rank());
      benchmark::DoNotOptimize(sub.rank());
    });
  }
}
BENCHMARK(BM_CommSplit);

/// The lab's pi program (src/lab/executor.cpp): 4 streams per rank, 2048
/// darts per stream, one job per iteration on a fresh seed. At np 1 this
/// is the dart kernel plus mp::run's fixed cost; larger np adds the
/// allreduce and spreads the streams over the rank threads.
void BM_PiRank(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int streams = 4 * procs;
  const std::int64_t darts = 2048 * static_cast<std::int64_t>(streams);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    mp::run(procs, [&](mp::Communicator& comm) {
      benchmark::DoNotOptimize(
          exemplars::pi_rank(comm, darts, seed, streams).hits);
    });
    ++seed;
  }
  state.SetItemsProcessed(state.iterations() * darts);
}
BENCHMARK(BM_PiRank)->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Traced replay of the worst congestion cases: the mailbox.scanned /
  // mailbox.matched ratio is the mean number of queued envelopes each
  // receive had to consider before finding its match, and
  // mp.payload_encodes counts how many times a fan-out serialized a payload.
  {
    pdc::trace::TraceSession session;
    session.start();
    congested_match_round(/*cold_comms=*/64);
    session.stop();

    const double matched = session.counter_total("mailbox.matched");
    const double scanned = session.counter_total("mailbox.scanned");
    std::printf("\n-- traced replay: congested match, 64 cold comms --\n");
    std::printf("envelopes matched: %.0f, scanned while matching: %.0f "
                "(%.1f scanned per match)\n\n",
                matched, scanned, matched > 0 ? scanned / matched : 0.0);
    std::fputs(pdc::trace::summary_report(session).c_str(), stdout);
  }
  {
    pdc::trace::TraceSession session;
    session.start();
    many_senders_round(/*senders=*/16);
    session.stop();

    const double matched = session.counter_total("mailbox.matched");
    const double scanned = session.counter_total("mailbox.scanned");
    std::printf("\n-- traced replay: 16 senders congesting one comm --\n");
    std::printf("envelopes matched: %.0f, scanned while matching: %.0f "
                "(%.1f scanned per match)\n",
                matched, scanned, matched > 0 ? scanned / matched : 0.0);
  }
  {
    pdc::trace::TraceSession session;
    session.start();
    pdc::mp::run(16, [](pdc::mp::Communicator& comm) {
      std::vector<double> payload;
      if (comm.rank() == 0) payload.assign(4096, 1.0);
      comm.bcast(payload, 0, pdc::mp::Communicator::CollectiveAlgo::Flat);
    });
    session.stop();
    std::printf("\n-- traced replay: flat bcast of 4096 doubles, p=16 --\n");
    std::printf("payload encodes: %.0f (of 15 messages sent)\n",
                session.counter_total("mp.payload_encodes"));
  }
  return 0;
}
