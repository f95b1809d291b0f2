// Chaos plans driving the mp runtime: replay determinism (the acceptance
// criterion — two runs of one seed inject the identical event sequence),
// result invariance under noise, non-overtaking under forced reorders,
// drop-with-retry delivery, and targeted abort propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos_test_util.hpp"
#include "mp/mailbox.hpp"
#include "mp/ops.hpp"
#include "mp/runtime.hpp"
#include "trace/trace.hpp"

namespace pdc::chaos {
namespace {

/// A deterministic per-rank mp scenario mixing collectives and a ring
/// exchange — the workload the replay test runs twice under one seed.
void collective_ring_scenario(mp::Communicator& comm) {
  const int rank = comm.rank();
  const int size = comm.size();

  std::vector<int> payload;
  if (rank == 0) payload = {1, 2, 3, 4};
  comm.bcast(payload, 0);
  ASSERT_EQ(payload.size(), 4u);

  const int sum = comm.allreduce(rank, mp::ops::Sum{});
  ASSERT_EQ(sum, size * (size - 1) / 2);

  // Ring: pass the rank around once.
  const int next = (rank + 1) % size;
  const int prev = (rank + size - 1) % size;
  comm.send(rank, next, 7);
  const int from_prev = comm.recv<int>(prev, 7);
  ASSERT_EQ(from_prev, prev);

  const auto everyone = comm.gather(rank * 10, 0);
  if (rank == 0) {
    ASSERT_EQ(everyone.size(), static_cast<std::size_t>(size));
  }
}

struct RunLog {
  std::vector<InjectedFault> faults;           // normalized (actor, seq)
  std::map<int, std::vector<std::string>> markers;  // per-pid chaos markers
};

/// Runs the scenario under `config` with a trace session attached and
/// returns the plan's normalized fault log plus the per-rank (pid) sequence
/// of chaos trace markers.
RunLog run_traced(const Config& config, int procs) {
  trace::TraceSession session;
  session.start();
  RunLog log;
  {
    Scope scope(config);
    mp::run(procs, collective_ring_scenario);
    log.faults = scope.plan().normalized_faults();
  }
  session.stop();
  for (const auto& event : session.events()) {
    if (event.category == "chaos") log.markers[event.pid].push_back(event.name);
  }
  return log;
}

TEST(ChaosMp, ReplayInjectsTheIdenticalEventSequence) {
  // The acceptance criterion: replaying a chaos seed reproduces the same
  // injected-event sequence, asserted by diffing two runs' fault logs AND
  // their per-rank trace-marker sequences.
  Config config = Config::noise(0xC0FFEE);
  config.max_delay_us = 30;  // keep both runs quick

  const RunLog first = run_traced(config, 4);
  const RunLog second = run_traced(config, 4);

  EXPECT_FALSE(first.faults.empty()) << "noise plan injected nothing";
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.markers, second.markers);
}

TEST(ChaosMp, DifferentSeedsInjectDifferentSequences) {
  Config a = Config::noise(101);
  Config b = Config::noise(202);
  a.max_delay_us = b.max_delay_us = 30;
  EXPECT_NE(run_traced(a, 4).faults, run_traced(b, 4).faults);
}

TEST(ChaosMp, CollectiveResultsAreInvariantUnderNoise) {
  Config config = Config::noise(42);
  config.max_delay_us = 30;
  Scope scope(config);
  std::atomic<int> correct{0};
  mp::run(4, [&](mp::Communicator& comm) {
    const int rank = comm.rank();
    const int size = comm.size();

    std::vector<int> data;
    if (rank == 0) {
      data.resize(17);
      std::iota(data.begin(), data.end(), 0);
    }
    const auto mine = comm.scatter_chunks(data, 0);
    const auto back = comm.gather_chunks(mine, 0);
    bool ok = true;
    if (rank == 0) {
      ok = back.size() == 17u;
      for (int i = 0; ok && i < 17; ++i) {
        ok = back[static_cast<std::size_t>(i)] == i;
      }
    }

    const int total = comm.allreduce(rank + 1, mp::ops::Sum{});
    ok = ok && total == size * (size + 1) / 2;

    const int prefix = comm.scan(1, mp::ops::Sum{});
    ok = ok && prefix == rank + 1;

    if (ok) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 4);
}

TEST(ChaosMp, ForcedReordersRespectPerSourceFifo) {
  Config config;
  config.seed = 9;
  config.reorder_probability = 1.0;  // every delivery tries to jump the queue

  Scope scope(config);
  ActorScope lane(1);

  mp::Mailbox box;
  auto make = [](int source, std::byte payload_byte) {
    mp::Envelope e;
    e.comm_id = 0;
    e.source = source;
    e.tag = 0;
    e.payload = mp::make_payload({payload_byte});
    return e;
  };
  // Interleave two senders; reorders may shuffle traffic *across* sources
  // but each source's own sequence must stay FIFO (the MPI non-overtaking
  // contract the Mailbox enforces even when chaos asks for a reorder).
  box.deliver(make(1, std::byte{10}));
  box.deliver(make(1, std::byte{11}));
  box.deliver(make(2, std::byte{20}));
  box.deliver(make(1, std::byte{12}));
  box.deliver(make(2, std::byte{21}));

  EXPECT_GT(scope.plan().fault_count(FaultKind::Reorder), 0u);
  EXPECT_EQ(box.receive(0, 1, mp::kAnyTag).payload->at(0), std::byte{10});
  EXPECT_EQ(box.receive(0, 1, mp::kAnyTag).payload->at(0), std::byte{11});
  EXPECT_EQ(box.receive(0, 1, mp::kAnyTag).payload->at(0), std::byte{12});
  EXPECT_EQ(box.receive(0, 2, mp::kAnyTag).payload->at(0), std::byte{20});
  EXPECT_EQ(box.receive(0, 2, mp::kAnyTag).payload->at(0), std::byte{21});
}

TEST(ChaosMp, DropsRetryButEveryMessageStillArrives) {
  Config config;
  config.seed = 77;
  config.drop_probability = 1.0;  // every delivery hits the retry path
  config.max_redeliveries = 2;
  config.max_delay_us = 10;

  Scope scope(config);
  std::atomic<int> correct{0};
  mp::run(3, [&](mp::Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int round = 0; round < 5; ++round) {
      comm.send(comm.rank() * 100 + round, next, round);
      const int got = comm.recv<int>(prev, round);
      if (got != prev * 100 + round) return;
    }
    correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 3);
  EXPECT_GT(scope.plan().fault_count(FaultKind::Drop), 0u);
}

TEST(ChaosMp, TargetedAbortPropagatesToTheCallerWithinBudget) {
  Config config;
  config.seed = 5;
  config.abort_actor = 2;
  config.abort_at_op = 0;  // rank 2 dies at its very first mp operation

  Scope scope(config);
  bool finished = chaos_test::run_with_watchdog(
      chaos_test::kWatchdogBudget, [&] {
        try {
          mp::run(4, [](mp::Communicator& comm) {
            // Every rank blocks on a collective; rank 2's abort must unblock
            // the peers and surface to the run() caller.
            (void)comm.allreduce(comm.rank(), mp::ops::Sum{});
          });
          FAIL() << "expected InjectedAbort to propagate out of mp::run";
        } catch (const InjectedAbort& abort) {
          EXPECT_EQ(abort.actor(), 2);
          EXPECT_EQ(abort.seq(), 0u);
        }
      });
  EXPECT_TRUE(finished) << "abort did not propagate within the watchdog budget";
  EXPECT_EQ(scope.plan().fault_count(FaultKind::Abort), 1u);
}

}  // namespace
}  // namespace pdc::chaos
