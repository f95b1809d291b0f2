// Chaos sweeps over the lab server's admission and dispatch boundaries.
// The acceptance bar: every Submit gets a terminal answer (an Accept whose
// job eventually Results, or a Reject) under every seeded plan — zero
// hangs, the watchdog enforcing "bounded" — and a failed run is never
// frozen into the result cache. Tier-1 runs a handful of seeds;
// `ctest -L stress` with PDCLAB_CHAOS_SEEDS=80 (scripts/verify.sh) runs
// the acceptance sweep.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <map>
#include <string>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "chaos/chaos.hpp"
#include "lab/client.hpp"
#include "lab/server.hpp"
#include "lab/shard.hpp"

namespace pdc::lab {
namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;
using chaos_test::sweep_seeds;

net::Endpoint sweep_endpoint() {
  static std::atomic<int> counter{0};
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::Unix;
  endpoint.path = "/tmp/pdclab-sweep-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

protocol::Submit pi_submit(std::uint64_t seed) {
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = protocol::JobKind::Exemplar;
  submit.name = "pi";
  submit.np = 2;
  submit.seed = seed;
  return submit;
}

/// One serving round under an active plan: submit `jobs` pi runs (distinct
/// seeds so the cache never short-circuits the chaos hooks), demand a
/// terminal answer for each, and pin the cache invariant: cached results
/// are always clean (exit 0).
void serve_round(Server& server, int jobs, int* rejected, int* failed) {
  Client client([&] {
    ClientConfig config;
    config.endpoint = server.endpoint();
    config.reply_timeout_ms = 20000;
    return config;
  }());
  for (int j = 0; j < jobs; ++j) {
    const auto outcome = client.submit(pi_submit(1000 + j));
    if (!outcome.accepted()) {
      ++*rejected;
      continue;
    }
    const protocol::Result result = client.wait_result(outcome.accept->job_id);
    if (result.exit_code != 0) ++*failed;
    if (result.cached) {
      EXPECT_EQ(result.exit_code, 0) << "a FAILED run was served from cache";
    }
  }
}

TEST(LabChaosSweep, HostilePlansNeverHangTheServer) {
  const int seeds = sweep_seeds(4);
  int rejected = 0;
  int failed = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      ServerConfig config;
      config.endpoint = sweep_endpoint();
      config.workers = 2;
      Server server(std::move(config));
      server.start();
      {
        chaos::Scope scope(
            chaos::Config::hostile(static_cast<std::uint64_t>(seed)));
        serve_round(server, 3, &rejected, &failed);
      }
      server.stop();  // must also tear down cleanly mid-chaos aftermath
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG the lab server";
  }
  std::fprintf(stderr,
               "lab hostile sweep: %d rejects, %d failed runs over %d seeds\n",
               rejected, failed, seeds);
}

TEST(LabChaosSweep, TargetedAdmissionAbortIsARejectNotAHang) {
  // Kill the admission checkpoint (session reader thread, actor lane 0) at
  // the seed-th Submit: exactly that submission is rejected Overloaded, the
  // others run to completion.
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    const int target = seed % 3;
    const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      ServerConfig config;
      config.endpoint = sweep_endpoint();
      config.workers = 1;
      Server server(std::move(config));
      server.start();
      chaos::Config plan;
      plan.seed = static_cast<std::uint64_t>(seed);
      plan.abort_actor = chaos::kLabAdmitActor;  // the session reader's lane
      plan.abort_at_op = static_cast<std::uint64_t>(target);
      int overloaded = 0;
      {
        chaos::Scope scope(plan);
        Client client([&] {
          ClientConfig c;
          c.endpoint = server.endpoint();
          c.reply_timeout_ms = 20000;
          return c;
        }());
        for (int j = 0; j < 3; ++j) {
          const auto outcome = client.submit(pi_submit(2000 + j));
          if (outcome.accepted()) {
            const auto result = client.wait_result(outcome.accept->job_id);
            EXPECT_EQ(result.exit_code, 0)
                << "seed " << seed << " job " << j << ": " << result.error;
          } else {
            EXPECT_EQ(outcome.reject->code, protocol::RejectCode::Overloaded)
                << "seed " << seed << " job " << j;
            EXPECT_EQ(j, target) << "seed " << seed;
            ++overloaded;
          }
        }
      }
      EXPECT_EQ(overloaded, 1) << "seed " << seed;
      server.stop();
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG on an admission abort";
  }
}

TEST(LabChaosSweep, TargetedDispatchAbortFailsTheJobCleanly) {
  // Kill worker 0 at its target-th dispatch checkpoint: that job comes back
  // exit 2 (the injected abort), every other job completes, and the abort
  // never poisons the cache — resubmitting the killed job (chaos off)
  // executes it for real.
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    const int target = seed % 3;
    const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      ServerConfig config;
      config.endpoint = sweep_endpoint();
      config.workers = 1;  // one worker => dispatch order is queue order
      Server server(std::move(config));
      server.start();
      chaos::Config plan;
      plan.seed = static_cast<std::uint64_t>(seed);
      plan.abort_actor = chaos::kLabWorkerActorBase;  // worker 0's lane
      plan.abort_at_op = static_cast<std::uint64_t>(target);
      std::uint64_t killed_seed = 0;
      {
        chaos::Scope scope(plan);
        Client client([&] {
          ClientConfig c;
          c.endpoint = server.endpoint();
          c.reply_timeout_ms = 20000;
          return c;
        }());
        int aborted = 0;
        for (int j = 0; j < 3; ++j) {
          const auto outcome = client.submit(pi_submit(3000 + j));
          ASSERT_TRUE(outcome.accepted()) << "seed " << seed << " job " << j;
          const auto result = client.wait_result(outcome.accept->job_id);
          if (result.exit_code == 2) {
            ++aborted;
            killed_seed = 3000 + static_cast<std::uint64_t>(j);
            EXPECT_EQ(j, target) << "seed " << seed;
            EXPECT_NE(result.error.find("chaos"), std::string::npos);
          } else {
            EXPECT_EQ(result.exit_code, 0)
                << "seed " << seed << " job " << j << ": " << result.error;
          }
        }
        EXPECT_EQ(aborted, 1) << "seed " << seed;
      }
      // Chaos off: the killed job was not cached, so it executes now.
      const std::uint64_t executions_before = server.executor().executions();
      Client retry([&] {
        ClientConfig c;
        c.endpoint = server.endpoint();
        c.reply_timeout_ms = 20000;
        return c;
      }());
      const auto outcome = retry.submit(pi_submit(killed_seed));
      ASSERT_TRUE(outcome.accepted()) << "seed " << seed;
      const auto result = retry.wait_result(outcome.accept->job_id);
      EXPECT_EQ(result.exit_code, 0) << result.error;
      EXPECT_FALSE(result.cached) << "seed " << seed;
      EXPECT_EQ(server.executor().executions(), executions_before + 1);
      server.stop();
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG on a dispatch abort";
  }
}

TEST(LabChaosSweep, CancelRacesAlwaysResolveToATerminalAnswer) {
  // Racing cancels against a draining queue: every seed submits a burst of
  // jobs on one worker and immediately cancels them in a seed-dependent
  // order while chaos noise jitters the execution timing. The contract is
  // binary and total — a cancel that was acked ends in the exit-130 Result,
  // a cancel that was refused means the job ran (or had run) to completion,
  // and either way wait_result() returns. No third outcome, no hangs.
  const int seeds = sweep_seeds(4);
  int acked = 0;
  int refused = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      ServerConfig config;
      config.endpoint = sweep_endpoint();
      config.workers = 1;  // the burst queues, so cancels catch Queued jobs
      Server server(std::move(config));
      server.start();
      {
        chaos::Scope scope(
            chaos::Config::noise(static_cast<std::uint64_t>(seed)));
        Client submitter([&] {
          ClientConfig c;
          c.endpoint = server.endpoint();
          c.reply_timeout_ms = 20000;
          return c;
        }());
        Client canceller([&] {
          ClientConfig c;
          c.endpoint = server.endpoint();
          c.reply_timeout_ms = 20000;
          return c;
        }());
        std::vector<std::uint64_t> ids;
        for (int j = 0; j < 4; ++j) {
          const auto outcome = submitter.submit(pi_submit(
              4000 + static_cast<std::uint64_t>(j)));
          ASSERT_TRUE(outcome.accepted()) << "seed " << seed << " job " << j;
          ids.push_back(outcome.accept->job_id);
        }
        std::map<std::uint64_t, bool> was_acked;
        for (int j = 0; j < 4; ++j) {
          const std::uint64_t id = ids[static_cast<std::size_t>(
              (j + seed) % 4)];
          const auto outcome = canceller.cancel(id, "hands-on", "ada");
          was_acked[id] = outcome.cancelled();
          if (outcome.cancelled()) {
            ++acked;
          } else {
            ++refused;
            EXPECT_EQ(outcome.reject->code, protocol::RejectCode::BadRequest)
                << "seed " << seed << ": " << outcome.reject->reason;
          }
        }
        for (const std::uint64_t id : ids) {
          const auto result = submitter.wait_result(id);
          if (was_acked[id]) {
            EXPECT_EQ(result.exit_code, 130)
                << "seed " << seed << ": acked cancel lost its exit-130";
          } else {
            EXPECT_EQ(result.exit_code, 0)
                << "seed " << seed << ": " << result.error;
          }
        }
        EXPECT_EQ(server.stats().cancelled,
                  static_cast<std::uint64_t>(
                      std::count_if(was_acked.begin(), was_acked.end(),
                                    [](const auto& kv) { return kv.second; })));
      }
      server.stop();
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG a cancel race";
  }
  // Across the sweep both races must actually occur: cancels that landed in
  // the queue and cancels that lost to the worker.
  EXPECT_GT(acked, 0);
  EXPECT_GT(refused, 0);
  std::fprintf(stderr,
               "lab cancel sweep: %d acked, %d refused over %d seeds\n",
               acked, refused, seeds);
}

TEST(LabChaosSweep, MultiprocWorkerKillsLoseNoJobs) {
  // The shard-pool acceptance bar: a worker process SIGKILLed right after a
  // dispatch (the kShardKillSite chaos lane) costs a respawn, never a job.
  // On worker 0's actor lane ops alternate lab.dispatch / lab.shard.kill,
  // so op 2t+1 is job t's first kill site: that worker dies mid-job, the
  // pool reaps + respawns + redispatches, and every job still exits 0. The
  // teardown bar is just as hard — zero leaked worker processes.
  const int seeds = sweep_seeds(4);
  std::uint64_t respawns = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    const int target = seed % 3;
    const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      ServerConfig config;
      config.endpoint = sweep_endpoint();
      config.workers = 1;  // one worker => dispatch order is queue order
      config.exec_mode = ExecMode::Socket;
      config.shard.worker_bin = PDCLAB_TEST_BIN;
      config.shard.heartbeat_ms = 50;
      Server server(std::move(config));
      server.start();
      chaos::Config plan;
      plan.seed = static_cast<std::uint64_t>(seed);
      plan.abort_actor = chaos::kLabWorkerActorBase;
      plan.abort_at_op = static_cast<std::uint64_t>(2 * target + 1);
      {
        chaos::Scope scope(plan);
        Client client([&] {
          ClientConfig c;
          c.endpoint = server.endpoint();
          c.reply_timeout_ms = 20000;
          return c;
        }());
        for (int j = 0; j < 3; ++j) {
          const auto outcome = client.submit(pi_submit(
              5000 + static_cast<std::uint64_t>(j)));
          ASSERT_TRUE(outcome.accepted()) << "seed " << seed << " job " << j;
          const auto result = client.wait_result(outcome.accept->job_id);
          EXPECT_EQ(result.exit_code, 0)
              << "seed " << seed << " job " << j << " LOST: " << result.error;
        }
      }
      EXPECT_GE(server.stats().worker_respawns, 1u) << "seed " << seed;
      respawns += server.stats().worker_respawns;
      server.stop();
      // Every worker process the pool ever forked has been reaped.
      const pid_t rc = ::waitpid(-1, nullptr, WNOHANG);
      EXPECT_TRUE(rc == -1 && errno == ECHILD)
          << "seed " << seed << " leaked a worker process (waitpid -> " << rc
          << ")";
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG on a worker kill";
  }
  std::fprintf(stderr, "lab multiproc sweep: %llu respawns over %d seeds\n",
               static_cast<unsigned long long>(respawns), seeds);
}

}  // namespace
}  // namespace pdc::lab
