// WorkerPool unit tests: the forked pdclab worker fleet behind
// ExecMode::Socket. Pins the isolation contract — jobs execute in worker
// processes, a SIGKILLed or wedged worker is reaped + respawned and the job
// redispatched, chaos-injected kills are absorbed, cancel() turns a running
// job into the exit-130 Result, and a broken worker binary exhausts the
// bounded attempt budget instead of respawning forever.
//
// PDCLAB_TEST_BIN is the real pdclab binary (compile definition); every
// pool here execs it in `worker` mode.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "lab/server.hpp"
#include "lab/shard.hpp"

namespace pdc::lab {
namespace {

using protocol::JobKind;
using protocol::Result;
using protocol::Status;
using protocol::Submit;

WorkerPoolConfig pool_config(int workers = 1) {
  WorkerPoolConfig config;
  config.workers = workers;
  config.worker_bin = PDCLAB_TEST_BIN;
  config.heartbeat_ms = 50;
  return config;
}

Submit spmd_submit(int np = 2) {
  Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Patternlet;
  submit.name = "spmd";
  submit.np = np;
  return submit;
}

/// Sets PDCLAB_TEST_HOLD_MS for the forked workers and clears it on exit,
/// so one test's held jobs never slow another's.
class HoldEnv {
 public:
  explicit HoldEnv(int ms) {
    ::setenv("PDCLAB_TEST_HOLD_MS", std::to_string(ms).c_str(), 1);
  }
  ~HoldEnv() { ::unsetenv("PDCLAB_TEST_HOLD_MS"); }
};

/// True when this process has no children left to reap — the
/// zero-leaked-processes bar every teardown here is held to.
bool no_child_processes() {
  const pid_t rc = ::waitpid(-1, nullptr, WNOHANG);
  return rc == -1 && errno == ECHILD;
}

TEST(LabShard, ExecutesAJobInAWorkerProcessAndStreamsItsOutput) {
  WorkerPool pool(pool_config());
  pool.start();
  ASSERT_GT(pool.slot_pid(0), 0);

  std::vector<std::string> streamed;
  const Result result =
      pool.execute(0, 7, spmd_submit(), [&streamed](const Status& status) {
        EXPECT_EQ(status.job_id, 7u);
        EXPECT_EQ(status.state, protocol::JobState::Running);
        streamed.insert(streamed.end(), status.output.begin(),
                        status.output.end());
      });

  EXPECT_EQ(result.exit_code, 0) << result.error;
  EXPECT_EQ(result.job_id, 7u);
  ASSERT_EQ(result.output.size(), 2u);
  EXPECT_NE(result.output[0].find("Greetings"), std::string::npos);
  // The worker flushes its streaming tail before the Result, so the pushed
  // lines are the complete output, not a truncated prefix of it.
  EXPECT_EQ(streamed, result.output);
  EXPECT_EQ(pool.executions(), 1u);
  EXPECT_EQ(pool.respawns(), 0u);

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

TEST(LabShard, SigkilledWorkerIsRespawnedAndTheFleetKeepsServing) {
  WorkerPool pool(pool_config());
  pool.start();

  const Result first = pool.execute(0, 1, spmd_submit(), nullptr);
  ASSERT_EQ(first.exit_code, 0) << first.error;

  // Simulate a worker the OS took down between jobs (OOM, a stray kill):
  // the next dispatch hits a dead socket, reaps, respawns, redispatches.
  const pid_t victim = pool.slot_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  const Result second = pool.execute(0, 2, spmd_submit(), nullptr);
  EXPECT_EQ(second.exit_code, 0) << second.error;
  EXPECT_GE(pool.respawns(), 1u);
  EXPECT_NE(pool.slot_pid(0), victim);

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

TEST(LabShard, SigstoppedWorkerTripsTheHangDetector) {
  WorkerPoolConfig config = pool_config();
  config.hang_timeout_ms = 500;  // a stopped worker goes silent past this
  WorkerPool pool(config);
  pool.start();

  // SIGSTOP freezes the worker without killing it — the exact shape of a
  // wedged process: the dispatch lands in its socket buffer, no heartbeat
  // ever comes back, and only the recv deadline can notice.
  const pid_t victim = pool.slot_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGSTOP), 0);

  const Result result = pool.execute(0, 3, spmd_submit(), nullptr);
  EXPECT_EQ(result.exit_code, 0) << result.error;
  EXPECT_GE(pool.respawns(), 1u);

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

TEST(LabShard, ChaosInjectedWorkerKillIsAbsorbedByRedispatch) {
  WorkerPool pool(pool_config());
  pool.start();

  // The worker-kill chaos lane: an injected abort at the kill site right
  // after a Dispatch becomes a real SIGKILL of the worker. Op 0 on this
  // lane is the first dispatch's kill site; the redispatch draws op 1,
  // which no longer matches, so the retry survives.
  chaos::Config plan;
  plan.seed = 1;
  plan.abort_actor = chaos::kLabWorkerActorBase;
  plan.abort_at_op = 0;
  Result result;
  {
    chaos::Scope scope(plan);
    chaos::ActorScope actor(chaos::kLabWorkerActorBase);
    result = pool.execute(0, 4, spmd_submit(), nullptr);
  }
  EXPECT_EQ(result.exit_code, 0) << result.error;
  EXPECT_GE(pool.respawns(), 1u);
  EXPECT_EQ(pool.executions(), 1u);  // one job, even though two dispatches

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

TEST(LabShard, CancelKillsTheRunningWorkerAndReturnsExit130) {
  HoldEnv hold(10000);  // pin the job in Running until the cancel lands
  WorkerPool pool(pool_config());
  pool.start();

  Result result;
  std::thread runner(
      [&] { result = pool.execute(0, 5, spmd_submit(), nullptr); });

  // cancel() only reports true while slot 0 is executing job 5 — polling
  // until then is exactly the race a second client connection would run.
  bool cancelled = false;
  for (int i = 0; i < 5000 && !cancelled; ++i) {
    cancelled = pool.cancel(5);
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();

  ASSERT_TRUE(cancelled);
  EXPECT_EQ(result.exit_code, 130);
  EXPECT_NE(result.error.find("cancelled"), std::string::npos);

  // Nothing was executing job 5 anymore, so a second cancel finds nothing.
  EXPECT_FALSE(pool.cancel(5));

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

TEST(LabShard, BrokenWorkerBinaryExhaustsTheAttemptBudget) {
  WorkerPoolConfig config = pool_config();
  config.worker_bin = "/bin/false";  // execs, but never speaks PDCN
  config.spawn_timeout_ms = 300;
  config.max_attempts = 2;
  WorkerPool pool(config);
  pool.start();  // the failed eager spawn is tolerated; execute retries it

  const Result result = pool.execute(0, 6, spmd_submit(), nullptr);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.error.find("2 worker attempts"), std::string::npos)
      << result.error;

  pool.stop();
  EXPECT_TRUE(no_child_processes());
}

}  // namespace
}  // namespace pdc::lab
