// The store wired through the lab stack, over real sockets and the real
// binary: every terminal Result is journaled durable before its frame is
// acked, grade verdicts land in the (cohort, mutant, submission) index, a
// restarted server warms its result cache from the recovered store (and
// never from journaled failures), Report queries stream the store's
// aggregates, and a SIGTERM'd `pdclab serve` drains, flushes and leaves a
// store holding every result it ever acked.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../net/net_test_util.hpp"
#include "lab/client.hpp"
#include "lab/server.hpp"
#include "net/errors.hpp"
#include "net/socket.hpp"
#include "store/store.hpp"
#include "store_test_util.hpp"

namespace pdc::lab {
namespace {

using net_test::run_command;
using protocol::JobKind;
using protocol::RejectCode;
using store_test::ScratchDir;

const std::string kBin = PDCLAB_TEST_BIN;

net::Endpoint unique_unix_endpoint() {
  static std::atomic<int> counter{0};
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::Unix;
  endpoint.path = "/tmp/pdclab-store-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

ServerConfig store_config(const std::string& dir) {
  ServerConfig config;
  config.endpoint = unique_unix_endpoint();
  config.workers = 2;
  config.store.dir = dir;
  return config;
}

ClientConfig client_config(const net::Endpoint& endpoint) {
  ClientConfig config;
  config.endpoint = endpoint;
  config.reply_timeout_ms = 30000;
  return config;
}

protocol::Submit pi_submit(std::uint64_t seed = 7, int np = 2) {
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Exemplar;
  submit.name = "pi";
  submit.np = np;
  submit.seed = seed;
  return submit;
}

protocol::Submit grade_submit(const std::string& id = "spmd~race#0@np4") {
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Grade;
  submit.name = id;
  submit.np = 4;
  submit.seed = 1;
  submit.source = "k=8 watchdog_ms=500";
  return submit;
}

protocol::Result run_job(Client& client, const protocol::Submit& submit) {
  const auto outcome = client.submit(submit);
  EXPECT_TRUE(outcome.accepted())
      << (outcome.reject ? outcome.reject->reason : "no reject either");
  if (!outcome.accepted()) return {};
  return client.wait_result(outcome.accept->job_id);
}

TEST(StoreServer, JournalsEveryTerminalResultBeforeTheAck) {
  const ScratchDir scratch("server-journal");
  const std::string& dir = scratch.path();
  Server server(store_config(dir));
  server.start();
  ASSERT_NE(server.store(), nullptr);
  Client client(client_config(server.endpoint()));

  const protocol::Result result = run_job(client, pi_submit(7));
  ASSERT_EQ(result.exit_code, 0) << result.error;

  // wait_result returned ⇒ the Result frame was acked ⇒ the record is
  // already durable: no flush, no stop(), no grace period.
  const auto results = server.store()->results();
  const auto it = results.find(protocol::digest(pi_submit(7)));
  ASSERT_NE(it, results.end());
  EXPECT_EQ(it->second.tenant, "ada");
  EXPECT_EQ(it->second.name, "pi");
  EXPECT_EQ(it->second.np, 2);
  EXPECT_EQ(it->second.exit_code, 0);
  EXPECT_EQ(it->second.output, result.output);
  EXPECT_TRUE(it->second.cacheable());
  EXPECT_GE(server.store()->wal_appends(), 1u);
  server.stop();
}

TEST(StoreServer, GradeVerdictsLandInTheGradeIndex) {
  const ScratchDir scratch("server-grade");
  const std::string& dir = scratch.path();
  Server server(store_config(dir));
  server.start();
  Client client(client_config(server.endpoint()));

  const protocol::Result result = run_job(client, grade_submit());
  ASSERT_EQ(result.exit_code, 0) << result.error;
  ASSERT_FALSE(result.output.empty());

  const auto grades = server.store()->grades();
  ASSERT_EQ(grades.size(), 1u);
  const store::GradeRecord& record = grades.begin()->second;
  EXPECT_EQ(record.cohort, "ada");  // the submitting tenant is the cohort
  EXPECT_EQ(record.mutant, "spmd~race#0@np4");
  // The journaled verdict is parsed back from the exact line the client
  // received — the store and the student read the same truth.
  EXPECT_NE(result.output[0].find(record.verdict), std::string::npos)
      << result.output[0];
  EXPECT_EQ(record.explored, 8u);  // k=8 schedules explored
  server.stop();
}

TEST(StoreServer, WarmStartServesRecoveredResultsWithoutReexecuting) {
  const ScratchDir scratch("server-warm");
  const std::string& dir = scratch.path();
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  std::map<std::uint64_t, protocol::Result> first_results;
  {
    Server server(store_config(dir));
    server.start();
    Client client(client_config(server.endpoint()));
    for (const std::uint64_t seed : seeds) {
      first_results[seed] = run_job(client, pi_submit(seed));
      ASSERT_EQ(first_results[seed].exit_code, 0);
    }
    ASSERT_EQ(server.executor().executions(), seeds.size());
    client.close();
    server.stop();
  }

  // The restarted server recovers the store and warms its cache: identical
  // resubmissions are cache hits with byte-identical output — zero
  // re-executions, the paper's "restart without losing the morning's work".
  Server server(store_config(dir));
  server.start();
  EXPECT_EQ(server.stats().warmed_results, seeds.size());
  Client client(client_config(server.endpoint()));
  for (const std::uint64_t seed : seeds) {
    const protocol::Result again = run_job(client, pi_submit(seed));
    EXPECT_TRUE(again.cached) << "seed " << seed;
    EXPECT_EQ(again.output, first_results[seed].output);
  }
  EXPECT_EQ(server.executor().executions(), 0u);
  EXPECT_EQ(server.stats().cache_hits, seeds.size());
  server.stop();
}

// Socket-mode config whose forked workers honour PDCLAB_TEST_HOLD_MS —
// the cancel scenario needs a job pinned in Running.
ServerConfig shard_store_config(const std::string& dir) {
  ServerConfig config = store_config(dir);
  config.workers = 1;
  config.exec_mode = ExecMode::Socket;
  config.shard.worker_bin = PDCLAB_TEST_BIN;
  config.shard.heartbeat_ms = 50;
  return config;
}

class HoldEnv {
 public:
  explicit HoldEnv(int ms) {
    ::setenv("PDCLAB_TEST_HOLD_MS", std::to_string(ms).c_str(), 1);
  }
  ~HoldEnv() { ::unsetenv("PDCLAB_TEST_HOLD_MS"); }
};

TEST(StoreServer, FailuresAreJournaledButNeverWarmed) {
  const ScratchDir scratch("server-failure");
  const std::string& dir = scratch.path();
  const std::uint64_t digest = protocol::digest(pi_submit(77));
  {
    std::unique_ptr<Server> server;
    {
      HoldEnv hold(5000);
      server = std::make_unique<Server>(shard_store_config(dir));
      server->start();
    }
    Client client(client_config(server->endpoint()));
    const auto accepted = client.submit(pi_submit(77));
    ASSERT_TRUE(accepted.accepted());
    const auto cancelled =
        client.cancel(accepted.accept->job_id, "hands-on", "ada");
    ASSERT_TRUE(cancelled.cancelled())
        << (cancelled.reject ? cancelled.reject->reason : "");
    ASSERT_EQ(client.wait_result(accepted.accept->job_id).exit_code, 130);

    // The exit-130 Result was journaled like any other terminal result...
    const auto results = server->store()->results();
    const auto it = results.find(digest);
    ASSERT_NE(it, results.end());
    EXPECT_EQ(it->second.exit_code, 130);
    EXPECT_FALSE(it->second.cacheable());
    client.close();
    server->stop();
  }

  // ...but a warm start must not serve it: the resubmission executes.
  Server server(store_config(dir));
  server.start();
  EXPECT_EQ(server.stats().warmed_results, 0u);
  Client client(client_config(server.endpoint()));
  const protocol::Result rerun = run_job(client, pi_submit(77));
  EXPECT_EQ(rerun.exit_code, 0) << rerun.error;
  EXPECT_FALSE(rerun.cached);
  EXPECT_EQ(server.executor().executions(), 1u);
  server.stop();
}

TEST(StoreServer, ReportStreamsTheStoresAggregates) {
  const ScratchDir scratch("server-report");
  const std::string& dir = scratch.path();
  Server server(store_config(dir));
  server.start();
  Client client(client_config(server.endpoint()));
  ASSERT_EQ(run_job(client, pi_submit(7)).exit_code, 0);
  ASSERT_EQ(run_job(client, grade_submit()).exit_code, 0);

  // The streamed aggregate is exactly the store's — same struct, same
  // Welford numbers, same histogram bins.
  const auto outcome = client.report("hands-on", "ada", "ada");
  ASSERT_TRUE(outcome.ok())
      << (outcome.reject ? outcome.reject->reason : "");
  ASSERT_EQ(outcome.cohorts.size(), 1u);
  EXPECT_EQ(outcome.cohorts[0].aggregate.cohort, "ada");
  EXPECT_EQ(outcome.cohorts[0].aggregate, server.store()->report("ada"));

  // "" = every cohort the store knows.
  const auto all = client.report("hands-on", "ada", "");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.cohorts.size(), server.store()->cohorts().size());

  // Reports authenticate like Submits.
  const auto bad = client.report("wrong-token", "ada", "ada");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.reject->code, RejectCode::BadToken);
  server.stop();
}

TEST(StoreServer, ReportWithoutAStoreIsAnHonestReject) {
  ServerConfig config = store_config("");
  config.store.dir.clear();  // the historic in-memory-only shape
  Server server(config);
  server.start();
  ASSERT_EQ(server.store(), nullptr);
  Client client(client_config(server.endpoint()));
  const auto outcome = client.report("hands-on", "ada", "ada");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.reject->code, RejectCode::BadRequest);
  server.stop();
}

TEST(StoreServer, ReportCliPrintsTheCanonicalRendering) {
  const ScratchDir scratch("server-cli");
  const std::string& dir = scratch.path();
  Server server(store_config(dir));
  server.start();
  Client client(client_config(server.endpoint()));
  ASSERT_EQ(run_job(client, grade_submit()).exit_code, 0);

  const std::string connect = " --connect unix:" + server.endpoint().path;
  const auto report =
      run_command(kBin + " report" + connect + " --tenant ada --cohort ada");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("cohort: ada"), std::string::npos)
      << report.output;
  EXPECT_NE(report.output.find("grades: 1"), std::string::npos)
      << report.output;

  const auto rejected = run_command(kBin + " report" + connect +
                                    " --tenant ada --token wrong");
  EXPECT_EQ(rejected.exit_code, 2) << rejected.output;
  server.stop();
}

TEST(StoreServer, SigtermMidLoadLosesNoAckedResult) {
  // The graceful-shutdown pin: a real `pdclab serve --store` process,
  // killed with SIGTERM while a client is actively submitting, exits
  // cleanly — and the store it leaves behind holds every Result whose
  // frame the client actually received.
  const ScratchDir scratch("server-sigterm");
  const std::string& dir = scratch.path();
  const net::Endpoint endpoint = unique_unix_endpoint();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string listen = "unix:" + endpoint.path;
    ::execl(kBin.c_str(), "pdclab", "serve", "--listen", listen.c_str(),
            "--store", dir.c_str(), "--workers", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Drive load until the SIGTERM cuts us off, recording the digest of
  // every Result frame received (received ⇒ the server acked ⇒ durable).
  std::vector<std::uint64_t> acked;
  std::thread load([&] {
    try {
      Client client(client_config(endpoint));
      for (std::uint64_t seed = 1; seed < 10000; ++seed) {
        const protocol::Submit submit = pi_submit(seed);
        const auto outcome = client.submit(submit);
        if (!outcome.accepted()) break;
        (void)client.wait_result(outcome.accept->job_id);
        acked.push_back(protocol::digest(submit));
      }
    } catch (const net::ConnectionError&) {
      // The shutdown refused the next exchange — expected.
    } catch (const net::PeerLost&) {
      // The shutdown cut the established session mid-send — expected.
    }
  });

  // Let some jobs complete, then SIGTERM mid-load.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "serve did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  load.join();
  ASSERT_FALSE(acked.empty()) << "no job completed before the SIGTERM";

  // Zero lost acked results after the restart-shaped recovery.
  store::StoreConfig recovered_config;
  recovered_config.dir = dir;
  store::Store recovered(recovered_config);
  const auto results = recovered.results();
  for (const std::uint64_t digest : acked) {
    EXPECT_EQ(results.count(digest), 1u) << "lost acked digest " << digest;
  }
}

}  // namespace
}  // namespace pdc::lab
