// pdclab CLI end-to-end tests: the exit-code contract a shell script (or a
// student's Makefile) can build on. Each scenario runs the real binary
// against a real in-process Server, the same fork/exec/pipe path a terminal
// uses:
//   submit: 0 job ran, 1 job failed on the server, 2 rejected, 3 transport
//   cancel: 0 the cancel took, 2 rejected
//   watch:  0 the job finished, 2 unknown job
//   usage errors are always 64.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "../net/net_test_util.hpp"
#include "lab/client.hpp"
#include "lab/server.hpp"
#include "net/socket.hpp"
#include "support/error.hpp"

namespace pdc::lab {
namespace {

using net_test::run_command;

const std::string kBin = PDCLAB_TEST_BIN;

net::Endpoint unique_unix_endpoint() {
  static std::atomic<int> counter{0};
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::Unix;
  endpoint.path = "/tmp/pdclab-cli-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

/// An inline-mode server on a fresh unix endpoint, started for one test.
ServerConfig inline_config() {
  ServerConfig config;
  config.endpoint = unique_unix_endpoint();
  config.workers = 1;
  return config;
}

std::string connect_arg(const Server& server) {
  return " --connect " + server.endpoint().to_string();
}

TEST(PdclabCli, NoArgumentsIsAUsageError) {
  const auto result = run_command(kBin);
  EXPECT_EQ(result.exit_code, 64);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(PdclabCli, UnknownModeIsAUsageError) {
  EXPECT_EQ(run_command(kBin + " frobnicate").exit_code, 64);
  EXPECT_EQ(run_command(kBin + " submit --tenant ada patternlet spmd")
                .exit_code,
            64);  // no --connect
  EXPECT_EQ(run_command(kBin + " cancel --connect unix:/tmp/x.sock").exit_code,
            64);  // no --tenant/--job
  EXPECT_EQ(run_command(kBin + " worker --slot 0").exit_code,
            64);  // no --connect
}

TEST(PdclabCli, SubmitRunsAJobAndExitsZero) {
  Server server(inline_config());
  server.start();
  const auto result = run_command(kBin + " submit" + connect_arg(server) +
                                  " --tenant ada patternlet spmd --np 2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("Greetings"), std::string::npos);
  server.stop();
}

TEST(PdclabCli, RejectedSubmitExitsTwo) {
  Server server(inline_config());
  server.start();
  // Unknown program: admission rejects BadRequest — the contract is exit 2
  // with the reason on stderr, never a burned queue slot.
  const auto result = run_command(kBin + " submit" + connect_arg(server) +
                                  " --tenant ada patternlet no-such-program");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("rejected"), std::string::npos);

  // Wrong token is a reject too (BadToken; counts toward the lockout).
  const auto bad_token =
      run_command(kBin + " submit" + connect_arg(server) +
                  " --tenant ada --token wrong patternlet spmd --np 2");
  EXPECT_EQ(bad_token.exit_code, 2) << bad_token.output;
  EXPECT_NE(bad_token.output.find("bad-token"), std::string::npos);
  server.stop();
}

TEST(PdclabCli, UnreachableServerExitsThree) {
  // A listener that accepts and immediately hangs up: the dial succeeds,
  // the PDCN conversation does not — transport failures are exit 3.
  const net::Endpoint endpoint = unique_unix_endpoint();
  net::Socket listener = net::listen_at(endpoint, 1);
  std::thread closer([&listener] {
    try {
      net::Socket conn = net::accept_for(listener, std::chrono::seconds(10),
                                         "cli test");
      conn.shutdown_both();
    } catch (const Error&) {
    }
  });
  const auto result =
      run_command(kBin + " submit --connect " + endpoint.to_string() +
                  " --tenant ada patternlet spmd --np 2");
  closer.join();
  EXPECT_EQ(result.exit_code, 3) << result.output;
  ::unlink(endpoint.path.c_str());
}

TEST(PdclabCli, CancelUnknownJobExitsTwo) {
  Server server(inline_config());
  server.start();
  const auto result = run_command(kBin + " cancel" + connect_arg(server) +
                                  " --tenant ada --job 424242");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("rejected"), std::string::npos);
  server.stop();
}

TEST(PdclabCli, CancelQueuedJobExitsZero) {
  // One worker, and its first job held by the worker-side test hook, so the
  // second submission is deterministically still Queued when the cancel
  // lands. Socket mode: the hold hook lives in the forked worker.
  ::setenv("PDCLAB_TEST_HOLD_MS", "5000", 1);
  ServerConfig config = inline_config();
  config.exec_mode = ExecMode::Socket;
  config.shard.worker_bin = kBin;
  Server server(config);
  server.start();
  ::unsetenv("PDCLAB_TEST_HOLD_MS");

  ClientConfig client_config;
  client_config.endpoint = server.endpoint();
  Client client(client_config);
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = protocol::JobKind::Patternlet;
  submit.name = "spmd";
  submit.np = 2;
  const auto blocker = client.submit(submit);
  ASSERT_TRUE(blocker.accepted());
  submit.name = "barrier";  // distinct digest; never a cache hit
  const auto queued = client.submit(submit);
  ASSERT_TRUE(queued.accepted());

  const auto cancel = run_command(
      kBin + " cancel" + connect_arg(server) + " --tenant ada --job " +
      std::to_string(queued.accept->job_id));
  EXPECT_EQ(cancel.exit_code, 0) << cancel.output;
  EXPECT_NE(cancel.output.find("cancelled"), std::string::npos);

  // The Accept promised a terminal Result; cancellation delivers exit 130.
  const auto result = client.wait_result(queued.accept->job_id);
  EXPECT_EQ(result.exit_code, 130);

  // watch on the cancelled job: terminal, exit 0.
  const auto watch = run_command(kBin + " watch" + connect_arg(server) +
                                 " --job " +
                                 std::to_string(queued.accept->job_id));
  EXPECT_EQ(watch.exit_code, 0) << watch.output;

  // Cancel the held blocker too (kills its worker process) so stop() does
  // not have to sit out the rest of the hold.
  const auto outcome =
      client.cancel(blocker.accept->job_id, "hands-on", "ada");
  EXPECT_TRUE(outcome.cancelled());
  EXPECT_EQ(client.wait_result(blocker.accept->job_id).exit_code, 130);
  server.stop();
}

TEST(PdclabCli, WatchFollowsAJobToDoneAndUnknownJobExitsTwo) {
  Server server(inline_config());
  server.start();
  ClientConfig client_config;
  client_config.endpoint = server.endpoint();
  Client client(client_config);
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = protocol::JobKind::Exemplar;
  submit.name = "pi";
  submit.np = 2;
  submit.seed = 11;
  const auto outcome = client.submit(submit);
  ASSERT_TRUE(outcome.accepted());
  const auto result = client.wait_result(outcome.accept->job_id);
  ASSERT_EQ(result.exit_code, 0) << result.error;

  const auto watch = run_command(kBin + " watch" + connect_arg(server) +
                                 " --job " +
                                 std::to_string(outcome.accept->job_id));
  EXPECT_EQ(watch.exit_code, 0) << watch.output;
  EXPECT_NE(watch.output.find("done"), std::string::npos);

  const auto unknown = run_command(kBin + " watch" + connect_arg(server) +
                                   " --job 999999");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
  server.stop();
}

TEST(PdclabCli, StreamedSubmitPrintsTheOutputExactlyOnce) {
  // Socket mode so the worker actually streams; --stream must not reprint
  // the terminal Result's copy of the lines after the live ones.
  ServerConfig config = inline_config();
  config.exec_mode = ExecMode::Socket;
  config.shard.worker_bin = kBin;
  Server server(config);
  server.start();
  const auto result =
      run_command(kBin + " submit" + connect_arg(server) +
                  " --tenant ada patternlet spmd --np 2 --stream");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  std::size_t count = 0;
  for (std::size_t at = result.output.find("Greetings");
       at != std::string::npos; at = result.output.find("Greetings", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 2u) << result.output;
  server.stop();
}

}  // namespace
}  // namespace pdc::lab
