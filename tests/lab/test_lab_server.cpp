// End-to-end lab server tests over real sockets: submit → Accept → Result,
// cache correctness, the eager-beaver firewall (lockout AND expiry), quota
// rejection, hostile frames from raw connections, mid-submit disconnects,
// notebook isolation, and shutdown draining. Every scenario runs a real
// Server on a unix (or TCP) endpoint and speaks PDCN frames to it.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lab/client.hpp"
#include "lab/server.hpp"
#include "net/errors.hpp"
#include "net/socket.hpp"

namespace pdc::lab {
namespace {

using protocol::JobKind;
using protocol::JobState;
using protocol::RejectCode;

net::Endpoint unique_unix_endpoint() {
  static std::atomic<int> counter{0};
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::Unix;
  endpoint.path = "/tmp/pdclab-test-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
  return endpoint;
}

ServerConfig test_config() {
  ServerConfig config;
  config.endpoint = unique_unix_endpoint();
  config.workers = 2;
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

/// Submit + wait, asserting admission succeeded.
protocol::Result run_job(Client& client, const protocol::Submit& submit) {
  const auto outcome = client.submit(submit);
  EXPECT_TRUE(outcome.accepted())
      << (outcome.reject ? outcome.reject->reason : "no reject either");
  if (!outcome.accepted()) return {};
  return client.wait_result(outcome.accept->job_id);
}

TEST(LabServer, SubmitRunsAndReturnsTheProgramOutput) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  const protocol::Result result = run_job(client, pi_submit());
  EXPECT_EQ(result.exit_code, 0) << result.error;
  EXPECT_FALSE(result.cached);
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_NE(result.output[0].find("pi ~="), std::string::npos);
  EXPECT_NE(result.output[0].find("seed 7"), std::string::npos);

  // The wire path returns exactly what a direct execution produces.
  const Executor direct;
  EXPECT_EQ(result.output, direct.execute(pi_submit()).output);
}

TEST(LabExecutor, PiOutputMatchesGoldenLines) {
  // The lab's pi program, captured from the scalar dart loop: the
  // class-replay assignment (seeds 100..103 at np 2) plus np 4 and np 8.
  // A cached Result from an older server must keep matching a fresh run.
  struct Golden {
    std::uint64_t seed;
    int np;
    const char* line;
  };
  constexpr Golden kGolden[] = {
      {100, 2, "pi ~= 3.137695 (12852/16384 darts, seed 100)"},
      {101, 2, "pi ~= 3.133789 (12836/16384 darts, seed 101)"},
      {102, 2, "pi ~= 3.147461 (12892/16384 darts, seed 102)"},
      {103, 2, "pi ~= 3.134277 (12838/16384 darts, seed 103)"},
      {104, 4, "pi ~= 3.136108 (25691/32768 darts, seed 104)"},
      {105, 8, "pi ~= 3.142212 (51482/65536 darts, seed 105)"},
  };
  const Executor executor;
  for (const Golden& golden : kGolden) {
    const protocol::Result result =
        executor.execute(pi_submit(golden.seed, golden.np));
    EXPECT_EQ(result.exit_code, 0) << result.error;
    EXPECT_EQ(result.output, std::vector<std::string>{golden.line});
  }
}

TEST(LabServer, IdenticalSubmissionIsServedFromCacheWithoutExecuting) {
  Server server(test_config());
  server.start();

  protocol::Result first;
  {
    Client client(client_config(server.endpoint()));
    first = run_job(client, pi_submit());
  }
  ASSERT_EQ(first.exit_code, 0) << first.error;
  ASSERT_EQ(server.executor().executions(), 1u);

  // A different student (token/tenant differ) submits the same job from a
  // fresh connection: byte-identical output, no second execution.
  protocol::Submit same = pi_submit();
  same.tenant = "grace";
  Client client(client_config(server.endpoint()));
  const protocol::Result second = run_job(client, same);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(server.executor().executions(), 1u);
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(LabServer, DistinctSeedsExecuteSeparately) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  const protocol::Result a = run_job(client, pi_submit(7));
  const protocol::Result b = run_job(client, pi_submit(8));
  EXPECT_FALSE(a.cached);
  EXPECT_FALSE(b.cached);
  EXPECT_NE(a.output, b.output);  // the seed feeds the dart RNG
  EXPECT_EQ(server.executor().executions(), 2u);
  EXPECT_EQ(server.cache().hits(), 0u);
}

protocol::Submit grade_submit(const std::string& id = "spmd~race#0@np4") {
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Grade;
  submit.name = id;  // the MutantSpec id; its @npN is the world size
  submit.np = 4;
  submit.seed = 1;   // schedule seed base
  submit.source = "k=8 watchdog_ms=500";
  return submit;
}

TEST(LabServer, GradeJobRunsEndToEndAndCaches) {
  Server server(test_config());
  server.start();

  protocol::Result first;
  {
    Client client(client_config(server.endpoint()));
    first = run_job(client, grade_submit());
  }
  ASSERT_EQ(first.exit_code, 0) << first.error;
  ASSERT_FALSE(first.output.empty());
  // The pinned acceptance mutant: a seeded race that matches some schedules
  // but not all, so the lab-served verdict must be flaky — never pass.
  EXPECT_NE(first.output[0].find("spmd~race#0@np4: flaky matched="),
            std::string::npos)
      << first.output[0];

  // The wire path returns exactly what a direct execution produces.
  const Executor direct;
  EXPECT_EQ(first.output, direct.execute(grade_submit()).output);

  // Another student resubmitting the same mutant hits the result cache:
  // the grade line is deterministic, so one exploration serves the class.
  protocol::Submit same = grade_submit();
  same.tenant = "grace";
  Client client(client_config(server.endpoint()));
  const protocol::Result second = run_job(client, same);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.output, first.output);
  EXPECT_EQ(server.executor().executions(), 1u);
}

TEST(LabServer, GradeDeadlockIsClassifiedHangNotAServerStall) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit submit = grade_submit("ring~deadlock#0@np4");
  submit.source = "k=2 watchdog_ms=100";  // a short leash keeps the test fast
  const protocol::Result result = run_job(client, submit);
  EXPECT_EQ(result.exit_code, 0) << result.error;
  ASSERT_FALSE(result.output.empty());
  EXPECT_NE(result.output[0].find(": hang"), std::string::npos)
      << result.output[0];
}

TEST(LabServer, GradeBadRequestsAreRejectedBeforeTheQueue) {
  ServerConfig config = test_config();
  config.executor.max_np = 4;
  Server server(config);
  server.start();
  Client client(client_config(server.endpoint()));

  const auto expect_bad_request = [&](const protocol::Submit& submit) {
    const auto outcome = client.submit(submit);
    ASSERT_FALSE(outcome.accepted()) << submit.name << " " << submit.source;
    EXPECT_EQ(outcome.reject->code, RejectCode::BadRequest);
  };

  expect_bad_request(grade_submit("not-a-mutant-id"));
  expect_bad_request(grade_submit("no-such-base~clean#0@np4"));
  expect_bad_request(grade_submit("spmd~clean#0@np8"));  // np > max_np
  protocol::Submit bad_k = grade_submit();
  bad_k.source = "k=1";  // one schedule cannot support a grade
  expect_bad_request(bad_k);
  protocol::Submit unknown_option = grade_submit();
  unknown_option.source = "turbo=9";
  expect_bad_request(unknown_option);

  EXPECT_EQ(server.executor().executions(), 0u);
}

TEST(LabServer, UnknownProgramIsBadRequestBeforeTheQueue) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit bogus = pi_submit();
  bogus.name = "no-such-exemplar";
  const auto outcome = client.submit(bogus);
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.reject->code, RejectCode::BadRequest);
  EXPECT_EQ(server.executor().executions(), 0u);
  EXPECT_EQ(server.cache().size(), 0u);
}

TEST(LabServer, NonPositiveNpIsBadRequestForEveryJobKind) {
  // Regression: the wire clamp checked np <= kMaxProcs but Notebook (which
  // otherwise ignores np) skipped the np >= 1 check entirely, so
  // `--np 0 notebook` was accepted. Admission now names the field for
  // every kind.
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  const auto expect_np_bad_request = [&](protocol::Submit submit) {
    for (const int np : {0, -3}) {
      submit.np = np;
      const auto outcome = client.submit(submit);
      ASSERT_FALSE(outcome.accepted())
          << protocol::job_kind_name(submit.kind) << " np=" << np;
      EXPECT_EQ(outcome.reject->code, RejectCode::BadRequest);
      EXPECT_NE(outcome.reject->reason.find("np"), std::string::npos)
          << outcome.reject->reason;
    }
  };

  expect_np_bad_request(pi_submit());  // Exemplar
  protocol::Submit patternlet = pi_submit();
  patternlet.kind = JobKind::Patternlet;
  patternlet.name = "spmd";
  expect_np_bad_request(patternlet);
  protocol::Submit notebook = pi_submit();
  notebook.kind = JobKind::Notebook;
  notebook.name = "";
  notebook.source = "print('hi')";
  expect_np_bad_request(notebook);
  expect_np_bad_request(grade_submit());

  EXPECT_EQ(server.executor().executions(), 0u);
}

TEST(LabServer, StatusReportsLifecycleAndUnknownJobs) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  const auto outcome = client.submit(pi_submit());
  ASSERT_TRUE(outcome.accepted());
  const std::uint64_t job_id = outcome.accept->job_id;
  (void)client.wait_result(job_id);
  EXPECT_EQ(client.query_status(job_id).state, JobState::Done);
  EXPECT_EQ(client.query_status(999999).state, JobState::Unknown);
}

TEST(LabServer, QuotaFullIsRejectedNotQueued) {
  ServerConfig config = test_config();
  config.queue.max_queued_per_tenant = 0;  // nothing may queue
  Server server(std::move(config));
  server.start();
  Client client(client_config(server.endpoint()));

  const auto outcome = client.submit(pi_submit());
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.reject->code, RejectCode::QuotaFull);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.executor().executions(), 0u);
}

TEST(LabServer, RepeatedBadTokensTripTheLockoutAndItExpires) {
  // The paper's eager-beaver incident as a regression test: three wrong
  // tokens lock the tenant out; the RIGHT token no longer helps while the
  // block is active; the block lapses once the (hand-cranked) clock passes
  // the lockout window.
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  ServerConfig config = test_config();
  config.firewall = {/*max_failures=*/3, /*lockout_minutes=*/30.0};
  config.now_minutes = [clock] { return clock->load(); };
  Server server(std::move(config));
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit bad = pi_submit();
  bad.token = "wrong";
  auto outcome = client.submit(bad);
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.reject->code, RejectCode::BadToken);
  outcome = client.submit(bad);
  EXPECT_EQ(outcome.reject->code, RejectCode::BadToken);
  outcome = client.submit(bad);
  EXPECT_EQ(outcome.reject->code, RejectCode::LockedOut);  // third strike
  EXPECT_EQ(server.stats().lockouts, 1u);

  // The correct token does not lift an active block (what confused the
  // workshop participants).
  outcome = client.submit(pi_submit());
  EXPECT_EQ(outcome.reject->code, RejectCode::LockedOut);
  EXPECT_EQ(server.executor().executions(), 0u);

  // 31 minutes later the block has lapsed and the tenant is served again.
  clock->store(31.0);
  const protocol::Result result = run_job(client, pi_submit());
  EXPECT_EQ(result.exit_code, 0) << result.error;
}

TEST(LabServer, SuccessfulAuthResetsTheFailureCounter) {
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  ServerConfig config = test_config();
  config.now_minutes = [clock] { return clock->load(); };
  Server server(std::move(config));
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit bad = pi_submit(/*seed=*/1, /*np=*/1);
  bad.token = "wrong";
  EXPECT_EQ(client.submit(bad).reject->code, RejectCode::BadToken);
  EXPECT_EQ(client.submit(bad).reject->code, RejectCode::BadToken);
  // A correct login between failures resets the count...
  EXPECT_EQ(run_job(client, pi_submit(/*seed=*/1, /*np=*/1)).exit_code, 0);
  // ...so two more failures are still BadToken, not the third strike.
  EXPECT_EQ(client.submit(bad).reject->code, RejectCode::BadToken);
  EXPECT_EQ(client.submit(bad).reject->code, RejectCode::BadToken);
  EXPECT_EQ(server.stats().lockouts, 0u);
}

TEST(LabServer, SubmitCancelAndReportShareOneAuthWall) {
  // Submit, Cancel and Report pass the same token/firewall wall: a bad
  // token on any verb is a strike toward one lockout, a good token on any
  // verb clears the strikes, and a locked-out tenant is refused on all three.
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  ServerConfig config = test_config();
  config.firewall = {/*max_failures=*/3, /*lockout_minutes=*/30.0};
  config.now_minutes = [clock] { return clock->load(); };
  Server server(std::move(config));
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit bad_submit = pi_submit();
  bad_submit.token = "wrong";
  const auto expect_bad_token = [](const std::optional<protocol::Reject>& r) {
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->code, RejectCode::BadToken);
    EXPECT_EQ(r->reason, "wrong auth token");
  };

  // Two strikes from Cancel and Report; a good Report clears them (it then
  // fails past the wall: this server has no store).
  expect_bad_token(client.cancel(1, "wrong", "ada").reject);
  expect_bad_token(client.report("wrong", "ada", "").reject);
  auto report = client.report("hands-on", "ada", "");
  ASSERT_TRUE(report.reject.has_value());
  EXPECT_EQ(report.reject->code, RejectCode::BadRequest);

  // Two more strikes; a good Cancel of an unknown job clears them.
  expect_bad_token(client.cancel(1, "wrong", "ada").reject);
  expect_bad_token(client.submit(bad_submit).reject);
  auto cancel = client.cancel(999999, "hands-on", "ada");
  ASSERT_TRUE(cancel.reject.has_value());
  EXPECT_EQ(cancel.reject->code, RejectCode::BadRequest);
  EXPECT_EQ(cancel.reject->reason, "no such job for this tenant");

  // Two more strikes; a good Submit clears them.
  expect_bad_token(client.report("wrong", "ada", "").reject);
  expect_bad_token(client.cancel(1, "wrong", "ada").reject);
  EXPECT_EQ(run_job(client, pi_submit()).exit_code, 0);
  EXPECT_EQ(server.stats().lockouts, 0u);

  // One strike per verb is the third strike.
  expect_bad_token(client.submit(bad_submit).reject);
  expect_bad_token(client.report("wrong", "ada", "").reject);
  cancel = client.cancel(1, "wrong", "ada");
  ASSERT_TRUE(cancel.reject.has_value());
  EXPECT_EQ(cancel.reject->code, RejectCode::LockedOut);
  EXPECT_EQ(cancel.reject->reason, "too many bad tokens; tenant locked out");
  EXPECT_EQ(server.stats().lockouts, 1u);

  // Locked out: the right token is refused on every verb, and further bad
  // tokens do not count a second lockout.
  const auto outcome = client.submit(pi_submit());
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.reject->code, RejectCode::LockedOut);
  EXPECT_EQ(outcome.reject->reason,
            "tenant is locked out (the VNC-firewall incident; wait for the "
            "block to lapse or ask staff to unblock)");
  cancel = client.cancel(1, "hands-on", "ada");
  ASSERT_TRUE(cancel.reject.has_value());
  EXPECT_EQ(cancel.reject->code, RejectCode::LockedOut);
  EXPECT_EQ(cancel.reject->reason, "tenant is locked out");
  report = client.report("hands-on", "ada", "");
  ASSERT_TRUE(report.reject.has_value());
  EXPECT_EQ(report.reject->code, RejectCode::LockedOut);
  EXPECT_EQ(report.reject->reason, "tenant is locked out");
  EXPECT_EQ(client.report("wrong", "ada", "").reject->code,
            RejectCode::LockedOut);
  EXPECT_EQ(server.stats().lockouts, 1u);

  // The block lapses for every verb at once.
  clock->store(31.0);
  EXPECT_EQ(client.cancel(999999, "hands-on", "ada").reject->code,
            RejectCode::BadRequest);
  EXPECT_EQ(run_job(client, pi_submit(/*seed=*/8)).exit_code, 0);
}

TEST(LabServer, MidSubmitDisconnectLeavesTheServerServing) {
  Server server(test_config());
  server.start();
  {
    // A client that promises a 100-byte Submit body, sends 10, and vanishes.
    net::Socket raw =
        net::dial(server.endpoint(), 10, std::chrono::milliseconds(1000),
                  std::chrono::milliseconds(1), "hostile");
    mp::Bytes partial = wire::encode_header(wire::FrameKind::Submit, 100);
    partial.resize(partial.size() + 10);  // 10 of the 100 body bytes
    net::send_all(raw, partial, nullptr, false, "hostile");
  }  // raw closes here, mid-message

  // The server shrugged it off; a well-behaved student is unaffected.
  Client client(client_config(server.endpoint()));
  EXPECT_EQ(run_job(client, pi_submit()).exit_code, 0);
  server.stop();
  EXPECT_EQ(server.stats().lost_results, 0u);
}

/// Write `frame` on a raw connection and return the server's one reply
/// frame (or nullopt if the server just dropped the connection).
std::optional<protocol::Reject> poke(const net::Endpoint& endpoint,
                                     const mp::Bytes& frame) {
  net::Socket raw = net::dial(endpoint, 10, std::chrono::milliseconds(1000),
                              std::chrono::milliseconds(1), "hostile");
  net::send_all(raw, frame, nullptr, false, "hostile");
  wire::Header header;
  mp::Bytes body;
  try {
    if (!net::recv_frame_for(raw, &header, &body,
                             std::chrono::milliseconds(10000), "hostile")) {
      return std::nullopt;  // dropped without a reply
    }
  } catch (const Error&) {
    return std::nullopt;
  }
  EXPECT_EQ(header.kind, wire::FrameKind::Reject);
  return protocol::decode_reject(body);
}

TEST(LabServer, HostileSubmitFramesGetBadRequestAndNeverKillTheServer) {
  Server server(test_config());
  server.start();

  // (a) A Submit frame whose body is truncated garbage.
  {
    mp::Bytes frame = wire::encode_header(wire::FrameKind::Submit, 3);
    frame.resize(frame.size() + 3);  // three zero bytes, not a Submit body
    const auto reject = poke(server.endpoint(), frame);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->code, RejectCode::BadRequest);
  }
  // (b) An unknown frame kind: rejected at the header.
  {
    mp::Bytes frame;
    wire::put_u32(frame, wire::kMagic);
    wire::put_u16(frame, wire::kVersion);
    wire::put_u16(frame, 14);  // one past Report
    wire::put_u32(frame, 0);
    const auto reject = poke(server.endpoint(), frame);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->code, RejectCode::BadRequest);
  }
  // (c) Wrong magic: not a PDCN peer at all.
  {
    mp::Bytes frame;
    wire::put_u32(frame, 0xdeadbeef);
    wire::put_u16(frame, wire::kVersion);
    wire::put_u16(frame, 6);
    wire::put_u32(frame, 0);
    const auto reject = poke(server.endpoint(), frame);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->code, RejectCode::BadRequest);
  }
  // (d) A Submit header promising a 2 MiB body: over the control-frame
  // clamp, rejected before the body is read or allocated.
  {
    mp::Bytes frame;
    wire::put_u32(frame, wire::kMagic);
    wire::put_u16(frame, wire::kVersion);
    wire::put_u16(frame, 6);  // Submit
    wire::put_u32(frame, 2u << 20);
    const auto reject = poke(server.endpoint(), frame);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->code, RejectCode::BadRequest);
  }

  // After all four attacks the server still serves.
  Client client(client_config(server.endpoint()));
  EXPECT_EQ(run_job(client, pi_submit()).exit_code, 0);
  EXPECT_EQ(server.stats().rejected, 4u);
}

TEST(LabServer, OversizedSourcePayloadIsRejectedNotExecuted) {
  Server server(test_config());
  server.start();

  protocol::Submit submit = pi_submit();
  submit.kind = JobKind::Notebook;
  submit.name.clear();
  submit.source.assign(protocol::kMaxSourceBytes + 1, 'x');  // one over
  // The client's own encoder refuses to send it...
  EXPECT_THROW((void)protocol::encode_submit(submit), net::ProtocolError);

  // ...so forge what a hostile client sends: the source at the clamp plus
  // one byte, with the source length and the header's body length bumped.
  submit.source.pop_back();
  mp::Bytes frame = protocol::encode_submit(submit);
  frame.push_back(std::byte{'x'});
  const auto patch_u32 = [&frame](std::size_t at, std::size_t value) {
    for (std::size_t i = 0; i < 4; ++i) {
      frame[at + i] = static_cast<std::byte>(value >> (8 * i));
    }
  };
  patch_u32(8, frame.size() - wire::kHeaderBytes);  // header body_len
  patch_u32(frame.size() - 5 - protocol::kMaxSourceBytes,
            protocol::kMaxSourceBytes + 1);  // the source's length prefix
  const auto reject = poke(server.endpoint(), frame);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(reject->code, RejectCode::BadRequest);
  EXPECT_EQ(server.executor().executions(), 0u);
}

// ---- results past the frame's clamps --------------------------------------
// A notebook cell can print more than a Result frame carries. The executor
// fits the Result where it is formed, so the client decodes it and a shard
// worker's answer costs the pool one attempt, not three.

protocol::Submit notebook_submit(const std::string& source) {
  protocol::Submit cell;
  cell.token = "hands-on";
  cell.tenant = "ada";
  cell.kind = JobKind::Notebook;
  cell.source = source;
  return cell;
}

/// `!cat` of a 5000-byte file name: one 5032-byte error line.
protocol::Submit long_line_cell() {
  return notebook_submit("!cat " + std::string(5000, 'x'));
}

/// 5000 `!cat a` lines: 5000 output lines.
protocol::Submit many_lines_cell() {
  std::string source;
  for (int i = 0; i < 5000; ++i) source += "!cat a\n";
  return notebook_submit(source);
}

void expect_truncated(const protocol::Result& result) {
  EXPECT_EQ(result.exit_code, 0) << result.error;
  ASSERT_FALSE(result.output.empty());
  EXPECT_LE(result.output.size(), protocol::kMaxOutputLines);
  for (const std::string& line : result.output) {
    EXPECT_LE(line.size(), protocol::kMaxLineBytes);
  }
  EXPECT_EQ(result.output.back().rfind("[output truncated: kept ", 0), 0u)
      << result.output.back();
}

TEST(LabServer, OversizedNotebookOutputIsTruncatedNotUndecodable) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  const protocol::Result long_line = run_job(client, long_line_cell());
  expect_truncated(long_line);
  ASSERT_EQ(long_line.output.size(), 2u);  // the cut line, then the marker
  EXPECT_EQ(long_line.output[0].size(), protocol::kMaxLineBytes);

  const protocol::Result many = run_job(client, many_lines_cell());
  expect_truncated(many);
  EXPECT_EQ(many.output.size(), protocol::kMaxOutputLines);
  EXPECT_EQ(many.output.back(),
            "[output truncated: kept 4095 of 5000 lines, 0 cut to 4096 bytes]");
}

TEST(LabServer, LongRejectReasonIsCutToTheWireClamp) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  // The grade-option error quotes the option's value back.
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Grade;
  submit.name = "spmd~race#0@np4";
  submit.source = "k=" + std::string(3000, '9');
  const auto outcome = client.submit(submit);
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.reject->code, RejectCode::BadRequest);
  EXPECT_EQ(outcome.reject->reason.size(), protocol::kMaxReasonBytes);
}

TEST(LabServer, NotebookJobsGetAFreshEngineEachTime) {
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));

  protocol::Submit cell;
  cell.token = "hands-on";
  cell.tenant = "ada";
  cell.kind = JobKind::Notebook;
  cell.source = "%%writefile 00spmd.py\nfrom mpi4py import MPI\n";

  const protocol::Result first = run_job(client, cell);
  ASSERT_EQ(first.exit_code, 0) << first.error;
  ASSERT_EQ(first.output.size(), 1u);
  EXPECT_EQ(first.output[0], "Writing 00spmd.py");

  // A different seed dodges the cache; the output is "Writing", not
  // "Overwriting" — the second job's engine never saw the first's file.
  cell.seed = 2;
  const protocol::Result second = run_job(client, cell);
  ASSERT_EQ(second.exit_code, 0) << second.error;
  EXPECT_FALSE(second.cached);
  ASSERT_EQ(second.output.size(), 1u);
  EXPECT_EQ(second.output[0], "Writing 00spmd.py");
}

TEST(LabServer, ServesOverTcpToo) {
  ServerConfig config = test_config();
  config.endpoint.kind = net::Endpoint::Kind::Tcp;
  config.endpoint.host = "127.0.0.1";
  config.endpoint.port = 0;  // ephemeral; parse() rejects 0 on purpose
  Server server(std::move(config));
  server.start();
  ASSERT_NE(server.endpoint().port, 0);  // ephemeral port resolved

  Client client(client_config(server.endpoint()));
  const protocol::Result result = run_job(client, pi_submit());
  EXPECT_EQ(result.exit_code, 0) << result.error;
}

TEST(LabServer, StopDeliversATerminalResultForEveryAcceptedJob) {
  ServerConfig config = test_config();
  config.workers = 1;
  Server server(std::move(config));
  server.start();
  Client client(client_config(server.endpoint()));

  std::vector<std::uint64_t> job_ids;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto outcome = client.submit(pi_submit(seed));
    ASSERT_TRUE(outcome.accepted());
    job_ids.push_back(outcome.accept->job_id);
  }
  server.stop();  // drains: runs or shutdown-fails everything accepted

  std::uint64_t shutdown_results = 0;
  for (const std::uint64_t job_id : job_ids) {
    const protocol::Result result = client.wait_result(job_id);
    EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 3)
        << "job " << job_id << " exit " << result.exit_code;
    if (result.exit_code == 3) ++shutdown_results;
  }
  // Every accepted job is counted once as completed or failed, and the only
  // failures are the shutdown Results the client received.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, job_ids.size());
  EXPECT_EQ(stats.accepted, stats.completed + stats.failed);
  EXPECT_EQ(stats.failed, shutdown_results);
}

TEST(LabServer, StopIsIdempotentAndUnlinksTheSocketPath) {
  ServerConfig config = test_config();
  const std::string path = config.endpoint.path;
  Server server(std::move(config));
  server.start();
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  server.stop();
  server.stop();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ---- the front end: fixed reader threads, replies that never block --------

/// Entries under a /proc/self directory: the process's threads ("task") or
/// its open file descriptors ("fd").
std::size_t proc_entries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

net::Socket raw_connection(const net::Endpoint& endpoint) {
  return net::dial(endpoint, 10, std::chrono::milliseconds(1000),
                   std::chrono::milliseconds(1), "raw");
}

TEST(LabServer, IdleConnectionsAddNoServerThreads) {
  Server server(test_config());
  server.start();
  const std::size_t threads = proc_entries("/proc/self/task");

  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 64; ++i) {
    idle.push_back(std::make_unique<Client>(client_config(server.endpoint())));
    // A Status round trip: the server has accepted this connection.
    EXPECT_EQ(idle.back()->query_status(999999).state, JobState::Unknown);
  }
  EXPECT_EQ(proc_entries("/proc/self/task"), threads);
  EXPECT_EQ(server.stats().sessions, 64u);
  server.stop();
}

TEST(LabServer, StalledPartialFramesDoNotDelayOtherClients) {
  Server server(test_config());
  server.start();
  {
    Client warm(client_config(server.endpoint()));
    ASSERT_EQ(run_job(warm, pi_submit()).exit_code, 0);  // now cached
  }

  // Half a header, or a whole header and half its body, then silence.
  // Several of each, so both readers hold some.
  const mp::Bytes submit = protocol::encode_submit(pi_submit());
  std::vector<net::Socket> stalled;
  for (int i = 0; i < 8; ++i) {
    const std::size_t cut =
        i % 2 == 0
            ? wire::kHeaderBytes / 2
            : wire::kHeaderBytes + (submit.size() - wire::kHeaderBytes) / 2;
    stalled.push_back(raw_connection(server.endpoint()));
    net::send_all(stalled.back(),
                  mp::Bytes(submit.begin(),
                            submit.begin() + static_cast<std::ptrdiff_t>(cut)),
                  nullptr, false, "staller");
  }

  for (int j = 0; j < 20; ++j) {
    const auto start = std::chrono::steady_clock::now();
    Client client(client_config(server.endpoint()));
    const protocol::Result result = run_job(client, pi_submit());
    EXPECT_TRUE(result.cached);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2))
        << "job " << j << " waited behind a stalled partial frame";
  }
  server.stop();
}

TEST(LabServer, ClientThatNeverReadsIsDroppedAtTheOutboxCap) {
  Server server(test_config());
  server.start();
  Client student(client_config(server.endpoint()));
  ASSERT_EQ(run_job(student, pi_submit()).exit_code, 0);
  // ~100 KiB of output, cached after this first run: every repeat below is
  // a cache hit whose Result lands in the flooder's outbox.
  ASSERT_EQ(run_job(student, many_lines_cell()).exit_code, 0);

  net::Socket flood = raw_connection(server.endpoint());
  const mp::Bytes submit = protocol::encode_submit(many_lines_cell());
  bool dropped = false;
  int sent = 0;
  for (; sent < 2000 && !dropped; ++sent) {
    try {
      net::send_all(flood, submit, nullptr, false, "flood");
    } catch (const net::PeerLost&) {
      dropped = true;
    }
    // Another student is served while the flooder's replies pile up.
    if (sent % 8 == 0) {
      EXPECT_TRUE(run_job(student, pi_submit()).cached) << "after " << sent;
    }
  }
  EXPECT_TRUE(dropped) << sent << " submits never filled the outbox";
  EXPECT_GT(server.stats().lost_results, 0u);
  EXPECT_TRUE(run_job(student, pi_submit()).cached);
  server.stop();
}

TEST(LabServer, ThousandsOfShortSessionsLeaveThreadsAndFdsFlat) {
  Server server(test_config());
  server.start();
  {
    Client warm(client_config(server.endpoint()));
    ASSERT_EQ(run_job(warm, pi_submit()).exit_code, 0);
  }
  const std::size_t threads = proc_entries("/proc/self/task");
  const std::size_t fds = proc_entries("/proc/self/fd");

  for (int i = 0; i < 10000; ++i) {
    Client client(client_config(server.endpoint()));
    ASSERT_TRUE(run_job(client, pi_submit()).cached) << "cycle " << i;
  }
  EXPECT_EQ(proc_entries("/proc/self/task"), threads);
  // A reader closes a session when its Bye arrives; the last few may still
  // be in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (proc_entries("/proc/self/fd") > fds &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(proc_entries("/proc/self/fd"), fds);
  EXPECT_EQ(server.stats().sessions, 10001u);
  server.stop();
}

TEST(LabServer, ClientSurfacesTypedErrorsFromAHostileServer) {
  const net::Endpoint endpoint = unique_unix_endpoint();
  net::Socket listener = net::listen_at(endpoint, 4);
  ClientConfig config = client_config(endpoint);
  config.reply_timeout_ms = 200;
  const auto serve_bytes = [&](const mp::Bytes& bytes, auto&& expect) {
    Client client(config);
    net::Socket conn = net::accept_for(
        listener, std::chrono::milliseconds(5000), "fake server");
    if (!bytes.empty()) net::send_all(conn, bytes, nullptr, false, "fake");
    // Bytes then EOF; the client can still send its query.
    if (!bytes.empty()) ::shutdown(conn.fd(), SHUT_WR);
    expect(client);
  };
  // Garbage where a header belongs.
  serve_bytes(mp::Bytes(wire::kHeaderBytes, std::byte{0x5a}), [](Client& c) {
    EXPECT_THROW((void)c.query_status(1), net::ProtocolError);
  });
  // A Status frame cut off mid-body, then the connection closes.
  const mp::Bytes status = protocol::encode_status(protocol::Status{});
  serve_bytes(mp::Bytes(status.begin(), status.end() - 2), [](Client& c) {
    EXPECT_THROW((void)c.query_status(1), net::PeerLost);
  });
  // Silence past the reply deadline.
  serve_bytes(mp::Bytes{}, [](Client& c) {
    EXPECT_THROW((void)c.query_status(1), net::ConnectionError);
  });
  ::unlink(endpoint.path.c_str());
}

// ---- cancellation --------------------------------------------------------
// The shard-pool scenarios need a job pinned in Running, so they run a
// Socket-mode server whose forked workers honour the PDCLAB_TEST_HOLD_MS
// hook. Inline-mode cancellation (queued only) is covered too.

/// A Socket-mode config whose forked workers hold each job for `hold_ms`.
/// The env var is read at dispatch time in the worker, which inherited the
/// environment at fork — so set it before start() and clear it after.
ServerConfig shard_config(int workers = 1) {
  ServerConfig config = test_config();
  config.workers = workers;
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

protocol::Submit patternlet_submit(const std::string& name, int np = 2) {
  protocol::Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Patternlet;
  submit.name = name;
  submit.np = np;
  return submit;
}

TEST(LabServer, ShardModeTruncatesOversizedOutputInOneAttempt) {
  Server server(shard_config());
  server.start();
  Client client(client_config(server.endpoint()));

  expect_truncated(run_job(client, long_line_cell()));
  expect_truncated(run_job(client, many_lines_cell()));
  // A worker whose Result the pool could not decode would be reaped and
  // respawned for the next attempt.
  ASSERT_NE(server.shard_pool(), nullptr);
  EXPECT_EQ(server.shard_pool()->executions(), 2u);
  EXPECT_EQ(server.shard_pool()->respawns(), 0u);
}

TEST(LabServer, CancelDequeuesAQueuedJobAndRefundsTheQuota) {
  std::unique_ptr<Server> server;
  {
    HoldEnv hold(8000);  // pin the blocker so the next job stays Queued
    ServerConfig config = shard_config(/*workers=*/1);
    config.queue.max_queued_per_tenant = 1;
    server = std::make_unique<Server>(std::move(config));
    server->start();
  }
  Client client(client_config(server->endpoint()));

  const auto blocker = client.submit(patternlet_submit("spmd"));
  ASSERT_TRUE(blocker.accepted());
  // The quota slot frees when the worker pops the blocker; wait until it is
  // Running so the next push deterministically lands in an empty queue.
  while (client.query_status(blocker.accept->job_id).state !=
         JobState::Running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto queued = client.submit(patternlet_submit("barrier"));
  ASSERT_TRUE(queued.accepted());

  // Quota of 1 is spent on the queued job...
  const auto refused = client.submit(patternlet_submit("master-worker"));
  ASSERT_FALSE(refused.accepted());
  EXPECT_EQ(refused.reject->code, RejectCode::QuotaFull);

  // ...until the cancel frees it: ack, terminal exit-130 Result, state Done.
  const auto cancelled = client.cancel(queued.accept->job_id, "hands-on",
                                       "ada");
  ASSERT_TRUE(cancelled.cancelled())
      << (cancelled.reject ? cancelled.reject->reason : "");
  EXPECT_EQ(client.wait_result(queued.accept->job_id).exit_code, 130);
  EXPECT_EQ(client.query_status(queued.accept->job_id).state, JobState::Done);

  const auto retry = client.submit(patternlet_submit("master-worker"));
  EXPECT_TRUE(retry.accepted());

  // A second cancel of the same (now finished) job is a Reject.
  const auto again = client.cancel(queued.accept->job_id, "hands-on", "ada");
  ASSERT_FALSE(again.cancelled());
  EXPECT_EQ(again.reject->code, RejectCode::BadRequest);

  // Cancel the running blocker (kills its worker process) and drain.
  const auto killed = client.cancel(blocker.accept->job_id, "hands-on", "ada");
  ASSERT_TRUE(killed.cancelled());
  EXPECT_EQ(client.wait_result(blocker.accept->job_id).exit_code, 130);
  EXPECT_EQ(client.wait_result(retry.accept->job_id).exit_code, 0);
  EXPECT_GE(server->stats().cancelled, 2u);
  server->stop();
}

TEST(LabServer, CancelIsFencedByTenantTokenAndExistence) {
  std::unique_ptr<Server> server;
  {
    HoldEnv hold(5000);
    server = std::make_unique<Server>(shard_config(/*workers=*/1));
    server->start();
  }
  Client ada(client_config(server->endpoint()));
  const auto running = ada.submit(patternlet_submit("spmd"));
  ASSERT_TRUE(running.accepted());
  const std::uint64_t job_id = running.accept->job_id;

  // Unknown job and a foreign tenant's probe answer identically — job ids
  // are sequential, so neither may confirm the job exists.
  Client eve(client_config(server->endpoint()));
  const auto unknown = eve.cancel(99999, "hands-on", "eve");
  ASSERT_FALSE(unknown.cancelled());
  EXPECT_EQ(unknown.reject->code, RejectCode::BadRequest);
  const auto foreign = eve.cancel(job_id, "hands-on", "eve");
  ASSERT_FALSE(foreign.cancelled());
  EXPECT_EQ(foreign.reject->code, RejectCode::BadRequest);
  EXPECT_EQ(foreign.reject->reason, unknown.reject->reason);

  // A wrong token is the firewall's business, like at admission.
  const auto bad_token = eve.cancel(job_id, "wrong", "ada");
  ASSERT_FALSE(bad_token.cancelled());
  EXPECT_EQ(bad_token.reject->code, RejectCode::BadToken);

  // The owner with the right token kills it for real.
  const auto owner = ada.cancel(job_id, "hands-on", "ada");
  ASSERT_TRUE(owner.cancelled());
  EXPECT_EQ(ada.wait_result(job_id).exit_code, 130);
  server->stop();
}

TEST(LabServer, CancelledJobIsNeverCached) {
  std::unique_ptr<Server> server;
  {
    HoldEnv hold(5000);
    server = std::make_unique<Server>(shard_config(/*workers=*/1));
    server->start();
  }
  Client client(client_config(server->endpoint()));
  const auto first = client.submit(pi_submit(77));
  ASSERT_TRUE(first.accepted());
  const auto cancelled = client.cancel(first.accept->job_id, "hands-on",
                                       "ada");
  ASSERT_TRUE(cancelled.cancelled());
  ASSERT_EQ(client.wait_result(first.accept->job_id).exit_code, 130);
  server->stop();

  // Same submission on a fresh (hold-free) server digest-matches the
  // cancelled one; within the first server a lookup would now miss too, but
  // the cheap in-process assertion is the cache stayed empty.
  EXPECT_EQ(server->cache().size(), 0u);
}

TEST(LabServer, CancelOfARunningInlineJobIsRejected) {
  // Inline mode runs jobs on server threads — there is no process to kill,
  // and the contract is an honest Reject, not a silent no-op. Each Cancel
  // is sent once the job has left Queued, so it lands while the job runs
  // or after it is Done; both must be rejected. (A Cancel of a still-Queued
  // job succeeds — that path has its own tests — so polling first keeps a
  // worker that waits for a CPU from turning this into a queued cancel.)
  Server server(test_config());
  server.start();
  Client client(client_config(server.endpoint()));
  Client side(client_config(server.endpoint()));
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const auto outcome = client.submit(pi_submit(seed));
    ASSERT_TRUE(outcome.accepted());
    const std::uint64_t job_id = outcome.accept->job_id;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (side.query_status(job_id).state == JobState::Queued) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "seed " << seed << ": no worker picked the job up in 10 s";
      std::this_thread::yield();
    }
    const auto cancelled = side.cancel(job_id, "hands-on", "ada");
    ASSERT_FALSE(cancelled.cancelled()) << "seed " << seed;
    EXPECT_EQ(cancelled.reject->code, RejectCode::BadRequest);
    EXPECT_EQ(client.wait_result(job_id).exit_code, 0);
  }
  server.stop();
}

TEST(LabServer, ShardModeSurvivesWorkerKillsMidLoad) {
  // The multi-process regression at server level: SIGKILL a live worker
  // process while jobs flow; every job still gets a terminal Result and the
  // fleet respawns. (The pool-level unit tests live in test_lab_shard.)
  Server server(shard_config(/*workers=*/2));
  server.start();
  Client client(client_config(server.endpoint()));

  std::vector<std::uint64_t> job_ids;
  for (std::uint64_t seed = 600; seed < 606; ++seed) {
    const auto outcome = client.submit(pi_submit(seed));
    ASSERT_TRUE(outcome.accepted());
    job_ids.push_back(outcome.accept->job_id);
  }
  for (const std::uint64_t job_id : job_ids) {
    const auto result = client.wait_result(job_id);
    EXPECT_EQ(result.exit_code, 0) << result.error;
  }
  EXPECT_EQ(server.stats().executed, 6u);
  server.stop();
}

}  // namespace
}  // namespace pdc::lab
