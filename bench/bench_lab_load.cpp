// Lab-server load driver: replay thousands of student sessions against a
// running pdc::lab::Server and report what the paper's remote-workshop
// story needs numbers for — jobs/sec through a bounded worker fleet, the
// p50/p99 submit-to-result latency a student terminal feels, and how much
// of the load the result cache absorbs (a class runs the SAME patternlets,
// so identical submissions dominate).
//
// Each replayed session is one student terminal: connect, submit one or
// two jobs, wait for the results, disconnect. A bounded pool of session
// threads drives `sessions` such replays concurrently. The driver asserts
// ZERO lost jobs — every accepted submission must produce a terminal
// Result — and exits nonzero otherwise, so the ctest entries double as a
// correctness gate.
//
// Output: a human table per worker-count row plus one machine-readable
//   LAB_LOAD workers=W sessions=N jobs=J jobs_per_sec=X p50_us=A p99_us=B
//            cache_hit_rate=H lost=0
// line per row (scripts/bench_snapshot parses these into BENCH_<n>.json).
//
// Scale: argv[1] (default 1). Scale 0 is the bench-smoke canary (a few
// dozen sessions, one worker row); scale N drives 1000*N sessions over a
// worker-count sweep.
//
// Mode: argv[2] "multiproc" serves the same replay through the shard pool
// (ExecMode::Socket — every execution in a forked worker process) with a
// chaos monkey SIGKILLing a live worker every 50 ms the whole run, each
// kill after the fleet answered one more job since the last. The
// zero-lost-jobs gate still applies: crash recovery (reap + respawn +
// redispatch) must be invisible to the student terminals. Machine line:
//   LAB_LOAD_MULTIPROC ... respawns=R kills=K lost=0

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lab/client.hpp"
#include "lab/server.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/text_table.hpp"
#include "support/timer.hpp"

namespace {

using pdc::lab::Client;
using pdc::lab::ClientConfig;
using pdc::lab::Server;
using pdc::lab::ServerConfig;
namespace protocol = pdc::lab::protocol;

constexpr const char* kToken = "hands-on";

pdc::net::Endpoint bench_endpoint(int worker_row) {
  pdc::net::Endpoint endpoint;
  endpoint.kind = pdc::net::Endpoint::Kind::Unix;
  endpoint.path = "/tmp/pdclab-bench-" + std::to_string(::getpid()) + "-" +
                  std::to_string(worker_row) + ".sock";
  return endpoint;
}

/// The submission mix for one session. A class of students mostly runs the
/// handful of jobs the instructor assigned (identical submissions → cache
/// hits); a minority tweaks the seed and pays for a real execution.
std::vector<protocol::Submit> session_jobs(int session_index) {
  std::vector<protocol::Submit> jobs;
  protocol::Submit submit;
  submit.token = kToken;
  submit.tenant = "student-" + std::to_string(session_index % 64);
  submit.kind = protocol::JobKind::Exemplar;
  submit.name = "pi";
  submit.np = 2;
  // 7 of 8 sessions replay one of 4 assigned seeds; the 8th explores.
  submit.seed = (session_index % 8 != 0)
                    ? 100 + static_cast<std::uint64_t>(session_index % 4)
                    : 10000 + static_cast<std::uint64_t>(session_index);
  jobs.push_back(submit);
  if (session_index % 2 == 0) {
    // Half the sessions also run the assigned spmd patternlet.
    protocol::Submit second = submit;
    second.kind = protocol::JobKind::Patternlet;
    second.name = "spmd";
    second.np = 4;
    second.seed = 0;
    jobs.push_back(second);
  }
  return jobs;
}

struct RowResult {
  int workers = 0;
  int sessions = 0;
  std::uint64_t jobs = 0;
  std::uint64_t lost = 0;     ///< accepted but never answered — must be 0
  std::uint64_t rejected = 0; ///< admission rejects (quota under pressure)
  std::uint64_t respawns = 0; ///< worker processes respawned (multiproc)
  std::uint64_t kills = 0;    ///< SIGKILLs the chaos monkey landed
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cache_hit_rate = 0.0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

RowResult drive(int workers, int sessions, int concurrency, bool multiproc) {
  ServerConfig config;
  config.endpoint = bench_endpoint(workers);
  config.workers = workers;
  config.token = kToken;
  config.cache_capacity = 512;
  config.queue.max_queued_per_tenant = 64;
  if (multiproc) {
    config.exec_mode = pdc::lab::ExecMode::Socket;
    config.shard.worker_bin = PDCLAB_BENCH_WORKER_BIN;
    config.shard.heartbeat_ms = 50;
    // The monkey kills again only after the fleet answered another job, so
    // with one worker a job meets at most one kill. With more, the other
    // workers' answers can bring the monkey back to a slow job's slot; the
    // budget's headroom covers that. The gate is zero LOST jobs, not a
    // kill-free run.
    config.shard.max_attempts = 10;
  }
  Server server(std::move(config));
  server.start();

  // The chaos monkey: SIGKILL a live worker process round-robin every
  // 50 ms for the whole run, but only once the fleet has answered another
  // job since the last kill. A fixed cadence alone let a loaded host stretch
  // one job past ten kills, which is the attempt budget, not a lost-job bug.
  // Recovery (reap + respawn + redispatch) must keep the zero-lost-jobs
  // gate green.
  std::atomic<bool> monkey_stop{false};
  std::atomic<std::uint64_t> kills{0};
  std::atomic<std::uint64_t> executed_answers{0};  ///< non-cached Results
  std::thread monkey;
  if (multiproc) {
    monkey = std::thread([&, workers] {
      int slot = 0;
      std::optional<std::uint64_t> answers_at_kill;
      while (!monkey_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const std::uint64_t answers =
            executed_answers.load(std::memory_order_relaxed);
        if (answers_at_kill == answers) continue;
        const pid_t victim = server.shard_pool()->slot_pid(slot);
        slot = (slot + 1) % workers;
        if (victim > 0 && ::kill(victim, SIGKILL) == 0) {
          kills.fetch_add(1, std::memory_order_relaxed);
          answers_at_kill = answers;
        }
      }
    });
  }

  std::atomic<int> next_session{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> rejected{0};
  std::mutex latencies_mutex;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(sessions) * 2);

  const auto endpoint = server.endpoint();
  pdc::WallTimer timer;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(concurrency));
  for (int t = 0; t < concurrency; ++t) {
    pool.emplace_back([&] {
      std::vector<double> local_us;
      for (int s = next_session.fetch_add(1); s < sessions;
           s = next_session.fetch_add(1)) {
        try {
          ClientConfig client_config;
          client_config.endpoint = endpoint;
          client_config.reply_timeout_ms = 60000;
          Client client(client_config);
          for (const protocol::Submit& submit : session_jobs(s)) {
            const auto start = std::chrono::steady_clock::now();
            const auto outcome = client.submit(submit);
            if (!outcome.accepted()) {
              rejected.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const protocol::Result result =
                client.wait_result(outcome.accept->job_id);
            if (!result.cached) {
              executed_answers.fetch_add(1, std::memory_order_relaxed);
            }
            const double us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (result.exit_code != 0) {
              std::fprintf(stderr, "lab-load: job failed: %s\n",
                           result.error.c_str());
              lost.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            local_us.push_back(us);
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const pdc::Error& error) {
          // A session that could not finish its conversation is a lost job.
          std::fprintf(stderr, "lab-load: session %d lost: %s\n", s,
                       error.what());
          lost.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard lock(latencies_mutex);
      latencies_us.insert(latencies_us.end(), local_us.begin(),
                          local_us.end());
    });
  }
  for (std::thread& thread : pool) thread.join();
  timer.stop();
  if (monkey.joinable()) {
    monkey_stop.store(true);
    monkey.join();
  }

  const auto stats = server.stats();
  server.stop();

  RowResult row;
  row.workers = workers;
  row.sessions = sessions;
  row.jobs = completed.load();
  row.lost = lost.load() + stats.lost_results;
  row.rejected = rejected.load();
  row.respawns = stats.worker_respawns;
  row.kills = kills.load();
  row.seconds = timer.elapsed_seconds();
  std::sort(latencies_us.begin(), latencies_us.end());
  row.p50_us = percentile(latencies_us, 50.0);
  row.p99_us = percentile(latencies_us, 99.0);
  const std::uint64_t lookups = stats.cache_hits + stats.executed;
  row.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cache_hits) /
                         static_cast<double>(lookups);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using pdc::strings::fixed;

  // Scale 0: smoke (seconds, one row). Scale N: 1000*N sessions per row
  // over a worker sweep — the EXPERIMENTS.md load table. Mode "multiproc"
  // serves through the forked-worker shard pool with the kill monkey on.
  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;
  const bool multiproc =
      argc > 2 && std::string(argv[2]) == "multiproc";
  const int sessions = scale > 0 ? 1000 * scale : 40;
  const int concurrency = scale > 0 ? 16 : 8;
  const std::vector<int> worker_rows =
      scale > 0 ? std::vector<int>{1, 2, 4} : std::vector<int>{2};

  std::printf("== Lab server load replay: %d student sessions, %d concurrent "
              "terminals%s ==\n\n",
              sessions, concurrency,
              multiproc ? ", shard pool + worker-kill monkey" : "");

  pdc::TextTable table({"workers", "jobs", "jobs/sec", "p50 latency",
                        "p99 latency", "cache hits", "kills", "respawns",
                        "lost"});
  for (int c = 1; c <= 8; ++c) table.set_align(c, pdc::Align::Right);

  bool ok = true;
  for (const int workers : worker_rows) {
    const RowResult row = drive(workers, sessions, concurrency, multiproc);
    const double jobs_per_sec =
        row.seconds > 0 ? static_cast<double>(row.jobs) / row.seconds : 0.0;
    table.add_row({std::to_string(row.workers), std::to_string(row.jobs),
                   fixed(jobs_per_sec, 0), fixed(row.p50_us / 1000.0, 2) + " ms",
                   fixed(row.p99_us / 1000.0, 2) + " ms",
                   fixed(row.cache_hit_rate * 100.0, 1) + " %",
                   std::to_string(row.kills), std::to_string(row.respawns),
                   std::to_string(row.lost)});
    if (multiproc) {
      std::printf(
          "LAB_LOAD_MULTIPROC workers=%d sessions=%d jobs=%llu "
          "jobs_per_sec=%s p50_us=%s p99_us=%s cache_hit_rate=%s "
          "kills=%llu respawns=%llu lost=%llu\n",
          row.workers, row.sessions,
          static_cast<unsigned long long>(row.jobs),
          fixed(jobs_per_sec, 1).c_str(), fixed(row.p50_us, 1).c_str(),
          fixed(row.p99_us, 1).c_str(),
          fixed(row.cache_hit_rate, 4).c_str(),
          static_cast<unsigned long long>(row.kills),
          static_cast<unsigned long long>(row.respawns),
          static_cast<unsigned long long>(row.lost));
    } else {
      std::printf("LAB_LOAD workers=%d sessions=%d jobs=%llu jobs_per_sec=%s "
                  "p50_us=%s p99_us=%s cache_hit_rate=%s lost=%llu\n",
                  row.workers, row.sessions,
                  static_cast<unsigned long long>(row.jobs),
                  fixed(jobs_per_sec, 1).c_str(), fixed(row.p50_us, 1).c_str(),
                  fixed(row.p99_us, 1).c_str(),
                  fixed(row.cache_hit_rate, 4).c_str(),
                  static_cast<unsigned long long>(row.lost));
    }
    if (row.lost != 0) {
      std::fprintf(stderr, "lab-load: %llu jobs LOST at %d workers\n",
                   static_cast<unsigned long long>(row.lost), row.workers);
      ok = false;
    }
  }

  std::puts("");
  std::fputs(table.render().c_str(), stdout);
  std::puts("");
  std::puts(multiproc
                ? "every execution ran in a forked worker process while the "
                  "monkey SIGKILLed a worker every 50 ms (once another job was "
                  "answered); reap + respawn + redispatch kept every accepted "
                  "job terminal."
                : "every session is a fresh connection; identical submissions "
                  "(the assigned seeds) are served from the LRU result cache "
                  "without touching the worker fleet.");
  return ok ? 0 : 1;
}
