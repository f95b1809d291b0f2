// pdclab — the multi-tenant lab server and its command-line client.
//
//   pdclab serve --listen unix:/tmp/pdclab.sock --workers 4
//   pdclab serve --listen tcp:127.0.0.1:7070 --executor socket
//
//   pdclab submit --connect unix:/tmp/pdclab.sock --tenant ada
//          patternlet spmd --np 4 [--stream]
//   pdclab submit --connect ... --tenant ada exemplar pi --np 4 --seed 7
//   pdclab submit --connect ... --tenant ada notebook --source '!mpirun -np 2 python 00spmd.py'
//   pdclab submit --connect ... --tenant ada grade 'spmd~race#0@np4' --seed 1 --source 'k=8'
//   pdclab cancel --connect ... --tenant ada --job 7
//   pdclab watch --connect ... --job 7
//   pdclab report --connect ... --tenant ada [--cohort ada]
//
// `pdclab worker` is the shard-pool side of `serve --executor socket`: the
// server forks one `pdclab worker` process per worker thread and feeds it
// Dispatch frames; it is not meant to be invoked by hand.
//
// Exit codes (submit): 0 job ran, 1 job failed on the server, 2 rejected,
// 3 could not reach/speak to the server, 64 usage error. cancel: 0 the
// cancel took, 2 rejected, 3/64 as above. watch: 0 the job finished.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "lab/client.hpp"
#include "lab/server.hpp"
#include "lab/shard.hpp"
#include "net/errors.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "pdclab: %s\n", error);
  std::fputs(
      "usage:\n"
      "  pdclab serve --listen <unix:PATH|tcp:HOST:PORT> [--workers N]\n"
      "               [--token T] [--executor inline|socket] [--cache N]\n"
      "               [--quota N] [--max-np N] [--worker-bin PATH]\n"
      "               [--store DIR] [--compact-every N]\n"
      "  pdclab submit --connect <unix:PATH|tcp:HOST:PORT> --tenant NAME\n"
      "                [--token T] (patternlet|exemplar) PROGRAM [--np N]\n"
      "                [--seed S] [--stream]\n"
      "  pdclab submit --connect ... --tenant NAME notebook --source TEXT\n"
      "  pdclab submit --connect ... --tenant NAME grade MUTANT_ID\n"
      "                [--seed S] [--source 'k=N watchdog_ms=N']\n"
      "  pdclab cancel --connect ... --tenant NAME [--token T] --job ID\n"
      "  pdclab watch --connect ... --job ID [--poll-ms N]\n"
      "  pdclab report --connect ... --tenant NAME [--token T] [--cohort C]\n"
      "  pdclab worker --connect <unix:PATH> --slot N  (internal: shard pool)\n",
      stderr);
  return 64;
}

/// --flag VALUE puller; advances i. Returns nullptr when exhausted.
const char* value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) return nullptr;
  return argv[++i];
}

int run_serve(int argc, char** argv) {
  pdc::lab::ServerConfig config;
  bool listened = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      const char* v = value_of(argc, argv, i);
      if (v == nullptr) {
        std::fprintf(stderr, "pdclab: %s needs a value\n", flag);
      }
      return v;
    };
    try {
      if (arg == "--listen") {
        const char* v = need("--listen");
        if (v == nullptr) return 64;
        config.endpoint = pdc::net::Endpoint::parse(v);
        listened = true;
      } else if (arg == "--workers") {
        const char* v = need("--workers");
        if (v == nullptr) return 64;
        config.workers = std::atoi(v);
      } else if (arg == "--token") {
        const char* v = need("--token");
        if (v == nullptr) return 64;
        config.token = v;
      } else if (arg == "--cache") {
        const char* v = need("--cache");
        if (v == nullptr) return 64;
        config.cache_capacity = static_cast<std::size_t>(std::atol(v));
      } else if (arg == "--quota") {
        const char* v = need("--quota");
        if (v == nullptr) return 64;
        config.queue.max_queued_per_tenant =
            static_cast<std::size_t>(std::atol(v));
      } else if (arg == "--max-np") {
        const char* v = need("--max-np");
        if (v == nullptr) return 64;
        config.executor.max_np = std::atoi(v);
      } else if (arg == "--executor") {
        const char* v = need("--executor");
        if (v == nullptr) return 64;
        if (std::strcmp(v, "inline") == 0) {
          config.exec_mode = pdc::lab::ExecMode::Inline;
        } else if (std::strcmp(v, "socket") == 0) {
          config.exec_mode = pdc::lab::ExecMode::Socket;
        } else {
          return usage("--executor must be 'inline' or 'socket'");
        }
      } else if (arg == "--worker-bin") {
        const char* v = need("--worker-bin");
        if (v == nullptr) return 64;
        config.shard.worker_bin = v;
      } else if (arg == "--store") {
        const char* v = need("--store");
        if (v == nullptr) return 64;
        config.store.dir = v;
      } else if (arg == "--compact-every") {
        const char* v = need("--compact-every");
        if (v == nullptr) return 64;
        config.store.compact_every = static_cast<std::uint64_t>(std::atoll(v));
      } else {
        return usage(("unknown serve option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!listened) return usage("serve needs --listen");
  if (config.workers < 1) return usage("--workers must be >= 1");

  const int workers = config.workers;
  const pdc::lab::ExecMode mode = config.exec_mode;
  pdc::lab::Server server(std::move(config));
  try {
    server.start();
  } catch (const pdc::Error& error) {
    std::fprintf(stderr, "pdclab: cannot listen: %s\n", error.what());
    return 3;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("pdclab: serving at %s (%d workers, executor %s)\n",
              server.endpoint().to_string().c_str(), workers,
              pdc::lab::exec_mode_name(mode));
  if (const pdc::store::Store* store = server.store()) {
    const pdc::store::RecoverStats recovered = store->recover_stats();
    std::printf(
        "pdclab: store %s recovered %llu results + %llu grades "
        "(%llu dropped tail bytes), warmed %llu cache entries\n",
        store->dir().c_str(),
        static_cast<unsigned long long>(recovered.results),
        static_cast<unsigned long long>(recovered.grades),
        static_cast<unsigned long long>(recovered.dropped_bytes),
        static_cast<unsigned long long>(server.stats().warmed_results));
  }
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // SIGTERM/SIGINT land here: stop() drains the fleet, journals the drain
  // Results, then flushes and fsyncs the store — a clean WAL close, not a
  // torn tail (the recovery path tolerates that too, but a graceful exit
  // should not need it).
  server.stop();
  const pdc::lab::ServerStats stats = server.stats();
  std::printf(
      "pdclab: served %llu submits (%llu accepted, %llu rejected, "
      "%llu cache hits, %llu executed, %llu lockouts) over %llu sessions\n",
      static_cast<unsigned long long>(stats.submits),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.executed),
      static_cast<unsigned long long>(stats.lockouts),
      static_cast<unsigned long long>(stats.sessions));
  return 0;
}

int run_submit(int argc, char** argv) {
  pdc::lab::ClientConfig client_config;
  pdc::lab::protocol::Submit submit;
  submit.token = "hands-on";
  bool connected = false;
  bool kind_set = false;
  bool stream = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* { return value_of(argc, argv, i); };
    try {
      if (arg == "--connect") {
        const char* v = need();
        if (v == nullptr) return usage("--connect needs a value");
        client_config.endpoint = pdc::net::Endpoint::parse(v);
        connected = true;
      } else if (arg == "--tenant") {
        const char* v = need();
        if (v == nullptr) return usage("--tenant needs a value");
        submit.tenant = v;
      } else if (arg == "--token") {
        const char* v = need();
        if (v == nullptr) return usage("--token needs a value");
        submit.token = v;
      } else if (arg == "--np") {
        const char* v = need();
        if (v == nullptr) return usage("--np needs a value");
        submit.np = std::atoi(v);
      } else if (arg == "--seed") {
        const char* v = need();
        if (v == nullptr) return usage("--seed needs a value");
        submit.seed = static_cast<std::uint64_t>(std::atoll(v));
      } else if (arg == "--source") {
        const char* v = need();
        if (v == nullptr) return usage("--source needs a value");
        submit.source = v;
      } else if (arg == "--stream") {
        stream = true;
      } else if (arg == "patternlet" || arg == "exemplar" ||
                 arg == "notebook" || arg == "grade") {
        kind_set = true;
        if (arg == "patternlet") {
          submit.kind = pdc::lab::protocol::JobKind::Patternlet;
        } else if (arg == "exemplar") {
          submit.kind = pdc::lab::protocol::JobKind::Exemplar;
        } else if (arg == "grade") {
          submit.kind = pdc::lab::protocol::JobKind::Grade;
        } else {
          submit.kind = pdc::lab::protocol::JobKind::Notebook;
        }
        // A program name (or mutant id) follows for all but notebook.
        if (arg != "notebook") {
          const char* v = need();
          if (v == nullptr) return usage("program name missing");
          submit.name = v;
        }
      } else {
        return usage(("unknown submit option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!connected) return usage("submit needs --connect");
  if (submit.tenant.empty()) return usage("submit needs --tenant");
  if (!kind_set) return usage("submit needs a job kind");

  try {
    pdc::lab::Client client(client_config);
    const auto outcome = client.submit(submit);
    if (!outcome.accepted()) {
      std::fprintf(stderr, "pdclab: rejected (%s): %s\n",
                   pdc::lab::protocol::reject_code_name(outcome.reject->code),
                   outcome.reject->reason.c_str());
      return 2;
    }
    std::size_t streamed = 0;
    pdc::lab::Client::StatusSink on_status;
    if (stream) {
      on_status = [&streamed](const pdc::lab::protocol::Status& status) {
        for (const std::string& line : status.output) {
          std::printf("%s\n", line.c_str());
        }
        std::fflush(stdout);
        streamed += status.output.size();
      };
    }
    const auto result = client.wait_result(outcome.accept->job_id, on_status);
    // Streamed lines are already on the terminal (the worker flushes its
    // tail before the Result); a job that never streamed (cache hit,
    // notebook, grade, inline server) prints the terminal output instead.
    if (streamed == 0) {
      for (const std::string& line : result.output) {
        std::printf("%s\n", line.c_str());
      }
    }
    if (result.exit_code != 0) {
      std::fprintf(stderr, "pdclab: job failed (exit %d): %s\n",
                   result.exit_code, result.error.c_str());
      return 1;
    }
    if (result.cached) {
      std::fprintf(stderr, "pdclab: served from cache (%llu us original)\n",
                   static_cast<unsigned long long>(result.exec_us));
    }
    return 0;
  } catch (const pdc::Error& error) {
    std::fprintf(stderr, "pdclab: %s\n", error.what());
    return 3;
  }
}

int run_cancel(int argc, char** argv) {
  pdc::lab::ClientConfig client_config;
  std::string tenant;
  std::string token = "hands-on";
  std::uint64_t job_id = 0;
  bool connected = false;
  bool job_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* { return value_of(argc, argv, i); };
    try {
      if (arg == "--connect") {
        const char* v = need();
        if (v == nullptr) return usage("--connect needs a value");
        client_config.endpoint = pdc::net::Endpoint::parse(v);
        connected = true;
      } else if (arg == "--tenant") {
        const char* v = need();
        if (v == nullptr) return usage("--tenant needs a value");
        tenant = v;
      } else if (arg == "--token") {
        const char* v = need();
        if (v == nullptr) return usage("--token needs a value");
        token = v;
      } else if (arg == "--job") {
        const char* v = need();
        if (v == nullptr) return usage("--job needs a value");
        job_id = static_cast<std::uint64_t>(std::atoll(v));
        job_set = true;
      } else {
        return usage(("unknown cancel option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!connected) return usage("cancel needs --connect");
  if (tenant.empty()) return usage("cancel needs --tenant");
  if (!job_set) return usage("cancel needs --job");

  try {
    pdc::lab::Client client(client_config);
    const auto outcome = client.cancel(job_id, token, tenant);
    if (!outcome.cancelled()) {
      std::fprintf(stderr, "pdclab: cancel rejected (%s): %s\n",
                   pdc::lab::protocol::reject_code_name(outcome.reject->code),
                   outcome.reject->reason.c_str());
      return 2;
    }
    std::printf("pdclab: job %llu cancelled\n",
                static_cast<unsigned long long>(job_id));
    return 0;
  } catch (const pdc::Error& error) {
    std::fprintf(stderr, "pdclab: %s\n", error.what());
    return 3;
  }
}

int run_watch(int argc, char** argv) {
  pdc::lab::ClientConfig client_config;
  std::uint64_t job_id = 0;
  int poll_ms = 200;
  bool connected = false;
  bool job_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* { return value_of(argc, argv, i); };
    try {
      if (arg == "--connect") {
        const char* v = need();
        if (v == nullptr) return usage("--connect needs a value");
        client_config.endpoint = pdc::net::Endpoint::parse(v);
        connected = true;
      } else if (arg == "--job") {
        const char* v = need();
        if (v == nullptr) return usage("--job needs a value");
        job_id = static_cast<std::uint64_t>(std::atoll(v));
        job_set = true;
      } else if (arg == "--poll-ms") {
        const char* v = need();
        if (v == nullptr) return usage("--poll-ms needs a value");
        poll_ms = std::atoi(v);
        if (poll_ms < 1) poll_ms = 1;
      } else {
        return usage(("unknown watch option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!connected) return usage("watch needs --connect");
  if (!job_set) return usage("watch needs --job");

  try {
    pdc::lab::Client client(client_config);
    pdc::lab::protocol::JobState last =
        pdc::lab::protocol::JobState::Unknown;
    for (;;) {
      const auto status = client.query_status(job_id);
      for (const std::string& line : status.output) {
        std::printf("%s\n", line.c_str());
      }
      if (status.state != last) {
        last = status.state;
        const char* name = "unknown";
        switch (status.state) {
          case pdc::lab::protocol::JobState::Queued: name = "queued"; break;
          case pdc::lab::protocol::JobState::Running: name = "running"; break;
          case pdc::lab::protocol::JobState::Done: name = "done"; break;
          case pdc::lab::protocol::JobState::Unknown: break;
        }
        std::fprintf(stderr, "pdclab: job %llu %s (queue depth %u)\n",
                     static_cast<unsigned long long>(job_id), name,
                     status.queue_depth);
      }
      if (status.state == pdc::lab::protocol::JobState::Unknown) {
        std::fprintf(stderr, "pdclab: server knows no job %llu\n",
                     static_cast<unsigned long long>(job_id));
        return 2;
      }
      if (status.state == pdc::lab::protocol::JobState::Done) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  } catch (const pdc::Error& error) {
    std::fprintf(stderr, "pdclab: %s\n", error.what());
    return 3;
  }
}

int run_report(int argc, char** argv) {
  pdc::lab::ClientConfig client_config;
  std::string tenant;
  std::string token = "hands-on";
  std::string cohort;
  bool connected = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* { return value_of(argc, argv, i); };
    try {
      if (arg == "--connect") {
        const char* v = need();
        if (v == nullptr) return usage("--connect needs a value");
        client_config.endpoint = pdc::net::Endpoint::parse(v);
        connected = true;
      } else if (arg == "--tenant") {
        const char* v = need();
        if (v == nullptr) return usage("--tenant needs a value");
        tenant = v;
      } else if (arg == "--token") {
        const char* v = need();
        if (v == nullptr) return usage("--token needs a value");
        token = v;
      } else if (arg == "--cohort") {
        const char* v = need();
        if (v == nullptr) return usage("--cohort needs a value");
        cohort = v;
      } else {
        return usage(("unknown report option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!connected) return usage("report needs --connect");
  if (tenant.empty()) return usage("report needs --tenant");

  try {
    pdc::lab::Client client(client_config);
    const auto outcome = client.report(token, tenant, cohort);
    if (!outcome.ok()) {
      std::fprintf(stderr, "pdclab: report rejected (%s): %s\n",
                   pdc::lab::protocol::reject_code_name(outcome.reject->code),
                   outcome.reject->reason.c_str());
      return 2;
    }
    // The canonical rendering: deterministic for a given record set, which
    // is exactly what the kill sweep diffs against an uninterrupted run.
    bool first = true;
    for (const auto& reply : outcome.cohorts) {
      if (!first) std::printf("\n");
      first = false;
      for (const std::string& line :
           pdc::store::render_report(reply.aggregate)) {
        std::printf("%s\n", line.c_str());
      }
    }
    return 0;
  } catch (const pdc::Error& error) {
    std::fprintf(stderr, "pdclab: %s\n", error.what());
    return 3;
  }
}

/// The shard-pool worker process (forked by `serve --executor socket`).
int run_worker(int argc, char** argv) {
  pdc::net::Endpoint endpoint;
  pdc::lab::ExecutorConfig executor;
  int slot = 0;
  int heartbeat_ms = 250;
  bool connected = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> const char* { return value_of(argc, argv, i); };
    try {
      if (arg == "--connect") {
        const char* v = need();
        if (v == nullptr) return usage("--connect needs a value");
        endpoint = pdc::net::Endpoint::parse(v);
        connected = true;
      } else if (arg == "--slot") {
        const char* v = need();
        if (v == nullptr) return usage("--slot needs a value");
        slot = std::atoi(v);
      } else if (arg == "--max-np") {
        const char* v = need();
        if (v == nullptr) return usage("--max-np needs a value");
        executor.max_np = std::atoi(v);
      } else if (arg == "--heartbeat-ms") {
        const char* v = need();
        if (v == nullptr) return usage("--heartbeat-ms needs a value");
        heartbeat_ms = std::atoi(v);
        if (heartbeat_ms < 1) heartbeat_ms = 1;
      } else {
        return usage(("unknown worker option '" + arg + "'").c_str());
      }
    } catch (const pdc::Error& error) {
      std::fprintf(stderr, "pdclab: %s\n", error.what());
      return 64;
    }
  }
  if (!connected) return usage("worker needs --connect");
  return pdc::lab::worker_main(endpoint, slot, executor, heartbeat_ms);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(nullptr);
  const std::string mode = argv[1];
  if (mode == "serve") return run_serve(argc, argv);
  if (mode == "submit") return run_submit(argc, argv);
  if (mode == "cancel") return run_cancel(argc, argv);
  if (mode == "watch") return run_watch(argc, argv);
  if (mode == "report") return run_report(argc, argv);
  if (mode == "worker") return run_worker(argc, argv);
  return usage(("unknown mode '" + mode + "'").c_str());
}
