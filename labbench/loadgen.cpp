// labbench_loadgen — drives `pdclab serve` the way a class uses it and
// prints the benchmark's metrics. run.py builds and invokes it; by hand:
//
//   labbench_loadgen --workload cold-explore --seed 3 --seconds 10
//                    --trace 0 --pdclab .bench_build/labbench-cmake/pdclab/tools/pdclab
//
// It works inside the current directory (run.py points it at a scratch
// directory of the checkout): the served lab's socket, its store and the
// shard pool's sockets all live there.

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "labbench.hpp"
#include "served_lab.hpp"
#include "lab/client.hpp"
#include "store/store.hpp"

namespace labbench {

using Clock = std::chrono::steady_clock;

/// The timed phase is cut into windows of this many seconds.
constexpr double kWindowSeconds = 0.25;
/// A window is quiet when the host stole at most this share of vCPU time
/// in it: one /proc/stat tick on a 4-vCPU host.
constexpr double kQuietSteal = 0.015;
/// The end-to-end figures are medians over the quiet windows, or over this
/// many least-stolen ones when fewer are quiet (see run_end_to_end).
constexpr std::size_t kQuietWindows = 4;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- CPU accounting -------------------------------------------------------

/// utime + stime of one /proc/<pid>/stat (and cutime + cstime, the reaped
/// children). The comm field may hold spaces, so parse after its ')'.
bool read_stat(pid_t pid, std::uint64_t* own, std::uint64_t* reaped,
               pid_t* parent) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return false;
  const auto close = text.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  std::vector<std::string> values;
  while (fields >> field && values.size() < 15) values.push_back(field);
  if (values.size() < 15) return false;
  // values[0] is field 3 (state): utime = field 14, cutime = field 16.
  *parent = static_cast<pid_t>(std::stol(values[1]));
  *own = std::stoull(values[11]) + std::stoull(values[12]);
  *reaped = std::stoull(values[13]) + std::stoull(values[14]);
  return true;
}

/// CPU ticks of the serving side: the serve process, its live children
/// (the shard workers) and the children it has reaped.
struct ServingCpu {
  std::uint64_t own = 0;
  std::uint64_t reaped = 0;
  std::map<pid_t, std::uint64_t> children;
};

ServingCpu read_serving_cpu(pid_t server) {
  ServingCpu cpu;
  pid_t parent = 0;
  read_stat(server, &cpu.own, &cpu.reaped, &parent);
  if (DIR* proc = ::opendir("/proc")) {
    while (const dirent* entry = ::readdir(proc)) {
      if (entry->d_name[0] < '1' || entry->d_name[0] > '9') continue;
      const pid_t pid = static_cast<pid_t>(std::atol(entry->d_name));
      std::uint64_t own = 0, reaped = 0;
      if (pid != server && read_stat(pid, &own, &reaped, &parent) &&
          parent == server) {
        cpu.children[pid] = own;
      }
    }
    ::closedir(proc);
  }
  return cpu;
}

/// Serving-side CPU seconds spent between two readings. A child that died
/// in between moved its whole lifetime into the parent's reaped total, so
/// its earlier reading is taken back out.
double serving_cpu_seconds(const ServingCpu& a, const ServingCpu& b) {
  double ticks = static_cast<double>(b.own - a.own) +
                 static_cast<double>(b.reaped - a.reaped);
  for (const auto& [pid, value] : b.children) {
    const auto before = a.children.find(pid);
    ticks += static_cast<double>(value) -
             (before == a.children.end() ? 0.0
                                         : static_cast<double>(before->second));
  }
  for (const auto& [pid, value] : a.children) {
    if (b.children.count(pid) == 0) ticks -= static_cast<double>(value);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Aggregate vCPU ticks from /proc/stat: (steal, total).
std::pair<double, double> read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0, steal = 0.0, value = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user).
  for (int i = 0; i < 8 && (in >> value); ++i) {
    total += value;
    if (i == 7) steal = value;
  }
  return {steal, total};
}

// ---- the closed loop ------------------------------------------------------

struct Sample {
  Clock::time_point done;
  double latency_us = 0.0;
  std::uint32_t queue_position = 0;
  bool cached = false;
};

/// A new durable-fleet job's acked answer, checked against the journal.
struct Acked {
  std::uint64_t digest = 0;
  std::uint64_t output_hash = 0;
};

struct Tally {
  std::vector<Sample> samples;  ///< timed-phase completions
  std::uint64_t attempted = 0, accepted = 0, rejected = 0, results = 0,
                wrong = 0, cached = 0;
  std::vector<double> executed_exec_us;  ///< Result.exec_us, executed jobs
  std::vector<double> executed_overhead_us;
  std::vector<std::uint64_t> job_ids;
  std::vector<std::pair<protocol::Submit, std::vector<std::string>>> sampled;
  std::vector<Acked> acked;
  std::vector<std::string> problems;

  void problem(std::string text) {
    if (problems.size() < 5) problems.push_back(std::move(text));
  }
};

enum Phase : int { kWarmup = 0, kTimed = 1, kStop = 2 };

struct Shared {
  std::atomic<int> phase{kWarmup};
  Clock::time_point timed_start;
  Clock::time_point timed_end;
};

struct Expectations {
  /// Class replay: the server's first answer per digest (every later
  /// cache hit must be byte-identical to it).
  std::unordered_map<std::uint64_t, std::vector<std::string>> served;
  const Prepared* prepared = nullptr;
  bool drop_one_result = false;  ///< self-test fault "lost-job"
};

void drive_client(int client, const Options& options, Shared& shared,
                  const Expectations& expect, Tally& tally) {
  const ServeShape& shape = expect.prepared->shape;
  JobStream stream(options.workload, options.seed, client,
                   expect.prepared->history);
  pdc::lab::ClientConfig config;
  config.endpoint = pdc::net::Endpoint::parse(kEndpoint);
  config.reply_timeout_ms = 30000;
  std::unique_ptr<pdc::lab::Client> connection;
  int session_jobs = 0;
  bool dropped = false;
  try {
    while (shared.phase.load(std::memory_order_acquire) != kStop) {
      if (!connection || (shape.session_per_two_jobs && session_jobs == 2)) {
        connection.reset();
        connection = std::make_unique<pdc::lab::Client>(config);
        session_jobs = 0;
      }
      const Job job = stream.next();
      const bool timed =
          shared.phase.load(std::memory_order_acquire) == kTimed;
      ++tally.attempted;
      ++session_jobs;
      const auto start = Clock::now();
      const auto outcome = connection->submit(job.submit);
      if (!outcome.accepted()) {
        ++tally.rejected;
        tally.problem(std::string("rejected: ") +
                      protocol::reject_code_name(outcome.reject->code) + " " +
                      outcome.reject->reason);
        continue;
      }
      ++tally.accepted;
      const std::uint64_t job_id = outcome.accept->job_id;
      tally.job_ids.push_back(job_id);
      if (expect.drop_one_result && !dropped && client == 0) {
        // Self-test: walk away from one accepted job without its Result.
        dropped = true;
        connection.reset();
        continue;
      }
      const protocol::Result result = connection->wait_result(job_id);
      const auto done = Clock::now();
      ++tally.results;
      const double latency_us =
          std::chrono::duration<double, std::micro>(done - start).count();

      bool ok = result.job_id == job_id && result.exit_code == 0;
      if (!ok) {
        tally.problem("job " + std::to_string(job_id) + " exit " +
                      std::to_string(result.exit_code) + ": " + result.error);
      }
      const std::uint64_t digest = protocol::digest(job.submit);
      if (ok && options.workload == Workload::ClassReplay) {
        const auto it = expect.served.find(digest);
        ok = result.cached && it != expect.served.end() &&
             it->second == result.output;
        if (!ok) tally.problem("class-replay output differs for " + job.submit.name);
      } else if (ok && job.history_index >= 0) {
        const auto index = static_cast<std::size_t>(job.history_index);
        ok = result.output == expect.prepared->history_results[index].output;
        if (!ok) tally.problem("seeded repeat returned another output");
      } else if (ok) {
        if (job.sampled) tally.sampled.emplace_back(job.submit, result.output);
        if (shape.store) tally.acked.push_back({digest, output_hash(result.output)});
      }
      if (!ok) ++tally.wrong;
      if (result.cached) {
        ++tally.cached;
      } else {
        tally.executed_exec_us.push_back(static_cast<double>(result.exec_us));
        tally.executed_overhead_us.push_back(
            latency_us - static_cast<double>(result.exec_us));
      }
      if (timed && done <= shared.timed_end) {
        tally.samples.push_back(
            {done, latency_us, outcome.accept->queue_position, result.cached});
      }
    }
  } catch (const std::exception& error) {
    tally.problem(std::string("client error: ") + error.what());
    ++tally.wrong;
  }
}

/// Seed the durable-fleet store: the semester's results, journaled and
/// compacted, as a server would have left them.
void seed_store(const Prepared& prepared, const std::string& dir) {
  pdc::store::StoreConfig config;
  config.dir = dir;
  config.fsync = false;
  pdc::store::Store store(config);
  for (std::size_t i = 0; i < prepared.history.size(); ++i) {
    store.put_result(to_record(prepared.history[i], prepared.history_results[i]));
  }
  store.compact();
  store.sync();
}

}  // namespace

Prepared prepare(const Options& options) {
  Prepared prepared;
  prepared.shape = serve_shape(options.workload);
  if (options.workload == Workload::ClassReplay) {
    prepared.assignment = class_assignment();
    prepared.assignment_results = execute_all(prepared.assignment, 1);
  }
  if (options.workload == Workload::DurableFleet) {
    prepared.history =
        semester_history(options.seed, options.history_records());
    prepared.history_results = execute_all(prepared.history, 2);
    prepared.seeded_store = "seeded";
    std::filesystem::remove_all(prepared.seeded_store);
    seed_store(prepared, prepared.seeded_store);
  }
  return prepared;
}

EndToEnd run_end_to_end(const Options& options, const Prepared& prepared) {
  EndToEnd out;
  const ServeShape& shape = prepared.shape;
  const int launches = options.smoke ? 3 : 41;
  // Quarter-second windows: short enough that many of them see no host
  // steal even while steal comes and goes, long enough for a p99 with
  // twenty or more samples beyond it.
  const int windows =
      std::max(2, static_cast<int>(std::lround(options.seconds / kWindowSeconds)));
  const double warmup_s = options.smoke ? 0.2 : 1.0;

  // The served lab's store starts as a copy of the seeded semester.
  if (shape.store) {
    std::filesystem::remove_all(kStoreDir);
    std::filesystem::copy(prepared.seeded_store, kStoreDir,
                          std::filesystem::copy_options::recursive);
  }

  // setup_s: median over several launches of launch → ready line. Every
  // launch pays what a restart pays: exec, store recovery, cache warm-up,
  // forking the shard fleet. The last launch serves the run.
  std::vector<double> setups;
  std::unique_ptr<ServedLab> lab;
  for (int i = 0; i < launches; ++i) {
    if (lab) lab->stop();
    lab = std::make_unique<ServedLab>(options.pdclab, shape);
    setups.push_back(lab->wait_ready());
  }
  out.setup_s = median(setups);
  out.launches = launches;
  out.warmed = lab->warmed();
  if (shape.store && out.warmed != prepared.history.size()) {
    out.correct = false;
    out.problems.push_back("warmed " + std::to_string(out.warmed) + " of " +
                           std::to_string(prepared.history.size()) +
                           " seeded results");
  }

  Expectations expect;
  expect.prepared = &prepared;
  expect.drop_one_result = options.fault == "lost-job";
  std::uint64_t setup_submits = 0, setup_wrong = 0;
  // Frames of the set-up jobs the served lab executes (class replay).
  std::vector<double> setup_exec_us, setup_overhead_us;
  if (options.workload == Workload::ClassReplay) {
    // The inline executor runs each assigned job once; the class then
    // replays them from the cache. The server's answer must hold the same
    // lines as the Executor's reference run.
    pdc::lab::ClientConfig config;
    config.endpoint = pdc::net::Endpoint::parse(kEndpoint);
    pdc::lab::Client client(config);
    for (std::size_t i = 0; i < prepared.assignment.size(); ++i) {
      protocol::Submit submit = prepared.assignment[i];
      submit.tenant = "instructor";
      const auto start = Clock::now();
      const auto outcome = client.submit(submit);
      ++setup_submits;
      if (!outcome.accepted()) throw std::runtime_error("set-up job rejected");
      const protocol::Result result = client.wait_result(outcome.accept->job_id);
      const double latency_us =
          std::chrono::duration<double, std::micro>(Clock::now() - start).count();
      setup_exec_us.push_back(static_cast<double>(result.exec_us));
      setup_overhead_us.push_back(latency_us - static_cast<double>(result.exec_us));
      std::vector<std::string> reference = prepared.assignment_results[i].output;
      if (options.fault == "wrong-output" && i == 0) reference[0] += "!";
      if (result.exit_code != 0 || !same_lines(result.output, reference)) {
        ++setup_wrong;
        out.problems.push_back("set-up output of " + submit.name +
                               " differs from the Executor's");
      }
      expect.served[protocol::digest(submit)] = result.output;
    }
  }

  Shared shared;
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      drive_client(c, options, shared, expect, tallies[static_cast<std::size_t>(c)]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));

  // Timed phase, split into equal windows with the host's steal counted in
  // each (see the metrics below).
  const double window_s = options.seconds / windows;
  shared.timed_start = Clock::now();
  shared.timed_end = shared.timed_start +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::vector<ServingCpu> serving = {read_serving_cpu(lab->pid())};
  std::vector<std::pair<double, double>> host = {read_host_ticks()};
  const double self_before = self_cpu_seconds();
  shared.phase.store(kTimed, std::memory_order_release);
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        shared.timed_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(window_s * w)));
    serving.push_back(read_serving_cpu(lab->pid()));
    host.push_back(read_host_ticks());
  }
  const double self_after = self_cpu_seconds();
  shared.phase.store(kStop, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();

  ServedTotals totals;
  try {
    totals = lab->stop();
  } catch (const std::exception& error) {
    out.correct = false;
    out.problems.push_back(error.what());
  }
  lab.reset();

  // ---- correctness gates ---------------------------------------------------
  Tally all;
  all.executed_exec_us = setup_exec_us;
  all.executed_overhead_us = setup_overhead_us;
  for (Tally& tally : tallies) {
    all.attempted += tally.attempted;
    all.accepted += tally.accepted;
    all.rejected += tally.rejected;
    all.results += tally.results;
    all.wrong += tally.wrong;
    all.cached += tally.cached;
    all.samples.insert(all.samples.end(), tally.samples.begin(), tally.samples.end());
    all.executed_exec_us.insert(all.executed_exec_us.end(),
                                tally.executed_exec_us.begin(),
                                tally.executed_exec_us.end());
    all.executed_overhead_us.insert(all.executed_overhead_us.end(),
                                    tally.executed_overhead_us.begin(),
                                    tally.executed_overhead_us.end());
    all.job_ids.insert(all.job_ids.end(), tally.job_ids.begin(), tally.job_ids.end());
    all.sampled.insert(all.sampled.end(), tally.sampled.begin(), tally.sampled.end());
    all.acked.insert(all.acked.end(), tally.acked.begin(), tally.acked.end());
    for (std::string& p : tally.problems) out.problems.push_back(std::move(p));
  }
  out.attempted = all.attempted + setup_submits;
  out.rejected = all.rejected;
  out.wrong = all.wrong + setup_wrong;
  out.lost = all.accepted - all.results;

  // Every accepted job got exactly one Result: job ids are unique, and the
  // server's own exit totals agree with what the clients saw.
  std::sort(all.job_ids.begin(), all.job_ids.end());
  if (std::adjacent_find(all.job_ids.begin(), all.job_ids.end()) != all.job_ids.end()) {
    out.problems.push_back("a job id was answered twice");
    ++out.wrong;
  }
  if (totals.submits != out.attempted ||
      totals.accepted != all.accepted + setup_submits ||
      totals.rejected != all.rejected || totals.cache_hits != all.cached) {
    out.problems.push_back(
        "server totals disagree: " + std::to_string(totals.submits) +
        " submits / " + std::to_string(totals.accepted) + " accepted, clients " +
        std::to_string(out.attempted) + " / " +
        std::to_string(all.accepted + setup_submits));
    if (out.lost == 0) out.lost = 1;
  }

  // A fixed sample of explored jobs, re-run through the Executor.
  if (!all.sampled.empty()) {
    std::vector<protocol::Submit> submits;
    for (const auto& [submit, output] : all.sampled) submits.push_back(submit);
    std::vector<protocol::Result> reference = execute_all(submits, 2);
    if (options.fault == "wrong-output") reference[0].output.emplace_back("!");
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!same_lines(reference[i].output, all.sampled[i].second)) {
        ++out.wrong;
        out.problems.push_back("sampled output differs for " + submits[i].name);
      }
    }
  }

  // Acked ⇒ durable: every new durable-fleet job is in the journal with
  // the output the client saw.
  if (shape.store) {
    pdc::store::StoreConfig config;
    config.dir = kStoreDir;
    const pdc::store::Store store(config);
    const auto records = store.results();
    for (const Acked& acked : all.acked) {
      const auto it = records.find(acked.digest);
      if (it == records.end()) {
        ++out.lost;
        out.problems.push_back("an acked job is missing from the journal");
      } else if (output_hash(it->second.output) != acked.output_hash) {
        ++out.wrong;
        out.problems.push_back("journaled output differs from the Result");
      }
    }
  }
  out.failed = out.rejected + out.lost + out.wrong;
  if (out.failed > 0 || !out.problems.empty()) out.correct = false;
  if (out.problems.size() > 8) out.problems.resize(8);

  // ---- metrics ---------------------------------------------------------------
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(windows));
  for (const Sample& sample : all.samples) {
    const double at = seconds_between(shared.timed_start, sample.done);
    const auto w = std::min(windows - 1, static_cast<int>(at / window_s));
    latency[static_cast<std::size_t>(w)].push_back(sample.latency_us);
  }
  const auto steal_between = [&host](std::size_t a, std::size_t b) {
    const double total = host[b].second - host[a].second;
    return total > 0 ? (host[b].first - host[a].first) / total : 0.0;
  };
  for (std::size_t w = 0; w < static_cast<std::size_t>(windows); ++w) {
    const auto& values = latency[w];
    if (values.empty()) continue;
    Window window;
    window.steal_share = steal_between(w, w + 1);
    window.jobs_per_s = static_cast<double>(values.size()) / window_s;
    window.p50_us = percentile(values, 50.0);
    window.p99_us = percentile(values, 99.0);
    window.cpu_per_job_us = serving_cpu_seconds(serving[w], serving[w + 1]) *
                            1e6 / static_cast<double>(values.size());
    window.serve_cpu_per_job_us =
        static_cast<double>(serving[w + 1].own - serving[w].own) /
        static_cast<double>(::sysconf(_SC_CLK_TCK)) * 1e6 /
        static_cast<double>(values.size());
    out.window_log.push_back(window);
  }
  // Steal-aware: each end-to-end figure is the median over the quiet
  // windows, or over the kQuietWindows least-stolen ones when fewer are
  // quiet. A stolen slice of a few ms stalls whichever job is in flight, so
  // p99 rises by about a tenth at 1 % steal and a quarter at 2 %; the quiet
  // windows show the program, and the log shows every window.
  std::vector<Window*> quiet;
  for (Window& window : out.window_log) {
    if (window.steal_share <= kQuietSteal) quiet.push_back(&window);
  }
  if (quiet.size() < kQuietWindows) {
    quiet.clear();
    for (Window& window : out.window_log) quiet.push_back(&window);
    std::stable_sort(quiet.begin(), quiet.end(), [](const Window* x, const Window* y) {
      return x->steal_share < y->steal_share;
    });
    quiet.resize(std::min(kQuietWindows, quiet.size()));
  }
  std::vector<double> rates, p50s, p99s, cpus;
  for (Window* window : quiet) {
    window->selected = true;
    rates.push_back(window->jobs_per_s);
    p50s.push_back(window->p50_us);
    p99s.push_back(window->p99_us);
    cpus.push_back(window->cpu_per_job_us);
  }
  out.windows = windows;
  out.selected_windows = static_cast<int>(rates.size());
  out.timed_jobs = all.samples.size();
  out.jobs_per_s = median(rates);
  out.job_p50_us = median(p50s);
  out.job_p99_us = median(p99s);
  out.cpu_per_job_us = median(cpus);

  std::vector<double> positions;
  std::uint64_t cached = 0;
  for (const Sample& sample : all.samples) {
    positions.push_back(sample.queue_position);
    if (sample.cached) ++cached;
  }
  out.hit_ratio = all.samples.empty()
                      ? 0.0
                      : static_cast<double>(cached) /
                            static_cast<double>(all.samples.size());
  out.queue_position_p99 = percentile(positions, 99.0);
  out.reported_exec_us = median(all.executed_exec_us);
  out.server_overhead_us = median(all.executed_overhead_us);
  out.steal_share = steal_between(0, host.size() - 1);
  out.loadgen_cpu_per_job_us =
      out.timed_jobs > 0 ? (self_after - self_before) * 1e6 /
                               static_cast<double>(out.timed_jobs)
                         : 0.0;
  if (shape.store) std::filesystem::remove_all(kStoreDir);
  return out;
}

}  // namespace labbench

namespace {

using labbench::Metric;
using labbench::number;

int usage(const char* error) {
  std::fprintf(stderr,
               "labbench_loadgen: %s\nusage: labbench_loadgen --workload "
               "class-replay|cold-explore|durable-fleet --seed N --seconds S "
               "--trace 0|1 --pdclab PATH [--trace-out FILE] [--smoke] [--fault "
               "wrong-output|lost-job]\n",
               error);
  return 64;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %-6s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  labbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        const auto workload = labbench::parse_workload(value());
        if (!workload) return usage("unknown workload");
        options.workload = *workload;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        if (!(options.seconds > 0)) return usage("--seconds must be > 0");
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace must be 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--pdclab") {
        options.pdclab = value();
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--fault") {
        options.fault = value();
        if (options.fault != "wrong-output" && options.fault != "lost-job") {
          return usage("unknown fault");
        }
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception& error) {
      return usage(error.what());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (options.pdclab.empty()) return usage("--pdclab is required");
  ::setenv("TMPDIR", "tmp", 1);  // shard pool scratch sockets stay here
  ::mkdir("tmp", 0755);

  const char* name = labbench::workload_name(options.workload);
  labbench::EndToEnd e2e;
  std::vector<Metric> layers;
  try {
    const labbench::Prepared prepared = labbench::prepare(options);
    e2e = labbench::run_end_to_end(options, prepared);
    if (options.trace) layers = labbench::run_replay(options, prepared, e2e);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "labbench_loadgen: %s: %s\n", name, error.what());
    return 1;
  }

  const std::string samples =
      "n=" + std::to_string(e2e.timed_jobs) + " jobs; median of the " +
      std::to_string(e2e.selected_windows) + " quietest of " +
      std::to_string(e2e.windows) + " windows (*)";
  const std::vector<Metric> end_to_end = {
      {"jobs_per_s", e2e.jobs_per_s, "1/s", samples},
      {"job_p50_us", e2e.job_p50_us, "us", samples},
      {"job_p99_us", e2e.job_p99_us, "us", samples},
      {"cpu_per_job_us", e2e.cpu_per_job_us, "us", samples},
      {"setup_s", e2e.setup_s, "s",
       "median of " + std::to_string(e2e.launches) + " launches"},
  };
  std::printf("workload %s seed %llu: attempted %llu, failed %llu "
              "(rejected %llu, lost %llu, wrong %llu)%s\n",
              name, static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(e2e.attempted),
              static_cast<unsigned long long>(e2e.failed),
              static_cast<unsigned long long>(e2e.rejected),
              static_cast<unsigned long long>(e2e.lost),
              static_cast<unsigned long long>(e2e.wrong),
              options.trace ? " [end-to-end part of the traced run]" : "");
  for (const std::string& problem : e2e.problems) {
    std::printf("  FAILED: %s\n", problem.c_str());
  }
  print_metrics(end_to_end);
  for (std::size_t w = 0; w < e2e.window_log.size(); ++w) {
    const labbench::Window& window = e2e.window_log[w];
    std::printf("  window %2zu%c steal %5.1f%%  %9.1f jobs/s  p50 %8.1f us  "
                "p99 %8.1f us  cpu/job %7.1f us (serve process %.1f)\n",
                w, window.selected ? '*' : ':', 100 * window.steal_share,
                window.jobs_per_s, window.p50_us, window.p99_us,
                window.cpu_per_job_us, window.serve_cpu_per_job_us);
  }
  std::printf("  host.steal_share %s  loadgen.cpu_per_job_us %s\n",
              number(e2e.steal_share).c_str(),
              number(e2e.loadgen_cpu_per_job_us).c_str());
  if (options.trace) {
    std::printf("per-layer (%s):\n", name);
    print_metrics(layers);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              e2e.correct ? "true" : "false",
              static_cast<unsigned long long>(e2e.attempted),
              static_cast<unsigned long long>(e2e.failed),
              json_metrics(options.trace ? layers : end_to_end).c_str());
  return e2e.correct ? 0 : 1;
}
