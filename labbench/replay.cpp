// The traced run: the workload's inputs, regenerated from the same seed,
// fed through each layer's public functions in the order the server calls
// them (decode → digest → cache → queue → execute or dispatch → journal →
// encode), with a span around every call. Layers a workload's path never
// reaches are measured by probes over the same inputs, so every per-layer
// metric exists on every workload. Spans stay in memory and are written as
// Chrome trace JSON when the run ends.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "labbench.hpp"
#include "served_lab.hpp"
#include "lab/cache.hpp"
#include "lab/client.hpp"
#include "lab/executor.hpp"
#include "lab/queue.hpp"
#include "lab/shard.hpp"
#include "mp/runtime.hpp"
#include "store/store.hpp"
#include "trace/json_lint.hpp"

namespace labbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Pipeline jobs replayed after set-up; enough for stable medians, small
/// enough that the trace file stays a few MB.
constexpr std::size_t kReplayJobs = 3000;
constexpr std::size_t kProbeJobs = 300;

struct Span {
  std::string name;
  std::uint64_t job = 0;  ///< spans of one job share it; 0 = set-up/probe
  int parent = -1;        ///< index of the enclosing span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Single-threaded: the replay calls each layer
/// from this thread (the two-appender store probe is recorded as one span).
class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) {}

  int open(std::string name, std::uint64_t job, int parent) {
    spans_.push_back({std::move(name), job, parent, now_ns(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  void rename(int index, std::string name) {
    spans_[static_cast<std::size_t>(index)].name = std::move(name);
  }

  /// A child that ends with `parent` and lasted what a layer reported
  /// about itself (a shard worker's exec_us), clamped inside the parent.
  void reported(std::string name, int parent, std::int64_t duration_ns) {
    const Span& outer = spans_[static_cast<std::size_t>(parent)];
    const std::int64_t start =
        std::max(outer.start_ns, outer.end_ns - duration_ns);
    spans_.push_back({std::move(name), outer.job, parent, start, outer.end_ns});
  }

  [[nodiscard]] std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(std::count_if(
        spans_.begin(), spans_.end(),
        [&name](const Span& s) { return s.name == name; }));
  }

  template <class F>
  auto span(const char* name, std::uint64_t job, int parent, F&& body) {
    const int index = open(name, job, parent);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      close(index);
    } else {
      auto value = body();
      close(index);
      return value;
    }
  }

  /// Durations (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Self times (ns): each span minus the time its children cover.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_times() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i]);
    }
    return out;
  }

  /// Chrome trace JSON: one "X" event per span (µs timestamps with ns
  /// digits), the job id and parent name in args.
  [[nodiscard]] std::string chrome_json(const std::string& lane) const {
    std::string out =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\","
        "\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"" + lane + "\"}}";
    char buffer[160];
    for (const Span& s : spans_) {
      std::snprintf(buffer, sizeof buffer,
                    ",{\"name\":\"%s\",\"cat\":\"labbench\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out += buffer;
      out += "\"args\":{\"job\":" + std::to_string(s.job) + ",\"parent\":\"" +
             (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                            : std::string()) +
             "\"}}";
    }
    return out + "]}";
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

pdc::mp::Bytes body_of(const pdc::mp::Bytes& frame) {
  return pdc::mp::Bytes(frame.begin() + pdc::net::wire::kHeaderBytes, frame.end());
}

/// The server-side layers, shaped like the served lab of the workload.
struct Layers {
  explicit Layers(const ServeShape& shape)
      : cache(shape.cache), queue(pdc::lab::FairQueue::Policy{}) {}

  pdc::lab::Executor executor;
  pdc::lab::ResultCache cache;
  pdc::lab::FairQueue queue;
  std::unique_ptr<pdc::lab::WorkerPool> pool;  ///< --executor socket
  std::unique_ptr<pdc::store::Store> store;    ///< --store
};

struct Served {
  protocol::Result result;
  std::size_t frame_bytes = 0;  ///< Submit + Accept + Result frames
};

/// One job through the layers in the server's order.
Served serve_job(Recorder& rec, Layers& layers, const protocol::Submit& submit,
                 std::uint64_t job_id) {
  Served out;
  const int root = rec.open("job", job_id, -1);
  protocol::Submit decoded = rec.span("lab.protocol.submit_codec", job_id, root, [&] {
    const pdc::mp::Bytes frame = protocol::encode_submit(submit);
    out.frame_bytes += frame.size();
    return protocol::decode_submit(body_of(frame));
  });
  const std::uint64_t digest = rec.span("lab.protocol.digest", job_id, root,
                                        [&] { return protocol::digest(decoded); });
  const int lookup = rec.open("lab.cache.lookup_miss", job_id, root);
  std::optional<protocol::Result> cached = layers.cache.lookup(digest);
  rec.close(lookup);
  protocol::Result result;
  if (cached) {
    rec.rename(lookup, "lab.cache.lookup_hit");
    result = std::move(*cached);
  } else {
    pdc::lab::Job job;
    job.id = job_id;
    job.submit = decoded;
    job.digest = digest;
    const pdc::lab::Job popped = rec.span("lab.queue.push_pop", job_id, root, [&] {
      layers.queue.push(std::move(job));
      return *layers.queue.pop();
    });
    if (layers.pool) {
      const int dispatch = rec.open("lab.shard.execute", job_id, root);
      result = layers.pool->execute(0, job_id, popped.submit, {});
      rec.close(dispatch);
      rec.reported("lab.shard.worker_exec", dispatch,
                   static_cast<std::int64_t>(result.exec_us) * 1000);
    } else {
      result = rec.span("lab.executor.execute", job_id, root,
                        [&] { return layers.executor.execute(popped.submit); });
    }
    if (result.exit_code == 0) {
      const bool full = layers.cache.size() >= layers.cache.capacity();
      rec.span(full ? "lab.cache.insert_evict" : "lab.cache.insert", job_id, root,
               [&] { layers.cache.insert(digest, result); });
    }
  }
  if (layers.store) {
    const pdc::store::ResultRecord record = to_record(decoded, result);
    rec.span("store.put_result", job_id, root,
             [&] { layers.store->put_result(record); });
  }
  result.job_id = job_id;
  protocol::Accept accept;
  accept.job_id = job_id;
  out.frame_bytes += protocol::encode_accept(accept).size();
  out.result = rec.span("lab.protocol.result_codec", job_id, root, [&] {
    const pdc::mp::Bytes frame = protocol::encode_result(result);
    out.frame_bytes += frame.size();
    return protocol::decode_result(body_of(frame));
  });
  rec.close(root);
  return out;
}

pdc::store::StoreConfig store_config(const std::string& dir) {
  pdc::store::StoreConfig config;
  config.dir = dir;
  return config;
}

pdc::lab::WorkerPoolConfig pool_config(const Options& options) {
  pdc::lab::WorkerPoolConfig config;
  config.workers = kWorkers;
  config.worker_bin = options.pdclab;
  return config;
}

/// Three start/stop cycles of the shard fleet; the last pool stays up.
std::unique_ptr<pdc::lab::WorkerPool> start_pool(Recorder& rec,
                                                 const Options& options) {
  std::unique_ptr<pdc::lab::WorkerPool> pool;
  for (int cycle = 0; cycle < 3; ++cycle) {
    if (pool) pool->stop();
    pool = std::make_unique<pdc::lab::WorkerPool>(pool_config(options));
    rec.span("lab.shard.start", 0, -1, [&] { pool->start(); });
  }
  return pool;
}

/// Median duration of the spans named `name`, in units of `unit_ns`
/// nanoseconds (division keeps the printed digits short).
double median_of(const Recorder& rec, const std::string& name, double unit_ns) {
  return median(rec.durations(name)) / unit_ns;
}

double self_median(const std::map<std::string, std::vector<double>>& self,
                   const std::string& name, double unit_ns) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : median(it->second) / unit_ns;
}

}  // namespace

std::vector<Metric> run_replay(const Options& options, const Prepared& prepared,
                               const EndToEnd& e2e) {
  namespace fs = std::filesystem;
  const ServeShape& shape = prepared.shape;
  Recorder rec;
  Layers layers(shape);
  std::uint64_t failures = 0;
  const auto fail = [&failures](const std::string& what) {
    if (++failures <= 5) std::printf("  FAILED (replay): %s\n", what.c_str());
  };

  // ---- set-up, as the served lab starts ------------------------------------
  if (shape.store) {
    fs::remove_all("replay-store");
    fs::copy(prepared.seeded_store, "replay-store", fs::copy_options::recursive);
    for (int open = 0; open < 3; ++open) {
      layers.store.reset();
      rec.span("store.recover", 0, -1, [&] {
        layers.store = std::make_unique<pdc::store::Store>(store_config("replay-store"));
      });
    }
    rec.span("lab.cache.warm", 0, -1, [&] {
      for (const auto& [digest, record] : layers.store->results()) {
        if (!record.cacheable()) continue;
        protocol::Result result;
        result.exec_us = record.exec_us;
        result.output = record.output;
        layers.cache.insert(digest, std::move(result));
      }
    });
  }
  if (shape.socket_executor) layers.pool = start_pool(rec, options);

  std::uint64_t next_id = 1;
  if (options.workload == Workload::ClassReplay) {
    for (std::size_t i = 0; i < prepared.assignment.size(); ++i) {
      protocol::Submit submit = prepared.assignment[i];
      submit.tenant = "instructor";
      const Served served = serve_job(rec, layers, submit, next_id++);
      if (!same_lines(served.result.output, prepared.assignment_results[i].output)) {
        fail("set-up output of " + submit.name + " differs from the Executor's");
      }
    }
  }

  // ---- the pipeline over the workload's streams -----------------------------
  std::vector<JobStream> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back(options.workload, options.seed, c, prepared.history);
  }
  std::vector<std::pair<protocol::Submit, protocol::Result>> replayed;
  std::vector<double> bytes_per_job;
  const auto budget_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(options.seconds / 2));
  for (std::size_t n = 0; n < kReplayJobs && Clock::now() < budget_end; ++n) {
    const Job job = streams[n % streams.size()].next();
    const Served served = serve_job(rec, layers, job.submit, next_id++);
    bytes_per_job.push_back(static_cast<double>(served.frame_bytes));
    if (served.result.exit_code != 0) fail("job exit " + std::to_string(served.result.exit_code));
    if (job.history_index >= 0 &&
        served.result.output !=
            prepared.history_results[static_cast<std::size_t>(job.history_index)].output) {
      fail("seeded repeat returned another output");
    }
    replayed.emplace_back(job.submit, served.result);
  }
  const std::size_t probe_count = std::min(kProbeJobs, replayed.size());

  // ---- probes over the same inputs, for layers off this workload's path -----
  for (std::size_t i = 0; i < probe_count; ++i) {
    const int np = replayed[i].first.np;
    rec.span("mp.run_empty", 0, -1,
             [&] { pdc::mp::run(np, [](pdc::mp::Communicator&) {}); });
  }
  if (rec.count("lab.cache.lookup_hit") < 100) {
    // Explored jobs never hit; look up what the pipeline just inserted.
    for (std::size_t i = replayed.size() - probe_count; i < replayed.size(); ++i) {
      const std::uint64_t digest = protocol::digest(replayed[i].first);
      const int lookup = rec.open("lab.cache.lookup_hit", 0, -1);
      const bool hit = layers.cache.lookup(digest).has_value();
      rec.close(lookup);
      if (!hit) rec.rename(lookup, "lab.cache.lookup_miss");
    }
  }
  if (rec.count("lab.queue.push_pop") < 100) {
    for (std::size_t i = 0; i < probe_count; ++i) {
      pdc::lab::Job job;
      job.id = next_id++;
      job.submit = replayed[i].first;
      rec.span("lab.queue.push_pop", 0, -1, [&] {
        layers.queue.push(std::move(job));
        (void)layers.queue.pop();
      });
    }
  }
  if (rec.count("lab.executor.execute") < 100) {
    for (std::size_t i = 0; i < probe_count; ++i) {
      const protocol::Result result = rec.span("lab.executor.execute", 0, -1, [&] {
        return layers.executor.execute(replayed[i].first);
      });
      if (result.exit_code != 0) fail("executor probe failed");
    }
  }
  if (rec.count("lab.cache.insert_evict") < 100) {
    // A cache of the served lab's capacity, filled, then written to.
    pdc::lab::ResultCache full(shape.cache);
    for (std::size_t d = 0; d < shape.cache; ++d) full.insert(~d, protocol::Result{});
    for (std::size_t i = 0; i < probe_count; ++i) {
      const std::uint64_t digest = protocol::digest(replayed[i].first) + next_id++;
      rec.span("lab.cache.insert_evict", 0, -1,
               [&] { full.insert(digest, replayed[i].second); });
    }
  }
  if (!layers.pool) {
    layers.pool = start_pool(rec, options);
    for (std::size_t i = 0; i < probe_count; ++i) {
      const int dispatch = rec.open("lab.shard.execute", 0, -1);
      const protocol::Result result =
          layers.pool->execute(0, next_id++, replayed[i].first, {});
      rec.close(dispatch);
      rec.reported("lab.shard.worker_exec", dispatch,
                   static_cast<std::int64_t>(result.exec_us) * 1000);
      if (result.exit_code != 0) fail("shard probe failed");
    }
  }
  const double respawns = static_cast<double>(layers.pool->respawns());
  layers.pool->stop();
  if (!layers.store) {
    fs::remove_all("probe-store");
    {
      pdc::store::Store store(store_config("probe-store"));
      for (std::size_t i = 0; i < probe_count; ++i) {
        const auto record = to_record(replayed[i].first, replayed[i].second);
        rec.span("store.put_result", 0, -1, [&] { store.put_result(record); });
      }
    }
    fs::remove_all("probe-store");
    // Recovery over a semester-sized history (as many records as the
    // durable-fleet store is seeded with) built from this workload's
    // results, each under its own digest.
    fs::remove_all("probe-history");
    {
      pdc::store::StoreConfig config = store_config("probe-history");
      config.fsync = false;
      pdc::store::Store history(config);
      for (std::size_t i = 0; i < kHistoryRecords; ++i) {
        const auto& [submit, result] = replayed[i % replayed.size()];
        pdc::store::ResultRecord record = to_record(submit, result);
        record.digest ^= (i + 1) * 0x9E3779B97F4A7C15ull;
        history.put_result(record);
      }
      history.compact();
    }
    for (int open = 0; open < 3; ++open) {
      rec.span("store.recover", 0, -1,
               [&] { pdc::store::Store reopened(store_config("probe-history")); });
    }
    fs::remove_all("probe-history");
  }
  // Group commit: two appenders journaling the workload's results at once.
  double appends_per_fsync = 0.0, bytes_per_record = 0.0;
  {
    fs::remove_all("probe-store2");
    pdc::store::Store store(store_config("probe-store2"));
    rec.span("store.two_appenders", 0, -1, [&] {
      std::vector<std::thread> appenders;
      for (int t = 0; t < 2; ++t) {
        appenders.emplace_back([&, t] {
          for (std::size_t i = static_cast<std::size_t>(t); i < probe_count; i += 2) {
            store.put_result(to_record(replayed[i].first, replayed[i].second));
          }
        });
      }
      for (std::thread& appender : appenders) appender.join();
    });
    const auto appends = static_cast<double>(store.wal_appends());
    appends_per_fsync = appends / std::max<double>(1.0, static_cast<double>(store.wal_fsyncs()));
    bytes_per_record = static_cast<double>(store.wal_bytes()) / std::max(1.0, appends);
  }
  fs::remove_all("probe-store2");
  layers.store.reset();
  fs::remove_all("replay-store");

  // The network front end, against a served lab of the workload's shape.
  {
    if (shape.store) {
      fs::remove_all(kStoreDir);
      fs::copy(prepared.seeded_store, kStoreDir, fs::copy_options::recursive);
    }
    ServedLab lab(options.pdclab, shape);
    lab.wait_ready();
    pdc::lab::ClientConfig config;
    config.endpoint = pdc::net::Endpoint::parse(kEndpoint);
    for (std::size_t i = 0; i < kProbeJobs; ++i) {
      const int open = rec.open("net.session_open", 0, -1);
      pdc::lab::Client client(config);
      (void)client.query_status(0);
      rec.close(open);
    }
    pdc::lab::Client client(config);
    for (std::size_t i = 0; i < 4 * kProbeJobs; ++i) {
      rec.span("net.status_rtt", 0, -1, [&] { (void)client.query_status(0); });
    }
    client.close();
    lab.stop();
    if (shape.store) fs::remove_all(kStoreDir);
  }

  // ---- spans out --------------------------------------------------------------
  const std::string json = rec.chrome_json(std::string("labbench ") +
                                           workload_name(options.workload));
  std::string lint_error;
  if (!pdc::trace::is_valid_json(json, &lint_error)) {
    fail("trace JSON invalid: " + lint_error);
  }
  if (!options.trace_out.empty()) {
    std::ofstream(options.trace_out) << json;
    std::printf("spans written to %s\n", options.trace_out.c_str());
  }

  const auto self = rec.self_times();
  std::printf("span self times (%s), median over spans:\n", workload_name(options.workload));
  for (const auto& [name, values] : self) {
    std::printf("  %-26s n=%-6zu self %10.3f us   total %10.3f us\n", name.c_str(),
                values.size(), median(values) / 1e3, median_of(rec, name, 1e3));
  }

  const double us = 1e3, ms = 1e6;
  std::vector<Metric> metrics = {
      {"net.session_open_us", median_of(rec, "net.session_open", us), "us", ""},
      {"net.status_rtt_us", median_of(rec, "net.status_rtt", us), "us", ""},
      {"lab.protocol.submit_codec_ns", median_of(rec, "lab.protocol.submit_codec", 1.0), "ns", ""},
      {"lab.protocol.result_codec_ns", median_of(rec, "lab.protocol.result_codec", 1.0), "ns", ""},
      {"lab.protocol.bytes_per_job", median(bytes_per_job), "bytes", ""},
      {"lab.cache.lookup_hit_ns", median_of(rec, "lab.cache.lookup_hit", 1.0), "ns", ""},
      {"lab.cache.insert_evict_ns", median_of(rec, "lab.cache.insert_evict", 1.0), "ns", ""},
      {"lab.cache.hit_ratio", e2e.hit_ratio, "ratio", "from frames"},
      {"lab.queue.push_pop_ns", median_of(rec, "lab.queue.push_pop", 1.0), "ns", ""},
      {"lab.queue.position_p99", e2e.queue_position_p99, "count", "from frames"},
      {"lab.executor.exec_us", median_of(rec, "lab.executor.execute", us), "us", ""},
      {"lab.executor.reported_exec_us", e2e.reported_exec_us, "us", "from frames"},
      {"lab.server.overhead_us", e2e.server_overhead_us, "us", "from frames"},
      {"mp.run_overhead_us", median_of(rec, "mp.run_empty", us), "us", ""},
      {"lab.shard.dispatch_us", self_median(self, "lab.shard.execute", us), "us", "self time"},
      {"lab.shard.spawn_ms", median_of(rec, "lab.shard.start", ms) / kWorkers, "ms", ""},
      {"lab.shard.respawns", respawns, "count", ""},
      {"store.put_result_us", median_of(rec, "store.put_result", us), "us", ""},
      {"store.appends_per_fsync", appends_per_fsync, "ratio", "2 appenders"},
      {"store.bytes_per_record", bytes_per_record, "bytes", ""},
      {"store.recover_ms", median_of(rec, "store.recover", ms), "ms", ""},
      {"store.warmed", static_cast<double>(e2e.warmed), "count", "ready line"},
      {"host.steal_share", e2e.steal_share, "ratio", ""},
      {"loadgen.cpu_per_job_us", e2e.loadgen_cpu_per_job_us, "us", ""},
  };

  // Reconciliation: the untraced p50 against the blocking-path layers.
  const auto value = [&metrics](const std::string& name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double front = value("net.status_rtt_us") +
                       (value("lab.protocol.submit_codec_ns") +
                        median_of(rec, "lab.protocol.digest", 1.0) +
                        value("lab.protocol.result_codec_ns")) / us;
  const auto tenths = [](double v) {
    char text[32];
    std::snprintf(text, sizeof text, "%.1f", v);
    return std::string(text);
  };
  double path = front;
  std::string terms = "rtt+codec+digest " + tenths(front);
  if (options.workload == Workload::ClassReplay) {
    // A fresh connection per two-job session: half a session open per job.
    const double open = value("net.session_open_us") / 2;
    path += open + value("lab.cache.lookup_hit_ns") / us;
    terms += " + session open/2 " + tenths(open) + " + cache hit";
  } else {
    const double miss = (median_of(rec, "lab.cache.lookup_miss", 1.0) +
                         value("lab.queue.push_pop_ns") +
                         median_of(rec, shape.cache > layers.cache.size()
                                            ? "lab.cache.insert"
                                            : "lab.cache.insert_evict",
                                   1.0)) / us;
    path += miss;
    terms += " + cache/queue " + tenths(miss);
    if (shape.socket_executor) {
      const double shard = median_of(rec, "lab.shard.execute", us);
      const double journal = value("store.put_result_us");
      path += shard + journal;
      terms += " + shard dispatch+exec " + tenths(shard) + " + put_result " + tenths(journal);
    } else {
      path += value("lab.executor.exec_us");
      terms += " + exec " + tenths(value("lab.executor.exec_us"));
    }
  }
  std::printf("reconcile %s: job_p50_us %s (untraced) vs blocking-path layer sum %s "
              "(%s); unexplained %s us\n",
              workload_name(options.workload), tenths(e2e.job_p50_us).c_str(),
              tenths(path).c_str(), terms.c_str(), tenths(e2e.job_p50_us - path).c_str());
  if (failures > 0) throw std::runtime_error("the traced replay saw wrong outputs");
  return metrics;
}

}  // namespace labbench
