#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lab/cache.hpp"
#include "lab/executor.hpp"
#include "lab/queue.hpp"
#include "lab/shard.hpp"
#include "net/socket.hpp"
#include "remote/firewall.hpp"
#include "store/store.hpp"

namespace pdc::lab {

/// Where the server's worker threads run an admitted job.
enum class ExecMode {
  Inline,  ///< on the worker thread itself, through the server's Executor
  Socket,  ///< in the worker thread's forked pdclab worker process (the
           ///< WorkerPool), reached over a private unix socket
};

const char* exec_mode_name(ExecMode mode) noexcept;

struct ServerConfig {
  /// Where to listen. Unix path or TCP host:port (port 0 = ephemeral; read
  /// the real one back from Server::endpoint()).
  net::Endpoint endpoint;

  /// Size of the worker fleet (bounded: this is the whole point — a
  /// thousand students share these workers, they do not each get a VM).
  int workers = 2;

  /// The auth token every Submit must carry. Wrong tokens count toward the
  /// firewall lockout — the paper's "eager beaver" incident, served cold.
  std::string token = "hands-on";

  /// Where admitted jobs run (`pdclab serve --executor inline|socket`).
  ExecMode exec_mode = ExecMode::Inline;

  /// Admission limits for the server's Executor; in Socket mode they are
  /// also forwarded to every worker process.
  ExecutorConfig executor;

  /// Shard-pool knobs for ExecMode::Socket, where each worker thread owns
  /// a forked pdclab worker *process* (crash/hang isolation per job).
  /// `shard.workers` and `shard.executor` are overwritten from the
  /// server's own `workers`/`executor` fields at start(); set worker_bin
  /// and the timeouts here. Inline mode ignores all of it.
  WorkerPoolConfig shard;

  std::size_t cache_capacity = 256;
  FairQueue::Policy queue;
  remote::Firewall::Policy firewall{/*max_failures=*/3,
                                    /*lockout_minutes=*/30.0};

  /// Injectable clock for the firewall (minutes). Defaults to minutes of
  /// steady time since start(); tests substitute a hand-cranked clock to
  /// prove lockout expiry without sleeping.
  std::function<double()> now_minutes;

  /// How often the accept loop wakes to notice stop() (ms).
  int accept_poll_ms = 200;

  /// Persistence. `store.dir` empty = the historic in-memory-only shape.
  /// With a store: start() recovers it and warms the result cache with
  /// every cacheable recovered record (warm start ≈ pre-restart hit rate);
  /// every terminal Result is journaled *durable before its frame is sent*
  /// (acked ⇒ it survives a kill); grade-job verdicts are additionally
  /// journaled into the (cohort, mutant, submission) grade index; and
  /// Report queries stream per-cohort aggregates back.
  store::StoreConfig store;
};

/// Monotonic totals since start().
struct ServerStats {
  std::uint64_t submits = 0;      ///< Submit frames that decoded
  std::uint64_t accepted = 0;     ///< admitted (queued or cache-served)
  std::uint64_t rejected = 0;     ///< Reject frames sent
  std::uint64_t completed = 0;    ///< Results delivered with exit_code 0
  std::uint64_t failed = 0;       ///< Results delivered with exit_code != 0
  std::uint64_t cache_hits = 0;   ///< served from the result cache
  std::uint64_t executed = 0;     ///< jobs that reached the Executor
  std::uint64_t lockouts = 0;     ///< times a tenant crossed into lockout
  std::uint64_t lost_results = 0; ///< finished jobs whose client was gone
  std::uint64_t sessions = 0;     ///< connections accepted
  std::uint64_t cancelled = 0;    ///< jobs withdrawn by a Cancel frame
  std::uint64_t worker_respawns = 0;  ///< shard workers respawned after loss
  std::uint64_t warmed_results = 0;   ///< cache entries recovered at start()
  std::size_t queue_depth = 0;    ///< current (not monotonic)
};

/// The multi-tenant lab server: accepts PDCN connections, admits Submit
/// frames through token auth + firewall + quota, schedules admitted jobs on
/// a weighted fair queue feeding a bounded worker fleet, serves identical
/// submissions from the LRU result cache, and streams Accept/Status/Result/
/// Reject frames back. One reader thread per connection, `workers` worker
/// threads, one accept thread; stop() tears all of it down deterministically.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spin up the fleet. Throws net::ConnectionError when
  /// the endpoint cannot be bound.
  void start();

  /// Drain and shut down: refuse new connections, fail still-queued jobs
  /// with a shutdown Result, finish in-flight jobs, close every session.
  /// Idempotent.
  void stop();

  /// The bound endpoint (ephemeral TCP port resolved). Valid after start().
  [[nodiscard]] net::Endpoint endpoint() const;

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const Executor& executor() const noexcept { return executor_; }
  /// The admission firewall (exposed for the workshop-staff unblock path).
  [[nodiscard]] remote::Firewall& firewall() noexcept { return firewall_; }
  /// The shard worker pool (Socket mode, after start(); nullptr inline).
  /// The load driver's chaos monkey reads slot pids off it to pick victims.
  [[nodiscard]] WorkerPool* shard_pool() noexcept { return pool_.get(); }
  /// The persistent store (after start(), when config.store.dir is set;
  /// nullptr otherwise). Outlives stop() so tests can inspect recovery.
  [[nodiscard]] store::Store* store() noexcept { return store_.get(); }

 private:
  /// One client connection. Workers and the reader both write frames, so
  /// sends serialize on `send_mutex`; `alive` flips once the socket dies.
  struct Session {
    net::Socket socket;
    std::mutex send_mutex;
    std::atomic<bool> alive{true};

    /// Serialized best-effort send; returns false (and marks dead) when
    /// the client is gone.
    bool send(const mp::Bytes& frame);
  };

  void accept_loop();
  void session_loop(const std::shared_ptr<Session>& session);
  void worker_loop(int worker_index);

  /// Admission: everything between a decoded Submit and an Accept/Reject
  /// on the wire.
  void admit(const std::shared_ptr<Session>& session,
             protocol::Submit submit);
  /// Cancellation: everything between a decoded Cancel and its Status ack
  /// (or Reject) on the wire.
  void handle_cancel(const std::shared_ptr<Session>& session,
                     const protocol::Cancel& cancel);
  /// Report query: auth, then stream one Cohort frame per cohort + End.
  void handle_report(const std::shared_ptr<Session>& session,
                     const protocol::Report& query);
  void reject(const std::shared_ptr<Session>& session, protocol::RejectCode code,
              const std::string& reason);
  void finish_job(const std::shared_ptr<Session>& session, std::uint64_t job_id,
                  std::uint64_t digest, const protocol::Submit& submit,
                  const protocol::Result& result);
  /// Journal one terminal result (and, for grade jobs, its verdict) into
  /// the store; durable when it returns. No-op without a store.
  void journal(std::uint64_t digest, const protocol::Submit& submit,
               const protocol::Result& result);

  void set_job_state(std::uint64_t job_id, protocol::JobState state);
  [[nodiscard]] protocol::JobState job_state(std::uint64_t job_id) const;

  [[nodiscard]] double now_minutes() const;

  ServerConfig config_;
  Executor executor_;
  ResultCache cache_;
  FairQueue queue_;
  /// The crash-safe persistence layer; null without --store.
  std::unique_ptr<store::Store> store_;
  std::uint64_t warmed_ = 0;  ///< cache entries recovered at start()
  /// The worker-process fleet; null in ExecMode::Inline (rank-per-thread
  /// execution inside this process, the historic shape).
  std::unique_ptr<WorkerPool> pool_;
  remote::Firewall firewall_;
  std::mutex firewall_mutex_;  ///< Firewall itself is not thread-safe

  net::Socket listener_;
  net::Endpoint bound_;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point started_{};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  /// Detached session readers: stop() shuts each socket down, then waits
  /// for `active_sessions_` to reach zero before tearing down the rest.
  mutable std::mutex sessions_mutex_;
  std::condition_variable sessions_cv_;
  std::vector<std::weak_ptr<Session>> sessions_;
  std::size_t active_sessions_ = 0;

  std::atomic<std::uint64_t> next_job_id_{1};

  /// What the server remembers about a job after admission: its lifecycle
  /// state (Status queries) and its tenant (only the submitting tenant may
  /// Cancel it).
  struct JobRecord {
    protocol::JobState state = protocol::JobState::Unknown;
    std::string tenant;
  };

  mutable std::mutex jobs_mutex_;
  std::unordered_map<std::uint64_t, JobRecord> job_states_;

  struct AtomicStats {
    std::atomic<std::uint64_t> submits{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> lockouts{0};
    std::atomic<std::uint64_t> lost_results{0};
    std::atomic<std::uint64_t> sessions{0};
    std::atomic<std::uint64_t> cancelled{0};
  };
  AtomicStats stats_;
};

}  // namespace pdc::lab
