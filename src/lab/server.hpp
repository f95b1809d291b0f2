#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.hpp"
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
/// Reject frames back.
///
/// Threads: `workers` worker threads and kReaders reader threads, however
/// many clients connect. Each reader owns an epoll set holding the shared
/// listener (EPOLLEXCLUSIVE: one reader takes each new connection) and the
/// sessions it accepted. A ready session gets one non-blocking read; every
/// complete frame in it is handled on the reader (admission, cache hits,
/// Status, Cancel, Report) and a partial frame waits in the session's
/// buffer. No reply blocks a thread: bytes the socket does not take wait in
/// the session's outbox until its reader sees the socket writable, and a
/// client whose outbox passes kOutboxCapBytes is dropped. stop() tears all
/// of it down deterministically.
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
  /// Reader threads. Fixed, not configurable: two keep up with class-replay
  /// (~70k frames/s plus ~23k accepts/s on 4 vCPUs) and the count does not
  /// grow with connections.
  static constexpr int kReaders = 2;
  /// Unsent reply bytes a session may hold. Above one largest frame (a
  /// Result is at most wire::kMaxControlBodyBytes); a client that stops
  /// reading for longer is dropped and its undelivered Results are lost.
  static constexpr std::size_t kOutboxCapBytes = 4u << 20;

  /// One client connection, owned by the reader that accepted it. Workers
  /// and the reader both send; sends serialize on `mutex_`. Only the owning
  /// reader reads, flushes on EPOLLOUT, and closes.
  class Session {
   public:
    Session(net::Socket socket, int epoll_fd, std::uint64_t& lost_results);

    /// Queue one or more whole frames for the client without blocking: a
    /// non-blocking send, and what the socket does not take waits in the
    /// outbox for the reader to flush. Returns false (`frames` will not
    /// arrive whole) when the session is closed, or when the outbox would
    /// pass kOutboxCapBytes: then the client is dropped and the Results
    /// still in its outbox count as lost. `ends_in_result`: the last frame
    /// is a Result, to be counted so if it never reaches the socket.
    bool send(const mp::Bytes& frames, bool ends_in_result = false);

    // ---- the owning reader only ----------------------------------------
    /// EPOLLOUT: write what the outbox holds.
    void flush();
    /// Read no more frames; the session closes once its outbox drains.
    void stop_reading();
    [[nodiscard]] bool reading() const noexcept { return reading_; }
    /// Closed, or done reading with nothing left to send.
    [[nodiscard]] bool finished();
    /// Close the socket; Results still in the outbox count as lost.
    void close();

    net::Socket socket;
    /// Buffered bytes of the next frame(s).
    net::FrameReader inbox;
    /// This connection's admission decision stream on
    /// chaos::kLabAdmitActor, carried across the frames it sends.
    chaos::ActorScope::Cursor admit_lane;

   private:
    /// Write from `data` until done or EAGAIN, adding to `*written`;
    /// false when the peer is gone.
    bool write_some(const std::byte* data, std::size_t n,
                    std::size_t* written);
    /// Point the reader's epoll interest at what the session waits for.
    void watch_locked();
    void drop_locked();

    const int epoll_fd_;
    std::uint64_t& lost_results_;  ///< the server's counter (atomic_ref)
    std::mutex mutex_;
    bool open_ = true;
    bool reading_ = true;  ///< written by the reader, under mutex_
    std::uint32_t watched_ = 0;  ///< current epoll event mask
    mp::Bytes outbox_;
    std::size_t outbox_begin_ = 0;
    /// Stream offsets: bytes handed to send() and bytes written so far.
    std::uint64_t queued_ = 0;
    std::uint64_t written_ = 0;
    /// Stream offsets where each undelivered Result frame ends.
    std::deque<std::uint64_t> result_ends_;
  };

  void reader_loop(int epoll_fd);
  /// Accept one pending connection into this reader's epoll set.
  void accept_one(int epoll_fd,
                  std::unordered_map<int, std::shared_ptr<Session>>& sessions);
  /// One read from a ready session, then every complete frame in it.
  void serve(const std::shared_ptr<Session>& session, mp::Bytes& body);
  /// Handle one client frame; false once the client said Bye.
  bool dispatch(const std::shared_ptr<Session>& session,
                const wire::Header& header, const mp::Bytes& body);
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
  /// The wall every client verb (`verb`: "submit", "cancel", "report")
  /// passes: a tenant id, then token auth against the eager-beaver
  /// firewall, keyed by tenant. A blocked tenant is refused with
  /// `locked_reason` even with the right token; wrong tokens from any verb
  /// count toward one lockout, and the right token clears the count.
  /// Returns whether the caller may go on; otherwise the Reject is sent.
  bool authorize(const std::shared_ptr<Session>& session, const char* verb,
                 const std::string& tenant, const std::string& token,
                 const char* locked_reason = "tenant is locked out");
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

  std::vector<std::thread> workers_;
  /// One epoll set per reader, and the eventfd stop() uses to tell the
  /// readers to flush and close their sessions.
  std::vector<net::Socket> reader_epolls_;
  std::vector<std::thread> readers_;
  net::Socket wake_;

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

  /// The counted fields of stats(), each read and written only through a
  /// relaxed std::atomic_ref; stats() fills in the rest.
  mutable ServerStats stats_;
};

}  // namespace pdc::lab
