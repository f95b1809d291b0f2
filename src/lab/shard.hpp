#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lab/executor.hpp"
#include "lab/protocol.hpp"
#include "net/socket.hpp"

namespace pdc::lab {

/// Chaos site injected after each Dispatch is written to a worker process:
/// an injected abort here is translated into a real SIGKILL of that worker,
/// so a chaos sweep over the shard pool exercises the same crash-detection,
/// respawn and redispatch path a segfaulting student job would.
inline constexpr const char* kShardKillSite = "lab.shard.kill";

struct WorkerPoolConfig {
  /// Worker processes (one per server worker thread; slot w serves thread w).
  int workers = 2;

  /// Path to the pdclab binary to exec in `worker` mode. Empty: try the
  /// PDCLAB_WORKER_BIN environment variable, then /proc/self/exe when this
  /// process itself is pdclab. Throws at start() when nothing resolves.
  std::string worker_bin;

  /// Forwarded to each worker's own Executor (--max-np).
  ExecutorConfig executor;

  /// fork → accepted connection + Hello deadline. A binary that is not a
  /// pdclab worker (or dies on startup) surfaces here.
  int spawn_timeout_ms = 10000;

  /// Longest silence tolerated from a worker executing a job. The worker
  /// heartbeats an empty Status every `heartbeat_ms` while running, so only
  /// a truly wedged process (hung job, stopped worker) goes silent this
  /// long — it is SIGKILLed and the job redispatched.
  int hang_timeout_ms = 30000;

  /// Worker-side cadence for flushing buffered output lines / heartbeats.
  int heartbeat_ms = 250;

  /// Dispatch attempts per job across worker crashes before the job is
  /// declared failed (a job that reliably kills its worker must not respawn
  /// forever).
  int max_attempts = 3;
};

/// A fleet of forked pdclab worker processes, one per slot, each reached
/// over a private unix socket speaking PDCN Dispatch/Status/Result frames.
/// This is what makes ExecMode::Socket a real isolation boundary: a job
/// that crashes or hangs takes down one worker *process*, the pool reaps
/// it, respawns a fresh worker and redispatches the job — the server and
/// every other tenant's job keep running.
///
/// Threading contract: slot `s` is owned by exactly one server worker
/// thread, which is the only caller of execute(s, ...). cancel() and
/// slot_pid() may race execute() from other threads; per-slot state they
/// share is mutex/atomic-guarded. start()/stop() bracket all of it.
class WorkerPool {
 public:
  using StatusSink = std::function<void(const protocol::Status&)>;

  explicit WorkerPool(WorkerPoolConfig config);

  /// stop()s the fleet.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Resolve the worker binary, create the per-slot listeners (in a private
  /// scratch dir) and spawn the initial fleet. A slot whose first spawn
  /// fails is left empty and retried at its first execute(). Throws
  /// pdc::InvalidArgument when no worker binary resolves.
  void start();

  /// Say Bye to every worker, give each a short grace to exit, then
  /// SIGKILL + reap the stragglers and remove the scratch dir. Idempotent.
  /// Callers must have joined every thread that may be inside execute().
  void stop();

  /// Run one job on slot `slot`'s worker process, blocking until a terminal
  /// Result. Never throws: worker crashes and hangs are absorbed by
  /// respawn + redispatch (bounded by max_attempts), and the exhausted
  /// budget comes back as an exit_code 2 Result. A cancel() that lands
  /// mid-run comes back as exit_code 130 with error "cancelled by tenant".
  /// `on_status` (optional) receives every non-empty incremental Status the
  /// worker streams, on this thread.
  protocol::Result execute(int slot, std::uint64_t job_id,
                           const protocol::Submit& submit,
                           const StatusSink& on_status);

  /// Kill the worker process currently executing `job_id` (SIGKILL — the
  /// job may be wedged). The owning execute() observes the death and
  /// returns the cancelled Result instead of redispatching. Returns false
  /// when no slot is executing that job (already finished or never
  /// dispatched).
  bool cancel(std::uint64_t job_id);

  [[nodiscard]] int workers() const noexcept { return config_.workers; }

  /// Worker processes respawned after a crash/hang/kill (not the initial
  /// spawns). The chaos sweeps assert this moved.
  [[nodiscard]] std::uint64_t respawns() const noexcept {
    return respawns_.load(std::memory_order_relaxed);
  }

  /// Jobs dispatched to the fleet (counted once per job, not per attempt) —
  /// the pool-mode contribution to ServerStats::executed.
  [[nodiscard]] std::uint64_t executions() const noexcept {
    return executions_.load(std::memory_order_relaxed);
  }

  /// The live worker pid of `slot`, or -1 when none (tests kill this
  /// directly to simulate a crashed worker).
  [[nodiscard]] pid_t slot_pid(int slot) const;

 private:
  struct Slot {
    int index = 0;
    net::Endpoint endpoint;  ///< this slot's private unix listener address
    net::Socket listener;
    /// Guards pid/conn lifecycle (spawn/reap/stop vs cancel's kill).
    mutable std::mutex mutex;
    net::Socket conn;   ///< connection to the live worker; invalid = none
    pid_t pid = -1;
    bool ever_spawned = false;  ///< a later spawn is a respawn
    /// Job currently dispatched on this slot (0 = idle) and whether a
    /// cancel was requested for it.
    std::atomic<std::uint64_t> job{0};
    std::atomic<bool> cancelled{false};
  };

  /// Fork + exec a fresh worker for `slot`, accept its connection and wait
  /// for its Hello. Caller holds slot.mutex. Throws on failure (child
  /// reaped first).
  void spawn_locked(Slot& slot);

  /// SIGKILL (if still alive) + waitpid + drop the connection. Caller must
  /// NOT hold slot.mutex.
  void reap(Slot& slot);

  WorkerPoolConfig config_;
  std::string worker_bin_;
  std::string scratch_dir_;
  std::vector<std::unique_ptr<Slot>> slots_;
  bool started_ = false;
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> executions_{0};
};

/// The worker-process side (`pdclab worker --connect ... --slot N`): dial
/// the pool's listener, announce readiness with a Hello, then serve
/// Dispatch frames — executing each job on an own Executor while a
/// background streamer batches printed lines into Status frames (plus
/// empty-Status heartbeats, so the pool can tell "long job" from "wedged
/// worker") — until Bye or EOF. Returns the process exit code.
int worker_main(const net::Endpoint& endpoint, int slot,
                const ExecutorConfig& executor, int heartbeat_ms);

}  // namespace pdc::lab
