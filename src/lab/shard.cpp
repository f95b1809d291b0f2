#include "lab/shard.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "net/errors.hpp"
#include "net/harness.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::lab {

using protocol::Result;
using protocol::Status;
using protocol::Submit;

namespace {

constexpr std::chrono::milliseconds ms(int n) {
  return std::chrono::milliseconds(n);
}

/// The binary the pool execs: configured path, then $PDCLAB_WORKER_BIN
/// (how the tests and benches point a non-pdclab host process at the real
/// binary), then this very executable when it *is* pdclab.
std::string resolve_worker_bin(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("PDCLAB_WORKER_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.rfind('/');
    const std::string base =
        slash == std::string::npos ? self : self.substr(slash + 1);
    if (base == "pdclab") return self;
  }
  throw InvalidArgument(
      "lab shard: cannot resolve the pdclab worker binary (set "
      "WorkerPoolConfig::worker_bin or PDCLAB_WORKER_BIN)");
}

/// SIGKILL a worker (it may already be dead) and wait for it.
void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

}  // namespace

WorkerPool::WorkerPool(WorkerPoolConfig config) : config_(std::move(config)) {}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::start() {
  if (started_) return;
  worker_bin_ = resolve_worker_bin(config_.worker_bin);
  scratch_dir_ = net::make_scratch_dir("pdclab-shard");
  slots_.clear();
  slots_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    auto slot = std::make_unique<Slot>();
    slot->index = w;
    slot->endpoint.kind = net::Endpoint::Kind::Unix;
    slot->endpoint.path = scratch_dir_ + "/worker-" + std::to_string(w) + ".sock";
    slot->listener = net::listen_at(slot->endpoint, 1);
    slots_.push_back(std::move(slot));
  }
  started_ = true;
  for (auto& slot : slots_) {
    std::lock_guard lock(slot->mutex);
    try {
      spawn_locked(*slot);
    } catch (const Error&) {
      // Leave the slot empty; its first execute() retries the spawn and
      // reports the job-level failure if the binary really is broken.
    }
  }
}

void WorkerPool::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    std::lock_guard lock(slot.mutex);
    if (slot.conn.valid()) {
      try {
        net::send_all(slot.conn, wire::encode_header(wire::FrameKind::Bye, 0),
                      nullptr, /*bye_ok=*/true, "lab shard");
      } catch (...) {
        // The worker may already be gone; the reap below still runs.
      }
      slot.conn.shutdown_both();
      slot.conn.close();
    }
    if (slot.pid > 0) {
      // The worker exits on Bye/EOF; give it a short grace, then escalate.
      bool reaped = false;
      for (int i = 0; i < 50; ++i) {
        if (::waitpid(slot.pid, nullptr, WNOHANG) == slot.pid) {
          reaped = true;
          break;
        }
        std::this_thread::sleep_for(ms(10));
      }
      if (!reaped) kill_and_reap(slot.pid);
      slot.pid = -1;
    }
    slot.listener.close();
  }
  slots_.clear();
  if (!scratch_dir_.empty()) net::remove_scratch_dir(scratch_dir_);
  scratch_dir_.clear();
}

pid_t WorkerPool::slot_pid(int slot) const {
  const Slot& s = *slots_[static_cast<std::size_t>(slot)];
  std::lock_guard lock(s.mutex);
  return s.pid;
}

void WorkerPool::spawn_locked(Slot& slot) {
  const std::string endpoint_arg = slot.endpoint.to_string();
  const std::string slot_arg = std::to_string(slot.index);
  const std::string max_np_arg = std::to_string(config_.executor.max_np);
  const std::string heartbeat_arg = std::to_string(config_.heartbeat_ms);

  const pid_t pid = ::fork();
  if (pid < 0) throw net::ConnectionError("lab shard: fork failed");
  if (pid == 0) {
    // Child: drop every inherited descriptor above stdio (the server's
    // listener, client sessions, sibling workers' sockets) so a worker
    // never holds another connection open past its owner, then exec.
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execl(worker_bin_.c_str(), "pdclab", "worker", "--connect",
            endpoint_arg.c_str(), "--slot", slot_arg.c_str(), "--max-np",
            max_np_arg.c_str(), "--heartbeat-ms", heartbeat_arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees EOF-before-Hello
  }

  try {
    net::Socket conn = net::accept_for(
        slot.listener, ms(config_.spawn_timeout_ms), "lab shard spawn");
    wire::Header header;
    mp::Bytes body;
    if (!net::recv_frame_for(conn, &header, &body, ms(config_.spawn_timeout_ms),
                             "lab shard spawn")) {
      throw net::PeerLost("lab shard: worker exited before its Hello");
    }
    if (header.kind != wire::FrameKind::Hello) {
      throw net::ProtocolError("lab shard: worker opened with frame kind " +
                               std::to_string(static_cast<int>(header.kind)) +
                               " instead of Hello");
    }
    (void)wire::decode_hello(body);
    slot.conn = std::move(conn);
    slot.pid = pid;
  } catch (...) {
    kill_and_reap(pid);
    throw;
  }
  if (slot.ever_spawned) {
    respawns_.fetch_add(1, std::memory_order_relaxed);
    trace::Counter("lab.shard.respawns").add(1.0);
  }
  slot.ever_spawned = true;
}

void WorkerPool::reap(Slot& slot) {
  std::lock_guard lock(slot.mutex);
  if (slot.pid > 0) {
    kill_and_reap(slot.pid);
    slot.pid = -1;
  }
  slot.conn.shutdown_both();
  slot.conn.close();
}

Result WorkerPool::execute(int slot_index, std::uint64_t job_id,
                           const Submit& submit, const StatusSink& on_status) {
  Slot& slot = *slots_[static_cast<std::size_t>(slot_index)];
  slot.cancelled.store(false, std::memory_order_release);
  slot.job.store(job_id, std::memory_order_release);
  executions_.fetch_add(1, std::memory_order_relaxed);

  Result result;
  bool have_result = false;
  std::string last_error;
  for (int attempt = 1; attempt <= config_.max_attempts && !have_result;
       ++attempt) {
    if (slot.cancelled.load(std::memory_order_acquire)) {
      result = protocol::cancelled_result(job_id);
      have_result = true;
      break;
    }
    {
      std::lock_guard lock(slot.mutex);
      if (!slot.conn.valid()) {
        try {
          spawn_locked(slot);
        } catch (const Error& error) {
          last_error = error.what();
          continue;
        }
      }
    }
    try {
      net::send_all(slot.conn,
                    protocol::encode_dispatch({job_id, submit}), nullptr,
                    /*bye_ok=*/false, "lab shard");
    } catch (const Error& error) {
      // The worker died idle (or a cancel's kill landed between jobs):
      // reap and let the next attempt respawn.
      last_error = error.what();
      reap(slot);
      continue;
    }
    // The worker-kill chaos lane: an injected abort right after dispatch
    // becomes a real SIGKILL of the worker process — the recovery path
    // below (EOF → reap → respawn → redispatch) is what is under test.
    try {
      chaos::on_op(kShardKillSite);
    } catch (const chaos::InjectedAbort&) {
      std::lock_guard lock(slot.mutex);
      if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
    }
    try {
      for (;;) {
        wire::Header header;
        mp::Bytes body;
        if (!net::recv_frame_for(slot.conn, &header, &body,
                                 ms(config_.hang_timeout_ms), "lab shard")) {
          throw net::PeerLost("lab shard: worker closed mid-job");
        }
        if (header.kind == wire::FrameKind::Status) {
          // Heartbeat (empty) or live output; either way the worker is
          // making progress, which is what resets the recv deadline.
          Status status = protocol::decode_status(body);
          if (on_status && !status.output.empty() && status.job_id == job_id) {
            on_status(status);
          }
          continue;
        }
        if (header.kind == wire::FrameKind::Result) {
          result = protocol::decode_result(body);
          if (result.job_id != job_id) {
            throw net::ProtocolError("lab shard: worker answered job " +
                                     std::to_string(result.job_id) +
                                     " instead of " + std::to_string(job_id));
          }
          have_result = true;
          break;
        }
        throw net::ProtocolError(
            "lab shard: unexpected frame kind " +
            std::to_string(static_cast<int>(header.kind)) +
            " from a worker");
      }
    } catch (const Error& error) {
      // EOF (crash, SIGKILL), a hang past the heartbeat deadline, or a
      // confused worker: in every case the process is untrustworthy. Reap
      // it; a cancelled job terminates here, anything else is respawned
      // and redispatched until the attempt budget runs out.
      last_error = error.what();
      reap(slot);
      trace::instant("lab.shard.worker_lost", "lab");
      if (slot.cancelled.load(std::memory_order_acquire)) {
        result = protocol::cancelled_result(job_id);
        have_result = true;
      }
    }
  }
  if (!have_result) {
    result = Result{};
    result.job_id = job_id;
    result.exit_code = 2;
    result.error = "lab shard: job failed after " +
                   std::to_string(config_.max_attempts) +
                   " worker attempts (last: " + last_error + ")";
  }
  slot.job.store(0, std::memory_order_release);
  return result;
}

bool WorkerPool::cancel(std::uint64_t job_id) {
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    std::lock_guard lock(slot.mutex);
    if (slot.job.load(std::memory_order_acquire) != job_id) continue;
    slot.cancelled.store(true, std::memory_order_release);
    if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
    trace::instant("lab.shard.cancel_kill", "lab");
    return true;
  }
  return false;
}

// ---- the worker-process side ---------------------------------------------

namespace {

/// Batches the lines a running job prints into Status frames on a fixed
/// cadence, sending an empty heartbeat Status when nothing was printed —
/// the pool's liveness signal. add() is entered from rank threads; all
/// socket writes happen on the flusher thread (and once more, after it is
/// joined, from stop()'s final flush), so no send lock is needed: the
/// main thread only writes the Result after stop() returns.
class Streamer {
 public:
  Streamer(net::Socket& socket, std::uint64_t job_id, int interval_ms)
      : socket_(socket), job_id_(job_id), interval_(std::max(1, interval_ms)) {
    flusher_ = std::thread([this] { loop(); });
  }

  void add(const std::string& line) {
    std::lock_guard lock(mutex_);
    // Clamp per line so every pushed frame stays decodable; the terminal
    // Result still carries the job's own lines.
    pending_.push_back(line.size() > protocol::kMaxLineBytes
                           ? line.substr(0, protocol::kMaxLineBytes)
                           : line);
  }

  /// Join the flusher, then flush whatever is still buffered — every
  /// streamed line is on the wire before the caller's Result follows.
  void stop() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    flusher_.join();
    flush(/*heartbeat_when_empty=*/false);
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    while (!done_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_),
                   [this] { return done_; });
      if (done_) break;
      lock.unlock();
      flush(/*heartbeat_when_empty=*/true);
      lock.lock();
    }
  }

  void flush(bool heartbeat_when_empty) {
    std::vector<std::string> lines;
    {
      std::lock_guard lock(mutex_);
      lines.swap(pending_);
    }
    try {
      if (lines.empty()) {
        if (!heartbeat_when_empty) return;
        Status beat;
        beat.job_id = job_id_;
        beat.state = protocol::JobState::Running;
        net::send_all(socket_, protocol::encode_status(beat), nullptr,
                      /*bye_ok=*/false, "lab worker");
        return;
      }
      // Batches within a Result's line and byte budgets, so every push
      // fits its control frame.
      for (std::size_t at = 0, end = 0; at < lines.size(); at = end) {
        end = at + protocol::lines_that_fit(std::span(lines).subspan(at),
                                            protocol::kMaxOutputLines,
                                            protocol::kMaxOutputBytes);
        Status status;
        status.job_id = job_id_;
        status.state = protocol::JobState::Running;
        status.output.assign(std::make_move_iterator(lines.begin() +
                                                     static_cast<long>(at)),
                             std::make_move_iterator(lines.begin() +
                                                     static_cast<long>(end)));
        net::send_all(socket_, protocol::encode_status(status), nullptr,
                      /*bye_ok=*/false, "lab worker");
      }
    } catch (const Error&) {
      // The server is gone; the job still runs to completion and the
      // Result send will surface the dead socket to the main loop.
    }
  }

  net::Socket& socket_;
  const std::uint64_t job_id_;
  const int interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> pending_;
  bool done_ = false;
  std::thread flusher_;
};

}  // namespace

int worker_main(const net::Endpoint& endpoint, int slot,
                const ExecutorConfig& executor_config, int heartbeat_ms) {
  try {
    net::Socket socket = net::dial(endpoint, /*attempts=*/50, ms(2000), ms(1),
                                   "lab worker");
    wire::Hello hello;
    hello.job = "pdclab-shard";
    hello.np = 0;
    hello.rank = slot;
    hello.hostname = "pdclab-worker";
    net::send_all(socket, wire::encode_hello(hello), nullptr, /*bye_ok=*/false,
                  "lab worker");

    Executor executor(executor_config);
    for (;;) {
      wire::Header header;
      mp::Bytes body;
      if (!net::recv_frame(socket, &header, &body, "lab worker")) {
        return 0;  // the server is gone; so is our reason to exist
      }
      if (header.kind == wire::FrameKind::Bye) return 0;
      if (header.kind != wire::FrameKind::Dispatch) {
        std::fprintf(stderr, "pdclab worker: unexpected frame kind %d\n",
                     static_cast<int>(header.kind));
        return 1;
      }
      const protocol::Dispatch dispatch = protocol::decode_dispatch(body);
      Streamer streamer(socket, dispatch.job_id, heartbeat_ms);
      // Test hook: every lab job finishes in milliseconds, far too fast to
      // cancel or SIGKILL mid-run deterministically. Holding here — after
      // the streamer starts heartbeating, before the job executes — pins
      // the job in its running state for the cancellation race tests.
      if (const char* hold = std::getenv("PDCLAB_TEST_HOLD_MS");
          hold != nullptr && *hold != '\0') {
        std::this_thread::sleep_for(ms(std::atoi(hold)));
      }
      Result result = executor.execute(
          dispatch.submit,
          [&streamer](const std::string& line) { streamer.add(line); });
      streamer.stop();
      result.job_id = dispatch.job_id;
      net::send_all(socket, protocol::encode_result(result), nullptr,
                    /*bye_ok=*/false, "lab worker");
    }
  } catch (const Error& error) {
    std::fprintf(stderr, "pdclab worker: %s\n", error.what());
    return 1;
  }
}

}  // namespace pdc::lab
