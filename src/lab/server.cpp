#include "lab/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <utility>

#include "chaos/chaos.hpp"
#include "grade/gradebook.hpp"
#include "grade/grader.hpp"
#include "net/errors.hpp"
#include "trace/trace.hpp"

namespace pdc::lab {

using protocol::JobState;
using protocol::RejectCode;
using protocol::Result;
using protocol::Submit;

const char* exec_mode_name(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::Inline: return "inline";
    case ExecMode::Socket: return "socket";
  }
  return "?";
}

namespace {
constexpr int kListenBacklog = 64;
/// How long stop() lets the readers flush the replies still owed before
/// they close every session anyway.
constexpr auto kStopFlushBudget = std::chrono::seconds(5);
/// An outbox grown past this for a burst is released once drained.
constexpr std::size_t kOutboxKeepBytes = 64 * 1024;

/// Lowercase hex of a digest — the store's per-submission tag for grade
/// records, so re-gradings of the same mutant with different options
/// (distinct digests) coexist while exact re-submissions upsert.
std::string digest_hex(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

store::ResultRecord to_record(std::uint64_t digest,
                              const protocol::Submit& submit,
                              const protocol::Result& result) {
  store::ResultRecord record;
  record.digest = digest;
  record.tenant = submit.tenant;
  record.kind = static_cast<std::uint16_t>(submit.kind);
  record.name = submit.name;
  record.np = submit.np;
  record.seed = submit.seed;
  record.exit_code = result.exit_code;
  record.exec_us = result.exec_us;
  record.output = result.output;
  record.error = result.error;
  return record;
}

/// The server's counters are plain ServerStats fields that several threads
/// update: every access is a relaxed atomic_ref.
void bump(std::uint64_t& counter, std::uint64_t n = 1) {
  std::atomic_ref(counter).fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t counter_value(std::uint64_t& counter) {
  return std::atomic_ref(counter).load(std::memory_order_relaxed);
}
}  // namespace

Server::Session::Session(net::Socket accepted, int epoll_fd,
                         std::uint64_t& lost_results)
    : socket(std::move(accepted)),
      epoll_fd_(epoll_fd),
      lost_results_(lost_results),
      watched_(EPOLLIN) {}

bool Server::Session::write_some(const std::byte* data, std::size_t n,
                                 std::size_t* written) {
  while (*written < n) {
    const ssize_t rc = ::send(socket.fd(), data + *written, n - *written,
                              MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc > 0) {
      *written += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

bool Server::Session::send(const mp::Bytes& frames, bool ends_in_result) {
  std::lock_guard lock(mutex_);
  if (!open_) return false;
  // Only an empty outbox lets new bytes go straight to the socket; anything
  // else would overtake the replies queued ahead of them.
  std::size_t written = 0;
  if (outbox_begin_ == outbox_.size() &&
      !write_some(frames.data(), frames.size(), &written)) {
    drop_locked();
    return false;
  }
  if (written < frames.size()) {
    const std::size_t unsent =
        outbox_.size() - outbox_begin_ + (frames.size() - written);
    if (unsent > kOutboxCapBytes) {
      drop_locked();
      return false;
    }
    // Remember where an unwritten Result ends, so a drop can count it.
    if (ends_in_result) result_ends_.push_back(queued_ + frames.size());
    outbox_.insert(outbox_.end(),
                   frames.begin() + static_cast<std::ptrdiff_t>(written),
                   frames.end());
  }
  queued_ += frames.size();
  written_ += written;
  watch_locked();
  return true;
}

void Server::Session::flush() {
  std::lock_guard lock(mutex_);
  if (!open_) return;
  std::size_t written = 0;
  if (!write_some(outbox_.data() + outbox_begin_,
                  outbox_.size() - outbox_begin_, &written)) {
    drop_locked();
    return;
  }
  outbox_begin_ += written;
  written_ += written;
  while (!result_ends_.empty() && result_ends_.front() <= written_) {
    result_ends_.pop_front();
  }
  if (outbox_begin_ == outbox_.size()) {
    if (outbox_.capacity() > kOutboxKeepBytes) {
      mp::Bytes().swap(outbox_);
    } else {
      outbox_.clear();
    }
    outbox_begin_ = 0;
  } else if (outbox_begin_ > outbox_.size() / 2) {
    // A client that reads slowly but steadily never drains the outbox
    // whole; drop the written prefix so the buffer stays near the backlog.
    outbox_.erase(outbox_.begin(),
                  outbox_.begin() + static_cast<std::ptrdiff_t>(outbox_begin_));
    outbox_begin_ = 0;
  }
  watch_locked();
}

void Server::Session::stop_reading() {
  std::lock_guard lock(mutex_);
  reading_ = false;
  watch_locked();
}

bool Server::Session::finished() {
  std::lock_guard lock(mutex_);
  return !open_ || (!reading_ && outbox_begin_ == outbox_.size());
}

void Server::Session::close() {
  std::lock_guard lock(mutex_);
  if (open_) drop_locked();
  if (socket.valid()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, socket.fd(), nullptr);
    socket.close();
  }
}

void Server::Session::watch_locked() {
  const std::uint32_t events =
      (reading_ ? EPOLLIN : 0u) |
      (outbox_begin_ < outbox_.size() ? EPOLLOUT : 0u);
  if (!open_ || events == watched_) return;
  epoll_event event{};
  event.events = events;
  event.data.fd = socket.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, socket.fd(), &event);
  watched_ = events;
}

void Server::Session::drop_locked() {
  open_ = false;
  bump(lost_results_, result_ends_.size());
  result_ends_.clear();
  mp::Bytes().swap(outbox_);
  outbox_begin_ = 0;
  // Senders now see a closed session; the hangup wakes the owning reader,
  // which closes the socket.
  socket.shutdown_both();
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      executor_(config_.executor),
      cache_(config_.cache_capacity),
      queue_(config_.queue),
      firewall_(config_.firewall) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) return;

  // Recover the store (if configured) before anything can submit: replay
  // log-over-snapshot, then warm the result cache with every cacheable
  // recovered record — a restarted server answers repeat submissions from
  // cache at ≈ its pre-restart hit rate instead of re-executing the class.
  // Failed/cancelled results were journaled but stay out of the cache (the
  // "failures never cached" rule survives restarts too).
  if (!config_.store.dir.empty() && !store_) {
    store_ = std::make_unique<store::Store>(config_.store);
    for (const auto& [digest, record] : store_->results()) {
      if (!record.cacheable()) continue;
      Result result;
      result.exit_code = record.exit_code;
      result.exec_us = record.exec_us;
      result.output = record.output;
      result.error = record.error;
      // Records journaled before results were fitted may not fit a frame.
      protocol::fit_result(result);
      cache_.insert(digest, std::move(result));
      ++warmed_;
    }
    trace::Counter("store.warmed").add(static_cast<double>(warmed_));
  }

  listener_ = net::listen_at(config_.endpoint, kListenBacklog);
  bound_ = net::local_endpoint(listener_, config_.endpoint);
  started_ = std::chrono::steady_clock::now();

  // Two readers wait on the listener; the one that loses the race for a
  // connection must find accept4 empty, not block in it.
  ::fcntl(listener_.fd(), F_SETFL,
          ::fcntl(listener_.fd(), F_GETFL, 0) | O_NONBLOCK);
  wake_ = net::Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  for (int r = 0; r < kReaders && wake_.valid(); ++r) {
    net::Socket epoll(::epoll_create1(EPOLL_CLOEXEC));
    epoll_event event{};
    event.events = EPOLLIN | EPOLLEXCLUSIVE;
    event.data.fd = listener_.fd();
    if (!epoll.valid() ||
        ::epoll_ctl(epoll.fd(), EPOLL_CTL_ADD, listener_.fd(), &event) != 0) {
      break;
    }
    event.events = EPOLLIN;
    event.data.fd = wake_.fd();
    if (::epoll_ctl(epoll.fd(), EPOLL_CTL_ADD, wake_.fd(), &event) != 0) break;
    reader_epolls_.push_back(std::move(epoll));
  }
  if (reader_epolls_.size() != static_cast<std::size_t>(kReaders)) {
    reader_epolls_.clear();
    wake_.close();
    listener_.close();
    throw net::ConnectionError(
        "lab server: cannot set up the reader epoll sets");
  }

  // ExecMode::Socket: each worker thread fronts a forked worker *process*
  // (slot w serves thread w), so a crashing or hanging job takes down one
  // process, not the server. Inline keeps the historic in-process shape.
  if (config_.exec_mode == ExecMode::Socket) {
    WorkerPoolConfig shard = config_.shard;
    shard.workers = config_.workers;
    shard.executor = config_.executor;
    pool_ = std::make_unique<WorkerPool>(shard);
    try {
      pool_->start();
    } catch (...) {
      pool_.reset();
      reader_epolls_.clear();
      wake_.close();
      listener_.close();
      throw;
    }
  }
  running_.store(true);

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  readers_.reserve(reader_epolls_.size());
  for (const net::Socket& epoll : reader_epolls_) {
    readers_.emplace_back([this, fd = epoll.fd()] { reader_loop(fd); });
  }
}

void Server::stop() {
  // Never started (or a second stop): nothing to tear down.
  if (!running_.exchange(false)) return;

  // 1. No new connections: the readers stop watching the listener.
  for (const net::Socket& epoll : reader_epolls_) {
    ::epoll_ctl(epoll.fd(), EPOLL_CTL_DEL, listener_.fd(), nullptr);
  }
  listener_.shutdown_both();

  // 2. No new work: close the queue, fail whatever never got a worker with
  // a shutdown Result (the client was promised a terminal frame at Accept).
  // The readers keep reading meanwhile: Submits that race the drain are
  // refused at the closed queue with a Shutdown reject.
  queue_.close();
  for (Job& job : queue_.drain()) {
    job.deliver(protocol::shutdown_result(job.id));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Every thread that could be inside execute() is joined; the pool object
  // itself outlives stop() so stats() keeps reporting its totals.
  if (pool_) pool_->stop();

  // 3. Sessions: every reply is queued now. Wake the readers; each stops
  // reading, flushes its sessions' outboxes (within kStopFlushBudget),
  // closes them and exits.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_.fd(), &one, sizeof one);
  for (std::thread& reader : readers_) reader.join();
  readers_.clear();
  reader_epolls_.clear();
  wake_.close();

  listener_.close();
  if (config_.endpoint.kind == net::Endpoint::Kind::Unix &&
      !config_.endpoint.path.empty()) {
    ::unlink(config_.endpoint.path.c_str());
  }

  // 4. Persistence: every deliver above journaled before sending, so this
  // sync is a backstop that also covers the fsync=off configuration's
  // buffered tail. The store object survives stop() for inspection.
  if (store_) store_->sync();
}

net::Endpoint Server::endpoint() const { return bound_; }

ServerStats Server::stats() const {
  ServerStats out;
  out.submits = counter_value(stats_.submits);
  out.accepted = counter_value(stats_.accepted);
  out.rejected = counter_value(stats_.rejected);
  out.completed = counter_value(stats_.completed);
  out.failed = counter_value(stats_.failed);
  out.cache_hits = counter_value(stats_.cache_hits);
  out.executed = executor_.executions() + (pool_ ? pool_->executions() : 0);
  out.lockouts = counter_value(stats_.lockouts);
  out.lost_results = counter_value(stats_.lost_results);
  out.sessions = counter_value(stats_.sessions);
  out.cancelled = counter_value(stats_.cancelled);
  out.worker_respawns = pool_ ? pool_->respawns() : 0;
  out.warmed_results = warmed_;
  out.queue_depth = queue_.depth();
  return out;
}

double Server::now_minutes() const {
  if (config_.now_minutes) return config_.now_minutes();
  return std::chrono::duration<double, std::ratio<60>>(
             std::chrono::steady_clock::now() - started_)
      .count();
}

void Server::reader_loop(int epoll_fd) {
  std::unordered_map<int, std::shared_ptr<Session>> sessions;
  mp::Bytes body;  // reused for every frame this reader dispatches
  std::array<epoll_event, 64> ready;
  bool closing = false;
  std::chrono::steady_clock::time_point deadline;
  while (!closing || !sessions.empty()) {
    int timeout_ms = -1;
    if (closing) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      timeout_ms = static_cast<int>(left.count());
    }
    const int n = ::epoll_wait(epoll_fd, ready.data(),
                               static_cast<int>(ready.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = ready[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t events = ready[static_cast<std::size_t>(i)].events;
      if (fd == listener_.fd()) {
        accept_one(epoll_fd, sessions);
        continue;
      }
      if (fd == wake_.fd()) {
        // stop(): read no more frames, flush what is owed, then close.
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
        closing = true;
        deadline = std::chrono::steady_clock::now() + kStopFlushBudget;
        std::erase_if(sessions, [](const auto& entry) {
          entry.second->stop_reading();
          if (!entry.second->finished()) return false;
          entry.second->close();
          return true;
        });
        continue;
      }
      const auto it = sessions.find(fd);
      if (it == sessions.end()) continue;
      const std::shared_ptr<Session>& session = it->second;
      if ((events & EPOLLOUT) != 0) session->flush();
      if (session->reading() &&
          (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        serve(session, body);
      } else if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
        session->close();  // the peer left while owed replies
      }
      if (session->finished()) {
        session->close();
        sessions.erase(it);
      }
    }
  }
  // Past the flush budget: what is still unsent is lost.
  for (const auto& entry : sessions) entry.second->close();
}

void Server::accept_one(
    int epoll_fd, std::unordered_map<int, std::shared_ptr<Session>>& sessions) {
  net::Socket accepted = net::accept_now(listener_, config_.endpoint.kind);
  if (!accepted.valid()) return;  // the other reader took it, or stop()
  const int fd = accepted.fd();
  auto session = std::make_shared<Session>(std::move(accepted), epoll_fd,
                                           stats_.lost_results);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) return;
  sessions.emplace(fd, std::move(session));
  bump(stats_.sessions);
  trace::Counter("lab.sessions").add(1.0);
}

void Server::serve(const std::shared_ptr<Session>& session, mp::Bytes& body) {
  // Admission decisions (the "lab.admit" checkpoint) draw from the lab's
  // admission chaos lane, not lane 0 — which belongs to mp rank 0. Each
  // connection keeps its own stream across the reads that carry its frames.
  chaos::ActorScope lane(chaos::kLabAdmitActor, session->admit_lane);
  try {
    if (!session->inbox.fill(session->socket, "lab server")) {
      // The client left: between frames without a Bye, or mid-frame (a
      // mid-submit disconnect). Drop it quietly.
      session->close();
      return;
    }
    wire::Header header;
    while (session->inbox.next(&header, &body)) {
      if (!dispatch(session, header, body)) {
        session->stop_reading();  // clean goodbye
        return;
      }
    }
  } catch (const net::ProtocolError& error) {
    // A hostile or confused client: answer with the reason (best effort)
    // and drop the connection once that is out; the server keeps serving.
    reject(session, RejectCode::BadRequest, error.what());
    session->stop_reading();
  } catch (const Error&) {
    session->close();  // PeerLost: the connection broke
  }
}

bool Server::dispatch(const std::shared_ptr<Session>& session,
                      const wire::Header& header, const mp::Bytes& body) {
  switch (header.kind) {
    case wire::FrameKind::Submit: {
      bump(stats_.submits);
      trace::Counter("lab.submits").add(1.0);
      admit(session, protocol::decode_submit(body));
      return true;
    }
    case wire::FrameKind::Status: {
      const protocol::Status query = protocol::decode_status(body);
      protocol::Status reply;
      reply.job_id = query.job_id;
      reply.state = job_state(query.job_id);
      reply.queue_depth = static_cast<std::uint32_t>(queue_.depth());
      session->send(protocol::encode_status(reply));
      return true;
    }
    case wire::FrameKind::Cancel:
      handle_cancel(session, protocol::decode_cancel(body));
      return true;
    case wire::FrameKind::Report:
      handle_report(session, protocol::decode_report(body));
      return true;
    case wire::FrameKind::Bye:
      return false;
    default:
      throw net::ProtocolError(
          "lab server: unexpected frame kind " +
          std::to_string(static_cast<int>(header.kind)) +
          " on a client connection");
  }
}

void Server::admit(const std::shared_ptr<Session>& session, Submit submit) {
  trace::Span span("lab.admit", "lab");
  try {
    chaos::on_op("lab.admit");
  } catch (const chaos::InjectedAbort& abort) {
    return reject(session, RejectCode::Overloaded, abort.what());
  }
  if (!authorize(session, "submit", submit.tenant, submit.token,
                 "tenant is locked out (the VNC-firewall incident; wait "
                 "for the block to lapse or ask staff to unblock)")) {
    return;
  }

  try {
    executor_.validate(submit);
  } catch (const Error& error) {
    return reject(session, RejectCode::BadRequest, error.what());
  }

  const std::uint64_t digest = protocol::digest(submit);
  const std::uint64_t job_id =
      next_job_id_.fetch_add(1, std::memory_order_relaxed);

  // Identical submission already answered: serve the golden output without
  // touching the queue or the fleet.
  if (auto cached = cache_.lookup(digest)) {
    cached->job_id = job_id;
    {
      std::lock_guard lock(jobs_mutex_);
      job_states_[job_id] = JobRecord{JobState::Done, submit.tenant};
    }
    bump(stats_.accepted);
    bump(stats_.cache_hits);
    bump(stats_.completed);
    trace::Counter("lab.cache_hits").add(1.0);
    // Same acked ⇒ durable rule as an executed job: the journal upsert
    // (idempotent for an exact re-submission) lands before the frames.
    journal(digest, submit, *cached);
    protocol::Accept accept;
    accept.job_id = job_id;
    accept.queue_position = 0;
    // Accept and Result leave together: one buffer, one send.
    mp::Bytes frames = protocol::encode_accept(accept);
    const mp::Bytes result = protocol::encode_result(*cached);
    frames.insert(frames.end(), result.begin(), result.end());
    session->send(frames, /*ends_in_result=*/true);
    return;
  }

  Job job;
  job.id = job_id;
  job.submit = std::move(submit);
  job.digest = digest;
  job.deliver = [this, session, job_id, digest,
                 submit = job.submit](const Result& result) {
    finish_job(session, job_id, digest, submit, result);
  };
  // Incremental Status pushes (shard workers streaming output) go back to
  // the submitting connection, best effort.
  job.notify = [this, session](const protocol::Status& status) {
    protocol::Status push = status;
    push.queue_depth = static_cast<std::uint32_t>(queue_.depth());
    session->send(protocol::encode_status(push));
  };
  // Record Queued before the push: once the job is in the queue a worker can
  // pop it and write Running/Done, and a late Queued write here would stomp
  // the terminal state a client has already been told about.
  {
    std::lock_guard lock(jobs_mutex_);
    job_states_[job_id] = JobRecord{JobState::Queued, job.submit.tenant};
  }
  const auto position = queue_.push(std::move(job));
  if (!position) {
    {
      std::lock_guard lock(jobs_mutex_);
      job_states_.erase(job_id);
    }
    const bool shutting_down = !running_.load(std::memory_order_acquire);
    return reject(session,
                  shutting_down ? RejectCode::Shutdown : RejectCode::QuotaFull,
                  shutting_down ? "lab server shutting down"
                                : "tenant queue quota exhausted");
  }
  bump(stats_.accepted);
  trace::Counter("lab.queue_depth").add(1.0);
  protocol::Accept accept;
  accept.job_id = job_id;
  accept.queue_position = static_cast<std::uint32_t>(*position);
  session->send(protocol::encode_accept(accept));
}

void Server::handle_cancel(const std::shared_ptr<Session>& session,
                           const protocol::Cancel& cancel) {
  trace::Span span("lab.cancel", "lab");
  // Cancel is a door a hostile client can knock on too.
  if (!authorize(session, "cancel", cancel.tenant, cancel.token)) return;

  JobState state = JobState::Unknown;
  {
    std::lock_guard lock(jobs_mutex_);
    const auto it = job_states_.find(cancel.job_id);
    // An unknown job and another tenant's job answer identically: job ids
    // are sequential, so a cancel probe must not confirm a foreign job
    // exists.
    if (it == job_states_.end() || it->second.tenant != cancel.tenant) {
      state = JobState::Unknown;
    } else {
      state = it->second.state;
    }
  }
  if (state == JobState::Unknown) {
    return reject(session, RejectCode::BadRequest,
                  "no such job for this tenant");
  }
  if (state == JobState::Done) {
    return reject(session, RejectCode::BadRequest, "job already finished");
  }

  const auto ack = [this, &session, &cancel] {
    bump(stats_.cancelled);
    trace::Counter("lab.cancelled").add(1.0);
    protocol::Status frame;
    frame.job_id = cancel.job_id;
    frame.state = JobState::Done;
    frame.queue_depth = static_cast<std::uint32_t>(queue_.depth());
    session->send(protocol::encode_status(frame));
  };

  // Still queued: pull it out (the quota slot frees, the tenant's virtual
  // tag rewinds) and deliver the terminal Result the Accept promised.
  if (auto removed = queue_.remove(cancel.job_id)) {
    trace::Counter("lab.queue_depth").add(-1.0);
    removed->deliver(protocol::cancelled_result(cancel.job_id));
    return ack();
  }

  // A worker already has it. With a shard pool the worker is a process we
  // can kill — its execute() observes the death and returns the cancelled
  // Result. Inline mode runs jobs on server threads; those cannot be
  // killed, so a running inline job is past the point of no return.
  if (pool_ && pool_->cancel(cancel.job_id)) {
    return ack();
  }
  return reject(session, RejectCode::BadRequest,
                pool_ ? "job just finished; nothing to cancel"
                      : "job is already running (inline executor cannot "
                        "cancel a running job)");
}

void Server::reject(const std::shared_ptr<Session>& session, RejectCode code,
                    const std::string& reason) {
  bump(stats_.rejected);
  trace::Counter("lab.rejects").add(1.0);
  protocol::Reject frame;
  frame.code = code;
  // A reason may quote the request (a grade option) past the wire clamp.
  frame.reason = reason.substr(0, protocol::kMaxReasonBytes);
  session->send(protocol::encode_reject(frame));
}

void Server::worker_loop(int worker_index) {
  // Each worker draws from its own deterministic chaos stream, like a pool
  // worker or an mp rank would.
  chaos::ActorScope actor(chaos::kLabWorkerActorBase + worker_index);
  while (auto job = queue_.pop()) {
    trace::Counter("lab.queue_depth").add(-1.0);
    set_job_state(job->id, JobState::Running);
    Result result;
    try {
      chaos::on_op("lab.dispatch");
      // Pool mode: slot w belongs to this thread, and the pool absorbs
      // worker crashes/hangs/cancels into a terminal Result by itself.
      result = pool_ ? pool_->execute(worker_index, job->id, job->submit,
                                      job->notify)
                     : executor_.execute(job->submit);
    } catch (const chaos::InjectedAbort& abort) {
      result.exit_code = 2;
      result.error = abort.what();
    }
    result.job_id = job->id;
    job->deliver(result);
  }
}

void Server::finish_job(const std::shared_ptr<Session>& session,
                        std::uint64_t job_id, std::uint64_t digest,
                        const Submit& submit, const Result& result) {
  if (result.exit_code == 0) {
    // Only clean runs become golden outputs; a chaos-aborted or failed run
    // must re-execute next time, never haunt the cache.
    cache_.insert(digest, result);
    bump(stats_.completed);
  } else {
    bump(stats_.failed);
  }
  set_job_state(job_id, JobState::Done);
  trace::Counter("lab.results").add(1.0);
  // Journal-before-ack: the record is fsync-covered when journal() returns,
  // so any Result frame the client ever sees is already durable. A kill
  // between the two costs the client a frame (a retry re-submits into the
  // warm cache), never a journaled record.
  journal(digest, submit, result);
  if (!session->send(protocol::encode_result(result),
                     /*ends_in_result=*/true)) {
    bump(stats_.lost_results);
  }
}

void Server::journal(std::uint64_t digest, const Submit& submit,
                     const Result& result) {
  if (!store_) return;
  store_->put_result(to_record(digest, submit, result));
  // A successful grade job additionally lands in the grade index: its first
  // output line is the canonical grade line, parsed back into a structured
  // verdict. Cohort = tenant, mutant = the submitted MutantSpec id.
  if (submit.kind != protocol::JobKind::Grade || result.exit_code != 0 ||
      result.output.empty()) {
    return;
  }
  try {
    const grade::Grade graded = grade::Grade::parse_line(result.output[0]);
    store_->put_grade(grade::GradeBook::to_record(graded, submit.tenant,
                                                  digest_hex(digest)));
  } catch (const Error&) {
    // A grade job whose output is not a grade line (a foreign executor or a
    // hand-rolled worker): the result record above still journals it.
  }
}

void Server::handle_report(const std::shared_ptr<Session>& session,
                           const protocol::Report& query) {
  if (query.role != protocol::ReportRole::Query) {
    throw net::ProtocolError("lab server: non-query Report frame from client");
  }
  // Reports leak a whole class's aggregate state.
  if (!authorize(session, "report", query.tenant, query.token)) return;
  if (!store_) {
    return reject(session, RejectCode::BadRequest,
                  "this lab server runs without a store (no --store dir)");
  }

  // Stream one Cohort frame per cohort (sorted — the store folds in sorted
  // key order, so the bytes are a pure function of the record set), then
  // the End marker.
  const std::string& filter = query.aggregate.cohort;
  const std::vector<std::string> cohorts =
      filter.empty() ? store_->cohorts() : std::vector<std::string>{filter};
  for (const std::string& cohort : cohorts) {
    // A cohort name a Report frame cannot carry is skipped: GradeBook
    // refuses one, but a journal written before it did may hold one.
    if (cohort.size() > protocol::kMaxIdentityBytes) continue;
    protocol::Report reply;
    reply.role = protocol::ReportRole::Cohort;
    reply.aggregate = store_->report(cohort);
    if (!session->send(protocol::encode_report(reply))) return;
    trace::Counter("lab.reports").add(1.0);
  }
  protocol::Report end;
  end.role = protocol::ReportRole::End;
  session->send(protocol::encode_report(end));
}

bool Server::authorize(const std::shared_ptr<Session>& session,
                       const char* verb, const std::string& tenant,
                       const std::string& token, const char* locked_reason) {
  if (tenant.empty()) {
    reject(session, RejectCode::BadRequest,
           std::string(verb) + " carries no tenant id");
    return false;
  }
  std::lock_guard lock(firewall_mutex_);
  const double now = now_minutes();
  if (firewall_.is_blocked(tenant, now)) {
    reject(session, RejectCode::LockedOut, locked_reason);
    return false;
  }
  if (token != config_.token) {
    if (firewall_.record_failure(tenant, now)) {
      bump(stats_.lockouts);
      trace::instant("lab.lockout", "lab");
      reject(session, RejectCode::LockedOut,
             "too many bad tokens; tenant locked out");
    } else {
      reject(session, RejectCode::BadToken, "wrong auth token");
    }
    return false;
  }
  firewall_.record_success(tenant);
  return true;
}

void Server::set_job_state(std::uint64_t job_id, JobState state) {
  std::lock_guard lock(jobs_mutex_);
  job_states_[job_id].state = state;  // tenant (set at admission) survives
}

protocol::JobState Server::job_state(std::uint64_t job_id) const {
  std::lock_guard lock(jobs_mutex_);
  const auto it = job_states_.find(job_id);
  return it == job_states_.end() ? JobState::Unknown : it->second.state;
}

}  // namespace pdc::lab
