#include "lab/server.hpp"

#include <unistd.h>

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
}  // namespace

bool Server::Session::send(const mp::Bytes& frame) {
  std::lock_guard lock(send_mutex);
  if (!alive.load(std::memory_order_acquire)) return false;
  try {
    net::send_all(socket, frame, nullptr, /*bye_ok=*/false, "lab server");
    return true;
  } catch (const Error&) {
    alive.store(false, std::memory_order_release);
    socket.shutdown_both();
    return false;
  }
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
      listener_.close();
      throw;
    }
  }
  running_.store(true);

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false)) {
    // Never started (or a second stop): nothing to tear down.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }

  // 1. No new connections: unblock the accept loop and join it.
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. No new work: close the queue, fail whatever never got a worker with
  // a shutdown Result (the client was promised a terminal frame at Accept).
  queue_.close();
  for (Job& job : queue_.drain()) {
    Result result;
    result.job_id = job.id;
    result.exit_code = 3;
    result.error = "lab server shutting down";
    set_job_state(job.id, JobState::Done);
    if (job.deliver) job.deliver(result);
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Every thread that could be inside execute() is joined; the pool object
  // itself outlives stop() so stats() keeps reporting its totals.
  if (pool_) pool_->stop();

  // 3. Sessions: shut every socket down (their readers observe EOF/error
  // and exit), then wait for the detached readers to drain.
  {
    std::unique_lock lock(sessions_mutex_);
    for (const auto& weak : sessions_) {
      if (const auto session = weak.lock()) {
        session->alive.store(false, std::memory_order_release);
        session->socket.shutdown_both();
      }
    }
    sessions_cv_.wait(lock, [this] { return active_sessions_ == 0; });
    sessions_.clear();
  }

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
  out.submits = stats_.submits.load();
  out.accepted = stats_.accepted.load();
  out.rejected = stats_.rejected.load();
  out.completed = stats_.completed.load();
  out.failed = stats_.failed.load();
  out.cache_hits = stats_.cache_hits.load();
  out.executed = executor_.executions() + (pool_ ? pool_->executions() : 0);
  out.lockouts = stats_.lockouts.load();
  out.lost_results = stats_.lost_results.load();
  out.sessions = stats_.sessions.load();
  out.cancelled = stats_.cancelled.load();
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

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    net::Socket accepted;
    try {
      accepted = net::accept_for(
          listener_, std::chrono::milliseconds(config_.accept_poll_ms),
          "lab server accept");
    } catch (const Error&) {
      continue;  // poll timeout, or the listener was shut down by stop()
    }
    auto session = std::make_shared<Session>();
    session->socket = std::move(accepted);
    stats_.sessions.fetch_add(1, std::memory_order_relaxed);
    trace::Counter("lab.sessions").add(1.0);
    {
      std::lock_guard lock(sessions_mutex_);
      // Prune entries whose sessions are fully gone so a long-lived server
      // does not accumulate one weak_ptr per historical connection.
      std::erase_if(sessions_,
                    [](const std::weak_ptr<Session>& weak) {
                      return weak.expired();
                    });
      sessions_.push_back(session);
      ++active_sessions_;
    }
    std::thread([this, session] { session_loop(session); }).detach();
  }
}

void Server::session_loop(const std::shared_ptr<Session>& session) {
  // Admission decisions (the "lab.admit" checkpoint) draw from the lab's
  // admission chaos lane, not lane 0 — which belongs to mp rank 0.
  chaos::ActorScope actor(chaos::kLabAdmitActor);
  try {
    wire::Header header;
    mp::Bytes body;
    // Note: no `running_` in this condition. A stopping server still owes
    // queued jobs their terminal Results over this socket; the reader must
    // keep the session alive until stop()'s session-shutdown phase (or the
    // client's own EOF/Bye) unblocks the recv below. Submits that race the
    // drain are refused at the closed queue with a Shutdown reject.
    bool open = true;
    while (open && session->alive.load(std::memory_order_acquire)) {
      if (!net::recv_frame(session->socket, &header, &body, "lab server")) {
        break;  // clean EOF between frames: client left without a Bye
      }
      switch (header.kind) {
        case wire::FrameKind::Submit: {
          stats_.submits.fetch_add(1, std::memory_order_relaxed);
          trace::Counter("lab.submits").add(1.0);
          admit(session, protocol::decode_submit(body));
          break;
        }
        case wire::FrameKind::Status: {
          const protocol::Status query = protocol::decode_status(body);
          protocol::Status reply;
          reply.job_id = query.job_id;
          reply.state = job_state(query.job_id);
          reply.queue_depth = static_cast<std::uint32_t>(queue_.depth());
          session->send(protocol::encode_status(reply));
          break;
        }
        case wire::FrameKind::Cancel: {
          handle_cancel(session, protocol::decode_cancel(body));
          break;
        }
        case wire::FrameKind::Report: {
          handle_report(session, protocol::decode_report(body));
          break;
        }
        case wire::FrameKind::Bye:
          open = false;  // clean goodbye
          break;
        default:
          throw net::ProtocolError(
              "lab server: unexpected frame kind " +
              std::to_string(static_cast<int>(header.kind)) +
              " on a client connection");
      }
    }
  } catch (const net::ProtocolError& error) {
    // A hostile or confused client: answer with the reason (best effort)
    // and drop the connection; the server itself keeps serving.
    reject(session, RejectCode::BadRequest, error.what());
  } catch (const Error&) {
    // PeerLost (mid-submit disconnect) or a send failure: drop quietly.
  }
  session->alive.store(false, std::memory_order_release);
  session->socket.shutdown_both();
  std::lock_guard lock(sessions_mutex_);
  --active_sessions_;
  sessions_cv_.notify_all();
}

void Server::admit(const std::shared_ptr<Session>& session, Submit submit) {
  trace::Span span("lab.admit", "lab");
  try {
    chaos::on_op("lab.admit");
  } catch (const chaos::InjectedAbort& abort) {
    return reject(session, RejectCode::Overloaded, abort.what());
  }
  if (submit.tenant.empty()) {
    return reject(session, RejectCode::BadRequest,
                  "submit carries no tenant id");
  }

  // Auth + the eager-beaver firewall, keyed by tenant. A blocked tenant is
  // refused even with the right token (what made the paper's incident
  // confusing); wrong tokens accumulate toward the lockout.
  {
    std::lock_guard lock(firewall_mutex_);
    const double now = now_minutes();
    if (firewall_.is_blocked(submit.tenant, now)) {
      return reject(session, RejectCode::LockedOut,
                    "tenant is locked out (the VNC-firewall incident; wait "
                    "for the block to lapse or ask staff to unblock)");
    }
    if (submit.token != config_.token) {
      if (firewall_.record_failure(submit.tenant, now)) {
        stats_.lockouts.fetch_add(1, std::memory_order_relaxed);
        trace::instant("lab.lockout", "lab");
        return reject(session, RejectCode::LockedOut,
                      "too many bad tokens; tenant locked out");
      }
      return reject(session, RejectCode::BadToken, "wrong auth token");
    }
    firewall_.record_success(submit.tenant);
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
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    trace::Counter("lab.cache_hits").add(1.0);
    // Same acked ⇒ durable rule as an executed job: the journal upsert
    // (idempotent for an exact re-submission) lands before the frames.
    journal(digest, submit, *cached);
    protocol::Accept accept;
    accept.job_id = job_id;
    accept.queue_position = 0;
    if (session->send(protocol::encode_accept(accept))) {
      session->send(protocol::encode_result(*cached));
    }
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
  stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  trace::Counter("lab.queue_depth").add(1.0);
  protocol::Accept accept;
  accept.job_id = job_id;
  accept.queue_position = static_cast<std::uint32_t>(*position);
  session->send(protocol::encode_accept(accept));
}

void Server::handle_cancel(const std::shared_ptr<Session>& session,
                           const protocol::Cancel& cancel) {
  trace::Span span("lab.cancel", "lab");
  if (cancel.tenant.empty()) {
    return reject(session, RejectCode::BadRequest,
                  "cancel carries no tenant id");
  }

  // The same auth + firewall wall as admission: Cancel is a door a hostile
  // client can knock on too, and wrong tokens count toward the lockout.
  {
    std::lock_guard lock(firewall_mutex_);
    const double now = now_minutes();
    if (firewall_.is_blocked(cancel.tenant, now)) {
      return reject(session, RejectCode::LockedOut, "tenant is locked out");
    }
    if (cancel.token != config_.token) {
      if (firewall_.record_failure(cancel.tenant, now)) {
        stats_.lockouts.fetch_add(1, std::memory_order_relaxed);
        trace::instant("lab.lockout", "lab");
        return reject(session, RejectCode::LockedOut,
                      "too many bad tokens; tenant locked out");
      }
      return reject(session, RejectCode::BadToken, "wrong auth token");
    }
    firewall_.record_success(cancel.tenant);
  }

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
    stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
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
    Result result;
    result.job_id = cancel.job_id;
    result.exit_code = 130;  // the interrupted-job convention
    result.error = "cancelled by tenant";
    if (removed->deliver) {
      removed->deliver(result);
    } else {
      set_job_state(cancel.job_id, JobState::Done);
    }
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
  stats_.rejected.fetch_add(1, std::memory_order_relaxed);
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
    if (job->deliver) job->deliver(result);
  }
}

void Server::finish_job(const std::shared_ptr<Session>& session,
                        std::uint64_t job_id, std::uint64_t digest,
                        const Submit& submit, const Result& result) {
  if (result.exit_code == 0) {
    // Only clean runs become golden outputs; a chaos-aborted or failed run
    // must re-execute next time, never haunt the cache.
    cache_.insert(digest, result);
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  set_job_state(job_id, JobState::Done);
  trace::Counter("lab.results").add(1.0);
  // Journal-before-ack: the record is fsync-covered when journal() returns,
  // so any Result frame the client ever sees is already durable. A kill
  // between the two costs the client a frame (a retry re-submits into the
  // warm cache), never a journaled record.
  journal(digest, submit, result);
  if (!session->send(protocol::encode_result(result))) {
    stats_.lost_results.fetch_add(1, std::memory_order_relaxed);
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
  if (query.tenant.empty()) {
    return reject(session, RejectCode::BadRequest,
                  "report carries no tenant id");
  }
  // Same auth wall as admission: reports leak a whole class's aggregate
  // state, so bad tokens count toward the same lockout.
  {
    std::lock_guard lock(firewall_mutex_);
    const double now = now_minutes();
    if (firewall_.is_blocked(query.tenant, now)) {
      return reject(session, RejectCode::LockedOut, "tenant is locked out");
    }
    if (query.token != config_.token) {
      if (firewall_.record_failure(query.tenant, now)) {
        stats_.lockouts.fetch_add(1, std::memory_order_relaxed);
        trace::instant("lab.lockout", "lab");
        return reject(session, RejectCode::LockedOut,
                      "too many bad tokens; tenant locked out");
      }
      return reject(session, RejectCode::BadToken, "wrong auth token");
    }
    firewall_.record_success(query.tenant);
  }
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
