#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pdc::trace {

/// Clock every trace timestamp is taken from. steady_clock so that spans
/// recorded on different threads (ranks) are comparable and never go
/// backwards — the property chrome://tracing needs to lay out lanes.
using Clock = std::chrono::steady_clock;

/// Kind of a recorded event, mirroring the Chrome trace phases we emit:
/// Complete ("X", a named duration), Instant ("i", a point marker such as an
/// abort), Counter ("C", one sample of a monotonic per-lane counter series).
enum class EventType : std::uint8_t { Complete, Instant, Counter };

/// One recorded event. Timestamps are microseconds since the session start.
///
/// `pid` is the timeline lane a rank occupies (world rank inside mp::run,
/// 0 for plain host/smp threads); `tid` is a process-wide sequential thread
/// id — together they give chrome://tracing its pid-per-rank /
/// tid-per-thread layout.
struct TraceEvent {
  std::string name;
  std::string category;
  EventType type = EventType::Instant;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;  ///< Complete events only
  int pid = 0;
  int tid = 0;
  double value = 0.0;            ///< Counter events: cumulative total
  std::int64_t bytes = -1;       ///< optional payload annotation (-1 = none)
};

/// A recording of one traced run.
///
/// At most one session is active at a time, process-wide; while one is
/// active every instrumented point in the mp/smp runtimes records into it.
/// With no session active the instrumentation costs a single relaxed atomic
/// load per probe point — the "compiled to near-zero" path the benchmarks
/// hold to a < 2 % budget.
///
/// Thread safety: recording is safe from any number of threads. The session
/// object must outlive every Span opened while it was active (keep it on
/// the stack around the traced workload, as examples/trace_lab does).
class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Make this the process-wide active session and reset its clock.
  /// Throws pdc::InvalidArgument if another session is already active.
  void start();

  /// Stop recording and deactivate. Events arriving afterwards (e.g. from a
  /// Span closing late) are dropped. Idempotent.
  void stop();

  /// Whether this session is currently the active recorder.
  [[nodiscard]] bool running() const noexcept;

  /// The active session, or nullptr when tracing is off.
  static TraceSession* active() noexcept;

  // ---- recording (usually reached via Span/Counter/instant below) -------

  /// Append one event. Fills in pid/tid from the calling thread if the
  /// event carries the defaults. Dropped after stop().
  void record(TraceEvent event);

  /// Add `delta` to the cumulative counter `name` on the calling thread's
  /// pid lane and record the new total as a Counter event.
  void add_counter(const std::string& name, double delta);

  /// Label a pid lane (chrome process_name metadata; e.g. "rank 2").
  void set_pid_name(int pid, std::string name);

  // ---- introspection ----------------------------------------------------

  /// Snapshot of everything recorded so far, in arrival order.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Number of events recorded so far.
  [[nodiscard]] std::size_t event_count() const;

  /// Final cumulative value of counter `name` summed over all pid lanes
  /// (0.0 if never touched).
  [[nodiscard]] double counter_total(const std::string& name) const;

  /// Final cumulative value of counter `name` on lane `pid`.
  [[nodiscard]] double counter_total(const std::string& name, int pid) const;

  /// Per-lane totals of counter `name`, keyed by pid.
  [[nodiscard]] std::map<int, double> counter_by_pid(
      const std::string& name) const;

  /// Registered pid lane names.
  [[nodiscard]] std::map<int, std::string> pid_names() const;

  /// Microseconds elapsed since start() for an arbitrary Clock time point
  /// (clamped at 0 for stamps taken before the session started).
  [[nodiscard]] std::int64_t since_start_us(Clock::time_point t) const noexcept;

  /// Microseconds elapsed since start().
  [[nodiscard]] std::int64_t now_us() const noexcept {
    return since_start_us(Clock::now());
  }

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::string, std::map<int, double>> counters_;
  std::map<int, std::string> pid_names_;
  Clock::time_point epoch_{};
  bool accepting_ = false;
};

/// True iff a session is recording. One relaxed atomic load.
[[nodiscard]] bool enabled() noexcept;

// ---- thread context -----------------------------------------------------

/// The calling thread's timeline lane (world rank under mp::run, else 0).
[[nodiscard]] int current_pid() noexcept;

/// Process-wide sequential id of the calling thread (assigned on first use,
/// starting at 1).
[[nodiscard]] int current_tid() noexcept;

/// RAII: route the calling thread's events to pid lane `pid` (and name the
/// lane, if a session is active). mp::run opens one per rank so every rank
/// gets its own chrome://tracing process row.
class PidScope {
 public:
  explicit PidScope(int pid, const std::string& name = {}) noexcept;
  ~PidScope();

  PidScope(const PidScope&) = delete;
  PidScope& operator=(const PidScope&) = delete;

 private:
  int previous_;
};

// ---- lightweight emitters ----------------------------------------------

/// RAII scoped duration event: records one Complete event covering its
/// lifetime, attributed to the session that was active at construction.
/// When tracing is off, construction and destruction are a relaxed atomic
/// load and a null check.
class Span {
 public:
  Span(const char* name, const char* category) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Annotate the span with a payload size (shown in chrome://tracing args
  /// and aggregated by the text report).
  void set_bytes(std::int64_t bytes) noexcept { bytes_ = bytes; }

 private:
  const char* name_;
  const char* category_;
  TraceSession* session_;
  Clock::time_point start_{};
  std::int64_t bytes_ = -1;
};

/// Named monotonic counter; add() is a no-op without an active session.
/// Totals accumulate per pid lane, which is how the report gets
/// "bytes sent per rank" from a single `Counter{"mp.bytes_sent"}`.
class Counter {
 public:
  explicit constexpr Counter(const char* name) noexcept : name_(name) {}

  void add(double delta) const noexcept;

  [[nodiscard]] const char* name() const noexcept { return name_; }

 private:
  const char* name_;
};

/// Record a point event (e.g. "mp.abort") at the current time.
void instant(const char* name, const char* category) noexcept;

}  // namespace pdc::trace
