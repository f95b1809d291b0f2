#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lab/fields.hpp"
#include "mp/message.hpp"
#include "net/wire.hpp"
#include "store/store.hpp"

namespace pdc::lab {
/// The lab subsystem frames everything in the PDCN wire vocabulary.
namespace wire = pdc::net::wire;
}  // namespace pdc::lab

namespace pdc::lab::protocol {

// The lab service speaks PDCN frames (net/wire.hpp) with the Submit..Report
// frame kinds. Each body is one wire::Fields list in protocol.cpp, so a
// hostile client hits the typed-ProtocolError-before-allocation wall of
// every control frame, and no encoder emits what its decoder rejects. The
// clamps a store::ResultRecord shares live in lab/fields.hpp.

/// Clamp on an inline source payload (a notebook cell). Validated against
/// the bytes actually present before the std::string is sized — an
/// oversized length prefix is rejected, not allocated.
inline constexpr std::uint32_t kMaxSourceBytes = 64u << 10;  // 64 KiB

/// Output bytes (with length prefixes) one Result or Status push keeps.
inline constexpr std::uint32_t kMaxOutputBytes =
    wire::kMaxControlBodyBytes / 2;

/// Largest world size a submission may request.
inline constexpr int kMaxProcs = 16;

/// What a Submit asks the server to run.
enum class JobKind : std::uint16_t {
  Patternlet = 1,  ///< a named mpi patternlet rank program (`name`, `np`)
  Exemplar = 2,    ///< a named exemplar kernel; `seed` feeds its RNG
  Notebook = 3,    ///< notebook cell source executed by the mpi4py engine
  Grade = 4,       ///< autograde one mutant: `name` is a MutantSpec id
                   ///< ("spmd~race#0@np4"), `seed` the schedule seed base,
                   ///< `source` optional "k=N watchdog_ms=N" options
};

const char* job_kind_name(JobKind kind) noexcept;

/// Client → server: one run request. `token` authenticates, `tenant`
/// identifies the student for quota/fairness, the rest describes the job.
struct Submit {
  std::string token;
  std::string tenant;
  JobKind kind = JobKind::Patternlet;
  std::string name;        ///< program name ("spmd", "pi", ...); "" for Notebook
  int np = 1;              ///< requested world size
  std::uint64_t seed = 0;  ///< exemplar RNG seed (part of the cache digest)
  std::string source;      ///< notebook cell source; "" otherwise

  bool operator==(const Submit&) const = default;
};

/// Server → client: the submission was admitted.
struct Accept {
  std::uint64_t job_id = 0;
  std::uint32_t queue_position = 0;  ///< 0 = dispatched without queuing
};

/// Job lifecycle states reported by Status frames.
enum class JobState : std::uint16_t {
  Unknown = 0,  ///< the server has no such job (also the query value)
  Queued = 1,
  Running = 2,
  Done = 3,
};

/// Client → server: `state == Unknown` asks about `job_id`.
/// Server → client: the reply, with the server's current queue depth.
/// While a job runs, the server may also push unsolicited Status frames
/// carrying `output` — the lines the job printed since the last push, a
/// bounded best-effort preview. The terminal Result always carries the
/// complete output; a dropped or truncated Status stream loses nothing.
struct Status {
  std::uint64_t job_id = 0;
  JobState state = JobState::Unknown;
  std::uint32_t queue_depth = 0;
  std::vector<std::string> output;  ///< incremental lines; usually empty

  bool operator==(const Status&) const = default;
};

/// Server → client: terminal outcome of an admitted job.
struct Result {
  std::uint64_t job_id = 0;
  std::int32_t exit_code = 0;  ///< 0 = the program ran to completion
  bool cached = false;         ///< served from the result cache, not executed
  std::uint64_t exec_us = 0;   ///< execution time (the cached run's, if cached)
  std::vector<std::string> output;  ///< captured lines, run order
  std::string error;                ///< one-line failure cause; "" when ok

  bool operator==(const Result&) const = default;
};

/// Why a submission was refused.
enum class RejectCode : std::uint16_t {
  BadToken = 1,    ///< wrong auth token (counts toward the firewall lockout)
  LockedOut = 2,   ///< the tenant tripped the eager-beaver firewall
  QuotaFull = 3,   ///< tenant's queued-jobs quota exhausted
  BadRequest = 4,  ///< unknown program, np out of range, malformed fields
  Overloaded = 5,  ///< admission aborted (chaos or shedding); retry later
  Shutdown = 6,    ///< the server is draining
};

const char* reject_code_name(RejectCode code) noexcept;

struct Reject {
  RejectCode code = RejectCode::BadRequest;
  std::string reason;
};

/// Client → server: withdraw an admitted job. A queued job is dequeued
/// (its tenant's quota slot frees immediately); a running job's worker
/// process is killed. `token` re-authenticates and `tenant` must match
/// the submitting tenant — one student cannot cancel another's job. The
/// server acks a successful cancel with Status{job_id, Done} and answers
/// an unknown/foreign/already-finished job with a Reject.
struct Cancel {
  std::string token;
  std::string tenant;
  std::uint64_t job_id = 0;

  bool operator==(const Cancel&) const = default;
};

/// Lab server → worker process: execute this admitted job. Internal to
/// the shard pool (tools/pdclab `worker` mode); never sent by clients —
/// a Dispatch arriving on a client session is a protocol violation.
struct Dispatch {
  std::uint64_t job_id = 0;
  Submit submit;

  bool operator==(const Dispatch&) const = default;
};

/// Role of a Report frame in the query/stream exchange.
enum class ReportRole : std::uint16_t {
  Query = 0,   ///< client → server: send me cohort aggregates
  Cohort = 1,  ///< server → client: one cohort's aggregate
  End = 2,     ///< server → client: stream complete (`cohort` = "" always)
};

/// Clamp on the distinct verdict names one cohort aggregate may carry.
inline constexpr std::uint32_t kMaxReportVerdicts = 64;
/// Clamp on the histogram shape a Report frame may claim.
inline constexpr std::uint32_t kMaxReportBins = 256;

/// Cohort-aggregate exchange. The client sends a Query (aggregate.cohort
/// "" asks for every cohort; a name asks for that one, answered even when
/// empty). The server — store-backed only; without a store the query is
/// Rejected — streams one Cohort frame per cohort, sorted by name, then one
/// End frame. The aggregate payload is a store::CohortReport: counts plus
/// the folded Welford/Histogram state, deterministic for a given record set.
struct Report {
  ReportRole role = ReportRole::Query;
  std::string token;   ///< Query only: authenticates like Submit
  std::string tenant;  ///< Query only: requester (firewall accounting)
  store::CohortReport aggregate;  ///< counts: Cohort role only

  bool operator==(const Report&) const = default;
};

// ---- framing -------------------------------------------------------------
// encode_* return a complete frame (one buffer) ready for send_all, and
// throw net::ProtocolError rather than emit a field past its clamp; decode_*
// take the received body for the matching FrameKind and throw
// net::ProtocolError on anything malformed, truncated, oversized or
// trailing-byte-ridden.

mp::Bytes encode_submit(const Submit& submit);
Submit decode_submit(const mp::Bytes& body);

mp::Bytes encode_accept(const Accept& accept);
Accept decode_accept(const mp::Bytes& body);

mp::Bytes encode_status(const Status& status);
Status decode_status(const mp::Bytes& body);

mp::Bytes encode_result(const Result& result);
Result decode_result(const mp::Bytes& body);

mp::Bytes encode_reject(const Reject& reject);
Reject decode_reject(const mp::Bytes& body);

mp::Bytes encode_cancel(const Cancel& cancel);
Cancel decode_cancel(const mp::Bytes& body);

mp::Bytes encode_dispatch(const Dispatch& dispatch);
Dispatch decode_dispatch(const mp::Bytes& body);

mp::Bytes encode_report(const Report& report);
Report decode_report(const mp::Bytes& body);

/// How many of `lines`, from the first, fit in `max_lines` lines and
/// `max_bytes` bytes, each line counted with its 4-byte length prefix.
std::size_t lines_that_fit(std::span<const std::string> lines,
                           std::size_t max_lines, std::size_t max_bytes);

/// Fits an executed Result to its frame, so the server never forms an
/// answer its own client would reject. Each output line is cut to
/// kMaxLineBytes; if the lines then pass kMaxOutputLines or
/// kMaxOutputBytes, the longest prefix that leaves room for one more line
/// is kept. Whenever anything was cut or dropped, the last line is one
/// marker: "[output truncated: kept K of N lines, C cut to 4096 bytes]".
/// `error` is cut to kMaxReasonBytes.
void fit_result(Result& result);

/// The terminal Result of a job withdrawn by its tenant's Cancel, queued or
/// running: exit 130 (the interrupted-job convention), "cancelled by tenant".
Result cancelled_result(std::uint64_t job_id);

/// The terminal Result of a job still queued when the server stops: exit 3,
/// "lab server shutting down".
Result shutdown_result(std::uint64_t job_id);

/// Content digest of a submission: everything that determines the job's
/// output (kind, name, np, seed, source) and nothing that doesn't (token,
/// tenant) — so two students running the same patternlet share one cached
/// golden output. FNV-1a over the canonical field encoding.
std::uint64_t digest(const Submit& submit) noexcept;

}  // namespace pdc::lab::protocol
