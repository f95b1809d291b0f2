#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mp/message.hpp"
#include "store/wal.hpp"

namespace pdc::store {

// The persistence subsystem under the lab server and the autograder.
//
// A Store is a directory holding two files in the identical CRC32-framed
// record format (wal.hpp): `snapshot.pdcs`, the compacted state as of the
// last compaction, and `wal.pdcs`, every record appended since. Recovery
// replays log over snapshot; both maps are keyed upserts, so a crash that
// lands between "snapshot renamed" and "log reset" merely replays records
// the snapshot already holds — the recovered state is identical either way.
//
// Layering: store sits below lab and grade (both journal through it), so it
// defines its own record structs rather than reusing lab::protocol::Result
// or grade::Grade. The lab server and the GradeBook convert at the edge.
// Each record body is one wire::Fields list in store.cpp; a ResultRecord
// field that came from a Submit or Result field takes that field's codec
// and clamp from lab/fields.hpp.

/// Clamp on the GradeRecord strings, which no lab frame carries, and on
/// ResultRecord::error: earlier versions journaled the executor's error
/// text uncut up to this clamp, and those records must stay readable.
inline constexpr std::uint32_t kMaxFieldBytes = 4096;

/// One terminal lab result, keyed by the submission content digest.
/// `tenant` doubles as the cohort tag for per-cohort report aggregation.
struct ResultRecord {
  std::uint64_t digest = 0;   ///< lab::protocol::digest of the submission
  std::string tenant;         ///< submitting student; the result's cohort tag
  std::uint16_t kind = 0;     ///< lab::protocol::JobKind as its wire value
  std::string name;           ///< program / mutant name
  std::int32_t np = 1;
  std::uint64_t seed = 0;
  std::int32_t exit_code = 0;
  std::uint64_t exec_us = 0;
  std::vector<std::string> output;
  std::string error;

  bool operator==(const ResultRecord&) const = default;

  /// Cache-warm eligibility: the "failures never cached" rule. Cancelled
  /// and failed results are journaled (the report counts them) but a warm
  /// start must not serve them from cache.
  [[nodiscard]] bool cacheable() const noexcept { return exit_code == 0; }
};

/// One autograder verdict, keyed by (cohort, mutant id, submission).
/// The verdict travels as its canonical name string ("Caught", "Missed",
/// ...) so the store never links pdc::grade; grade parses it back.
struct GradeRecord {
  std::string cohort;
  std::string mutant;      ///< MutantSpec id ("spmd~race#0@np4")
  std::string submission;  ///< submission/student tag within the cohort
  std::string verdict;     ///< grade::verdict_name() string
  std::uint32_t matched = 0;
  std::uint32_t explored = 0;
  double divergence = 0.0;
  std::string detail;

  bool operator==(const GradeRecord&) const = default;
};

/// Sorted-map key for the grade index. Lexicographic tuple order makes the
/// fold order — and therefore every aggregate and rendered report — a pure
/// function of the record *set*, independent of arrival or recovery order.
using GradeKey = std::tuple<std::string, std::string, std::string>;

[[nodiscard]] inline GradeKey grade_key(const GradeRecord& record) {
  return {record.cohort, record.mutant, record.submission};
}

// ---- record codecs (bodies of wal.hpp frames) ----------------------------
// Truncated or oversized fields throw net::ProtocolError before any
// allocation — the recovery path treats that exactly like a CRC mismatch —
// and encode refuses a field past its clamp.

mp::Bytes encode_result_record(const ResultRecord& record);
ResultRecord decode_result_record(const mp::Bytes& body);

mp::Bytes encode_grade_record(const GradeRecord& record);
GradeRecord decode_grade_record(const mp::Bytes& body);

/// What recovery found. dropped_bytes > 0 means a torn or corrupt tail was
/// discarded (and `tail_reason` says why the scan stopped); malformed is
/// the count of CRC-valid records whose body failed to decode.
struct RecoverStats {
  std::uint64_t snapshot_records = 0;
  std::uint64_t log_records = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t malformed = 0;
  std::string tail_reason;  ///< log's reason; "" = clean EOF
  std::uint64_t results = 0;  ///< distinct result digests after replay
  std::uint64_t grades = 0;   ///< distinct grade keys after replay
};

struct StoreConfig {
  std::string dir;

  /// WAL durability knobs (wal.hpp).
  bool fsync = true;
  int group_commit_window_us = 0;

  /// Compact (snapshot + log reset) automatically once this many records
  /// accumulate in the log. 0 = compact only when asked.
  std::uint64_t compact_every = 0;
};

/// Per-cohort aggregate: result counts plus merge-able grade statistics
/// (assessment::Welford over divergence, a fixed-shape histogram of it),
/// folded in sorted key order so the numbers — and render_report()'s bytes —
/// never depend on arrival, shard or recovery order. Wall-clock quantities
/// (exec_us) are deliberately absent from the canonical rendering.
struct CohortReport {
  std::string cohort;
  std::uint64_t results = 0;   ///< result records tagged with this cohort
  std::uint64_t failures = 0;  ///< of those, journaled-but-never-cached
  std::uint64_t grades = 0;
  /// verdict name → count, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> verdicts;
  std::uint64_t matched = 0;   ///< sum of matched schedules
  std::uint64_t explored = 0;  ///< sum of explored schedules
  /// Welford aggregate over per-verdict divergence.
  std::uint64_t divergence_count = 0;
  double divergence_mean = 0.0;
  double divergence_stddev = 0.0;  ///< 0 when divergence_count < 2
  double divergence_min = 0.0;
  double divergence_max = 0.0;
  /// Fixed-shape histogram of divergence over [0, kReportBins): unit-width
  /// buckets, edge-clamped (assessment::Histogram) — the same shape
  /// grade::CohortStats uses, exact-integer merge-able.
  std::vector<std::uint64_t> histogram;

  bool operator==(const CohortReport&) const = default;
};

inline constexpr std::size_t kReportBins = 64;

/// Canonical text rendering of a report — one deterministic line vector,
/// byte-identical for equal reports. What `pdclab report` prints and what
/// the kill sweep compares against the uninterrupted run.
std::vector<std::string> render_report(const CohortReport& report);

/// The crash-safe result + grade store.
///
/// Durability: put_result()/put_grade() return only after the record is
/// fsync-covered in the WAL (group-committed under concurrency) — callers
/// ack to the network *after* the put returns, so acked ⇒ durable.
///
/// Thread safety: all public methods are safe to call concurrently.
class Store {
 public:
  /// Open (creating the directory if needed) and recover: replay
  /// snapshot.pdcs, then wal.pdcs over it, dropping any torn tail. Bumps
  /// the `store.recovered_records` / `store.dropped_tail` trace counters.
  explicit Store(StoreConfig config);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Journal one terminal result (durable on return) and index it.
  void put_result(const ResultRecord& record);

  /// Journal one grade verdict (durable on return) and index it.
  void put_grade(const GradeRecord& record);

  /// Snapshot the current state to snapshot.pdcs (tmp + atomic rename +
  /// directory fsync) and reset the log. Crash-safe at every step: a kill
  /// before the rename leaves the old snapshot + full log; a kill after it
  /// but before the log reset replays duplicate records into idempotent
  /// upserts. Chaos checkpoints "store.compact" (before the tmp write) and
  /// "store.compact.swap" (before the rename).
  void compact();

  /// fsync everything appended so far. The graceful-shutdown hook.
  void sync();

  /// What recovery found at open.
  [[nodiscard]] RecoverStats recover_stats() const;

  /// Snapshot of the result index (digest → record, sorted).
  [[nodiscard]] std::map<std::uint64_t, ResultRecord> results() const;

  /// Snapshot of the grade index (sorted by (cohort, mutant, submission)).
  [[nodiscard]] std::map<GradeKey, GradeRecord> grades() const;

  [[nodiscard]] std::uint64_t result_count() const;
  [[nodiscard]] std::uint64_t grade_count() const;

  /// Cohorts present (union of result tenants and grade cohorts), sorted.
  [[nodiscard]] std::vector<std::string> cohorts() const;

  /// Aggregate one cohort. A cohort with no records reports all-zero.
  [[nodiscard]] CohortReport report(const std::string& cohort) const;

  /// WAL observability (bench_store's appends/fsyncs ratio).
  [[nodiscard]] std::uint64_t wal_appends() const;
  [[nodiscard]] std::uint64_t wal_fsyncs() const;
  [[nodiscard]] std::uint64_t wal_bytes() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void apply(const WalRecord& record, RecoverStats& stats);
  void compact_locked();
  [[nodiscard]] CohortReport report_locked(const std::string& cohort) const;

  const std::string dir_;
  const StoreConfig config_;

  /// Compaction gate: put_result/put_grade hold it shared around their
  /// append-then-index pair (many at once — group commit needs concurrent
  /// appenders), compact() holds it exclusive so no record can sit between
  /// "in the log" and "in the maps" while the log is reset.
  mutable std::shared_mutex compact_mutex_;

  mutable std::mutex mutex_;
  std::map<std::uint64_t, ResultRecord> results_;
  std::map<GradeKey, GradeRecord> grades_;
  std::uint64_t log_records_ = 0;  ///< records in wal.pdcs (for compact_every)
  RecoverStats recover_stats_;

  std::unique_ptr<Wal> wal_;
};

}  // namespace pdc::store
