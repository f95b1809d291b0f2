#include "store/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <shared_mutex>
#include <utility>

#include "assessment/streaming.hpp"
#include "chaos/chaos.hpp"
#include "lab/fields.hpp"
#include "net/wire.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::store {

namespace wire = pdc::net::wire;

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw Error("store: " + what + " '" + path + "': " + std::strerror(errno));
}

void make_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw_errno("cannot create directory", dir);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno("cannot fsync directory", dir);
}

void write_file_all(int fd, const std::string& path, const std::byte* data,
                    std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot write", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Deterministic fixed-point rendering for the canonical report: the same
/// double always prints the same bytes.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

// ---- record codecs -------------------------------------------------------

namespace {

using lab::protocol::Identity;
using lab::protocol::Name;
using lab::protocol::OutputLines;
using wire::Field;
using wire::Fields;
using Text = wire::Str<kMaxFieldBytes>;

using ResultRecordFields = Fields<
    Field<&ResultRecord::digest>, Field<&ResultRecord::kind>,
    Field<&ResultRecord::np>, Field<&ResultRecord::seed>,
    Field<&ResultRecord::exit_code>, Field<&ResultRecord::exec_us>,
    Field<&ResultRecord::tenant, Identity>, Field<&ResultRecord::name, Name>,
    Field<&ResultRecord::error, Text>,
    Field<&ResultRecord::output, OutputLines>>;

using GradeRecordFields = Fields<
    Field<&GradeRecord::cohort, Text>, Field<&GradeRecord::mutant, Text>,
    Field<&GradeRecord::submission, Text>, Field<&GradeRecord::verdict, Text>,
    Field<&GradeRecord::matched>, Field<&GradeRecord::explored>,
    Field<&GradeRecord::divergence>, Field<&GradeRecord::detail, Text>>;

}  // namespace

mp::Bytes encode_result_record(const ResultRecord& record) {
  return wire::encode_body<ResultRecordFields>(record);
}

ResultRecord decode_result_record(const mp::Bytes& body) {
  return wire::decode_body<ResultRecordFields>(body);
}

mp::Bytes encode_grade_record(const GradeRecord& record) {
  return wire::encode_body<GradeRecordFields>(record);
}

GradeRecord decode_grade_record(const mp::Bytes& body) {
  return wire::decode_body<GradeRecordFields>(body);
}

// ---- report --------------------------------------------------------------

std::vector<std::string> render_report(const CohortReport& report) {
  std::vector<std::string> lines;
  lines.push_back("cohort: " + report.cohort);
  lines.push_back("results: " + std::to_string(report.results) +
                  " ok=" + std::to_string(report.results - report.failures) +
                  " failed=" + std::to_string(report.failures));
  lines.push_back("grades: " + std::to_string(report.grades));
  for (const auto& [verdict, count] : report.verdicts) {
    lines.push_back("verdict " + verdict + ": " + std::to_string(count));
  }
  lines.push_back("matched: " + std::to_string(report.matched) + "/" +
                  std::to_string(report.explored));
  if (report.divergence_count == 0) {
    lines.push_back("divergence: n=0");
  } else {
    lines.push_back(
        "divergence: n=" + std::to_string(report.divergence_count) +
        " mean=" + fmt(report.divergence_mean) +
        " stddev=" + fmt(report.divergence_stddev) +
        " min=" + fmt(report.divergence_min) +
        " max=" + fmt(report.divergence_max));
  }
  for (std::size_t bin = 0; bin < report.histogram.size(); ++bin) {
    if (report.histogram[bin] == 0) continue;
    lines.push_back("divergence[" + std::to_string(bin) + "," +
                    std::to_string(bin + 1) +
                    "): " + std::to_string(report.histogram[bin]));
  }
  return lines;
}

// ---- Store ---------------------------------------------------------------

Store::Store(StoreConfig config)
    : dir_(config.dir), config_(std::move(config)) {
  if (dir_.empty()) throw InvalidArgument("store: empty directory");
  make_dir(dir_);
  // A leftover snapshot.tmp is a compaction a crash interrupted before the
  // atomic rename; the old snapshot + log are authoritative, the tmp is not.
  ::unlink((dir_ + "/snapshot.tmp").c_str());

  const ScanResult snapshot = Wal::scan(dir_ + "/snapshot.pdcs");
  for (const WalRecord& record : snapshot.records) {
    apply(record, recover_stats_);
  }
  recover_stats_.snapshot_records = snapshot.records.size();
  recover_stats_.dropped_bytes += snapshot.dropped_bytes;
  if (!snapshot.tail_reason.empty()) {
    recover_stats_.tail_reason = "snapshot: " + snapshot.tail_reason;
  }

  WalConfig wal_config;
  wal_config.fsync = config_.fsync;
  wal_config.group_commit_window_us = config_.group_commit_window_us;
  wal_ = std::make_unique<Wal>(dir_ + "/wal.pdcs", wal_config);
  for (const WalRecord& record : wal_->recovered().records) {
    apply(record, recover_stats_);
  }
  recover_stats_.log_records = wal_->recovered().records.size();
  log_records_ = recover_stats_.log_records;
  recover_stats_.dropped_bytes += wal_->recovered().dropped_bytes;
  if (!wal_->recovered().tail_reason.empty()) {
    if (!recover_stats_.tail_reason.empty()) recover_stats_.tail_reason += "; ";
    recover_stats_.tail_reason += "log: " + wal_->recovered().tail_reason;
  }
  recover_stats_.results = results_.size();
  recover_stats_.grades = grades_.size();

  trace::Counter("store.recovered_records")
      .add(static_cast<double>(recover_stats_.snapshot_records +
                               recover_stats_.log_records));
  if (recover_stats_.dropped_bytes > 0) {
    trace::Counter("store.dropped_tail")
        .add(static_cast<double>(recover_stats_.dropped_bytes));
  }
}

void Store::apply(const WalRecord& record, RecoverStats& stats) {
  // A CRC-valid record whose body still fails to decode (snapshot+log
  // written by disagreeing versions, or a forged test file) is skipped and
  // counted — recovery keeps everything decodable, never crashes.
  try {
    switch (record.kind) {
      case RecordKind::Result: {
        ResultRecord result = decode_result_record(record.body);
        results_[result.digest] = std::move(result);
        return;
      }
      case RecordKind::Grade: {
        GradeRecord grade = decode_grade_record(record.body);
        grades_[grade_key(grade)] = std::move(grade);
        return;
      }
    }
    ++stats.malformed;
  } catch (const std::exception&) {
    ++stats.malformed;
  }
}

void Store::put_result(const ResultRecord& record) {
  const mp::Bytes body = encode_result_record(record);
  bool want_compact = false;
  {
    std::shared_lock gate(compact_mutex_);
    wal_->append(RecordKind::Result, 0, body);
    std::lock_guard lock(mutex_);
    results_[record.digest] = record;
    ++log_records_;
    want_compact =
        config_.compact_every > 0 && log_records_ >= config_.compact_every;
  }
  if (want_compact) compact();
}

void Store::put_grade(const GradeRecord& record) {
  const mp::Bytes body = encode_grade_record(record);
  bool want_compact = false;
  {
    std::shared_lock gate(compact_mutex_);
    wal_->append(RecordKind::Grade, 0, body);
    std::lock_guard lock(mutex_);
    grades_[grade_key(record)] = record;
    ++log_records_;
    want_compact =
        config_.compact_every > 0 && log_records_ >= config_.compact_every;
  }
  if (want_compact) compact();
}

void Store::compact() {
  // The exclusive gate drains every in-flight put: once held, no record is
  // between "appended to the log" and "indexed in the maps", so the
  // snapshot + reset pair below cannot strand one.
  std::unique_lock gate(compact_mutex_);
  std::lock_guard lock(mutex_);
  if (log_records_ == 0) return;  // lost a compaction race; nothing to do
  compact_locked();
}

void Store::compact_locked() {
  // Same lane routing as Wal::append: decision 0 is "store.compact" (before
  // the tmp write), decision 1 "store.compact.swap" (before the rename).
  chaos::ActorScope actor(chaos::kStoreActor);
  chaos::on_op("store.compact");
  mp::Bytes contents;
  for (const auto& [digest, record] : results_) {
    const mp::Bytes frame = Wal::encode_record(RecordKind::Result, 0,
                                               encode_result_record(record));
    contents.insert(contents.end(), frame.begin(), frame.end());
  }
  for (const auto& [key, record] : grades_) {
    const mp::Bytes frame = Wal::encode_record(RecordKind::Grade, 0,
                                               encode_grade_record(record));
    contents.insert(contents.end(), frame.begin(), frame.end());
  }

  const std::string tmp = dir_ + "/snapshot.tmp";
  const std::string snapshot = dir_ + "/snapshot.pdcs";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  try {
    write_file_all(fd, tmp, contents.data(), contents.size());
    if (config_.fsync && ::fdatasync(fd) != 0) throw_errno("cannot fsync", tmp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  // A kill from here to the rename leaves old snapshot + full log (the tmp
  // is discarded at the next open); a kill between the rename and reset()
  // replays the log's records over a snapshot that already holds them —
  // idempotent upserts, identical recovered state either way.
  chaos::on_op("store.compact.swap");
  if (::rename(tmp.c_str(), snapshot.c_str()) != 0) {
    throw_errno("cannot rename snapshot into place in", dir_);
  }
  if (config_.fsync) fsync_dir(dir_);
  wal_->reset();
  log_records_ = 0;
  trace::Counter("store.compactions").add(1.0);
}

void Store::sync() {
  std::shared_lock gate(compact_mutex_);
  wal_->sync();
}

RecoverStats Store::recover_stats() const {
  std::lock_guard lock(mutex_);
  return recover_stats_;
}

std::map<std::uint64_t, ResultRecord> Store::results() const {
  std::lock_guard lock(mutex_);
  return results_;
}

std::map<GradeKey, GradeRecord> Store::grades() const {
  std::lock_guard lock(mutex_);
  return grades_;
}

std::uint64_t Store::result_count() const {
  std::lock_guard lock(mutex_);
  return results_.size();
}

std::uint64_t Store::grade_count() const {
  std::lock_guard lock(mutex_);
  return grades_.size();
}

std::vector<std::string> Store::cohorts() const {
  std::lock_guard lock(mutex_);
  std::set<std::string> names;
  for (const auto& [digest, record] : results_) names.insert(record.tenant);
  for (const auto& [key, record] : grades_) names.insert(record.cohort);
  return {names.begin(), names.end()};
}

CohortReport Store::report(const std::string& cohort) const {
  std::lock_guard lock(mutex_);
  return report_locked(cohort);
}

CohortReport Store::report_locked(const std::string& cohort) const {
  CohortReport report;
  report.cohort = cohort;
  for (const auto& [digest, record] : results_) {
    if (record.tenant != cohort) continue;
    ++report.results;
    if (!record.cacheable()) ++report.failures;
  }

  assessment::Welford divergence;
  assessment::Histogram histogram(0.0, static_cast<double>(kReportBins),
                                  kReportBins);
  std::map<std::string, std::uint64_t> verdicts;
  for (const auto& [key, record] : grades_) {
    if (record.cohort != cohort) continue;
    ++report.grades;
    ++verdicts[record.verdict];
    report.matched += record.matched;
    report.explored += record.explored;
    divergence.add(record.divergence);
    histogram.add(record.divergence);
  }
  report.verdicts.assign(verdicts.begin(), verdicts.end());
  report.divergence_count = divergence.count();
  if (divergence.count() > 0) {
    report.divergence_mean = divergence.mean();
    report.divergence_min = divergence.min();
    report.divergence_max = divergence.max();
  }
  if (divergence.count() > 1) {
    report.divergence_stddev = divergence.sample_stddev();
  }
  report.histogram.resize(kReportBins);
  for (std::size_t bin = 0; bin < kReportBins; ++bin) {
    report.histogram[bin] = histogram.bin_count(bin);
  }
  return report;
}

std::uint64_t Store::wal_appends() const { return wal_->appends(); }
std::uint64_t Store::wal_fsyncs() const { return wal_->fsyncs(); }
std::uint64_t Store::wal_bytes() const { return wal_->size_bytes(); }

}  // namespace pdc::store
