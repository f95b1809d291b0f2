#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mp/message.hpp"

namespace pdc::store {

/// "PDCS", little-endian, first on every record. Same posture as the PDCN
/// wire magic: a file that does not open with it is not a store log.
inline constexpr std::uint32_t kWalMagic = 0x53434450;

/// Hard clamp on a record body. A length field above this is torn, corrupt
/// or hostile and ends recovery at the previous record — it is never
/// allowed to drive an allocation (the same rule every PDCN frame obeys).
/// Sized to hold a full Result record at the lab protocol's output clamps
/// (4096 lines x 4096 bytes) with framing headroom.
inline constexpr std::uint32_t kMaxRecordBytes = 24u << 20;  // 24 MiB

/// Record header: | magic u32 | kind u16 | flags u16 | body_len u32 |
/// body_crc u32 | body |. The CRC covers the body; the header itself is
/// guarded by the magic, the kind range and the length clamp.
inline constexpr std::size_t kRecordHeaderBytes = 16;

/// What a record carries. The store gives Result and Grade records their
/// meaning; the WAL only frames them.
enum class RecordKind : std::uint16_t {
  Result = 1,  ///< one terminal lab Result (digest + tenant + output)
  Grade = 2,   ///< one autograder verdict (cohort/mutant/submission key)
};

/// IEEE CRC-32 (the zlib polynomial), table-driven. Exposed so the tests
/// can forge deliberately-corrupt records.
std::uint32_t crc32(const std::byte* data, std::size_t size) noexcept;
inline std::uint32_t crc32(const mp::Bytes& bytes) noexcept {
  return crc32(bytes.data(), bytes.size());
}

/// One recovered record.
struct WalRecord {
  RecordKind kind = RecordKind::Result;
  std::uint16_t flags = 0;
  mp::Bytes body;
};

/// Outcome of scanning a log (or snapshot) file.
struct ScanResult {
  std::vector<WalRecord> records;  ///< the longest valid prefix, in order
  std::uint64_t valid_bytes = 0;   ///< where that prefix ends
  std::uint64_t dropped_bytes = 0; ///< torn/corrupt tail discarded after it
  std::string tail_reason;         ///< why the scan stopped; "" = clean EOF
};

/// Knobs of the append/fsync path.
struct WalConfig {
  /// fsync on append (group-committed). Off = tests that only exercise
  /// framing, and benches measuring the no-durability ceiling.
  bool fsync = true;

  /// Group-commit window: after taking the sync leadership, wait this long
  /// for concurrent appenders to join the batch before paying the fsync.
  /// 0 = sync immediately (lowest latency, one fsync per quiet append).
  int group_commit_window_us = 0;
};

/// An append-only write-ahead log of CRC32-framed records.
///
/// Durability contract: append() returns only after the record is on disk
/// (covered by an fsync) — the caller may then ack whatever the record
/// journals. Concurrent appenders group-commit: one leader fsyncs the
/// shared tail once for everyone whose record it covers, so a fleet of
/// worker threads pays ~one fsync per batch, not one per record.
///
/// Recovery contract: scan() returns the longest valid prefix. A torn tail
/// (the record a crash interrupted), a bit-flipped CRC, an oversized length
/// field or a bad magic all end the scan at the previous record — never a
/// crash, never a hang, never an allocation driven by a corrupt length.
/// Opening for append truncates the file to that valid prefix so the next
/// record never hides behind garbage.
class Wal {
 public:
  /// Open (creating if absent) `path` for appending. Scans the existing
  /// contents first — recovered records are readable via recovered() — and
  /// truncates any torn tail. Throws pdc::Error when the file cannot be
  /// opened or truncated.
  Wal(std::string path, WalConfig config);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append one record and (config.fsync) group-commit it to disk. Thread
  /// safe. Throws pdc::Error on I/O failure and pdc::InvalidArgument when
  /// `body` exceeds kMaxRecordBytes. Chaos checkpoints "store.append" /
  /// "store.append.body" / "store.append.sync" fire before the header
  /// write, between header and body, and before the fsync — an abort
  /// injected there leaves exactly the torn states recovery must survive.
  void append(RecordKind kind, std::uint16_t flags, const mp::Bytes& body);

  /// fsync everything appended so far (no-op when config.fsync is off or
  /// nothing is pending). Used by close paths that must not lose a tail.
  void sync();

  /// What the opening scan found.
  [[nodiscard]] const ScanResult& recovered() const noexcept {
    return recovered_;
  }

  /// Bytes currently in the log (valid prefix + appends since open).
  [[nodiscard]] std::uint64_t size_bytes() const;
  /// Records appended through this handle (excludes recovered ones).
  [[nodiscard]] std::uint64_t appends() const;
  /// fsync() calls actually issued — with group commit under concurrency
  /// this is (much) smaller than appends().
  [[nodiscard]] std::uint64_t fsyncs() const;

  /// Truncate the log to zero records (after a snapshot made it redundant).
  /// fsyncs the truncation. Thread safe against concurrent append().
  void reset();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Encode a record frame (header + body) — shared by the snapshot writer
  /// so both files speak the identical format.
  static mp::Bytes encode_record(RecordKind kind, std::uint16_t flags,
                                 const mp::Bytes& body);

  /// Scan `path` for its longest valid record prefix. A missing file is an
  /// empty ScanResult, not an error.
  static ScanResult scan(const std::string& path);

 private:
  void write_all(const std::byte* data, std::size_t size);

  const std::string path_;
  const WalConfig config_;
  int fd_ = -1;

  ScanResult recovered_;

  /// Serializes writes; `end_lsn_` is the byte offset a finished append
  /// reached, `synced_lsn_` how far fsync has covered.
  mutable std::mutex write_mutex_;
  std::uint64_t end_lsn_ = 0;

  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  std::uint64_t synced_lsn_ = 0;
  bool sync_in_flight_ = false;

  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
};

}  // namespace pdc::store
