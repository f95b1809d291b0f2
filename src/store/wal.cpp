#include "store/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "net/wire.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw Error("store: " + what + " '" + path + "': " +
              std::strerror(errno));
}

/// The IEEE CRC-32 lookup table, built once.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ std::to_integer<std::uint32_t>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

mp::Bytes Wal::encode_record(RecordKind kind, std::uint16_t flags,
                             const mp::Bytes& body) {
  if (body.size() > kMaxRecordBytes) {
    throw InvalidArgument("store: record body of " +
                          std::to_string(body.size()) +
                          " bytes exceeds the " +
                          std::to_string(kMaxRecordBytes) + "-byte clamp");
  }
  // | magic u32 | kind u16 | flags u16 | body_len u32 | crc32 u32 | body |
  mp::Bytes frame(kRecordHeaderBytes + body.size());
  net::wire::Writer w(frame.data());
  w.le(kWalMagic);
  w.le(static_cast<std::uint16_t>(kind));
  w.le(flags);
  w.le(static_cast<std::uint32_t>(body.size()));
  w.le(crc32(body));
  std::copy(body.begin(), body.end(), frame.begin() + kRecordHeaderBytes);
  return frame;
}

ScanResult Wal::scan(const std::string& path) {
  ScanResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // no file yet: an empty log
    throw_errno("cannot open", path);
  }
  mp::Bytes contents;
  std::array<std::byte, 1 << 16> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("cannot read", path);
    }
    if (n == 0) break;
    contents.insert(contents.end(), buf.begin(), buf.begin() + n);
  }
  ::close(fd);

  net::wire::Reader reader(contents);
  std::size_t pos = 0;  // start of the record being read
  const auto stop = [&](const std::string& reason) {
    result.valid_bytes = pos;
    result.dropped_bytes = contents.size() - pos;
    result.tail_reason = reason;
    return result;
  };
  while (reader.remaining() > 0) {
    pos = contents.size() - reader.remaining();
    if (reader.remaining() < kRecordHeaderBytes) {
      return stop("truncated header");
    }
    if (reader.u32() != kWalMagic) return stop("bad magic");
    const std::uint16_t kind = reader.u16();
    const std::uint16_t flags = reader.u16();
    const std::uint32_t body_len = reader.u32();
    const std::uint32_t want_crc = reader.u32();
    if (kind < static_cast<std::uint16_t>(RecordKind::Result) ||
        kind > static_cast<std::uint16_t>(RecordKind::Grade)) {
      return stop("unknown record kind " + std::to_string(kind));
    }
    if (body_len > kMaxRecordBytes) {
      return stop("oversized length field (" + std::to_string(body_len) +
                  " bytes)");
    }
    if (reader.remaining() < body_len) return stop("truncated body");
    const std::byte* body = reader.take(body_len);
    if (crc32(body, body_len) != want_crc) return stop("crc mismatch");
    WalRecord record;
    record.kind = static_cast<RecordKind>(kind);
    record.flags = flags;
    record.body.assign(body, body + body_len);
    result.records.push_back(std::move(record));
  }
  result.valid_bytes = contents.size();
  return result;
}

Wal::Wal(std::string path, WalConfig config)
    : path_(std::move(path)), config_(config) {
  recovered_ = scan(path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open for append", path_);
  // Drop the torn tail before the first append: a fresh record written
  // after garbage would be unreachable (the scan stops at the garbage).
  if (::ftruncate(fd_, static_cast<off_t>(recovered_.valid_bytes)) != 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("cannot truncate torn tail of", path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("cannot seek", path_);
  }
  end_lsn_ = recovered_.valid_bytes;
  synced_lsn_ = end_lsn_;
}

Wal::~Wal() {
  if (fd_ >= 0) {
    try {
      sync();
    } catch (...) {
      // Destruction must not throw; close() below still runs.
    }
    ::close(fd_);
  }
}

void Wal::write_all(const std::byte* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot append to", path_);
    }
    written += static_cast<std::size_t>(n);
  }
}

void Wal::append(RecordKind kind, std::uint16_t flags, const mp::Bytes& body) {
  const mp::Bytes frame = encode_record(kind, flags, body);
  // Route this append's chaos decisions to the store's own lane, whatever
  // thread is journaling (a lab worker, a grader, a bench driver): decision
  // 0 is "store.append", 1 "store.append.body", 2 "store.append.sync", so a
  // targeted plan can land an abort on any of the three torn states without
  // touching the caller's lane or counter.
  chaos::ActorScope actor(chaos::kStoreActor);
  std::uint64_t my_lsn = 0;
  {
    std::lock_guard lock(write_mutex_);
    // Three checkpoints bracket the write so an injected abort (realized as
    // a real _exit() by the kill sweep's forked child) lands before the
    // header, between header and body, or after the bytes but before the
    // fsync — the torn states recovery must map back to the valid prefix.
    chaos::on_op("store.append");
    write_all(frame.data(), kRecordHeaderBytes);
    chaos::on_op("store.append.body");
    write_all(frame.data() + kRecordHeaderBytes,
              frame.size() - kRecordHeaderBytes);
    end_lsn_ += frame.size();
    my_lsn = end_lsn_;
    ++appends_;
  }
  trace::Counter("store.appends").add(1.0);
  if (!config_.fsync) return;
  chaos::on_op("store.append.sync");

  // Group commit: whoever finds no fsync in flight becomes the leader,
  // optionally waits a bounded window for more appenders to pile onto the
  // shared tail, then pays one fsync covering every record written so far.
  // Followers whose lsn the leader's fsync covered return without syncing.
  std::unique_lock lock(sync_mutex_);
  for (;;) {
    if (synced_lsn_ >= my_lsn) return;
    if (!sync_in_flight_) break;
    sync_cv_.wait(lock, [this, my_lsn] {
      return synced_lsn_ >= my_lsn || !sync_in_flight_;
    });
  }
  sync_in_flight_ = true;
  lock.unlock();
  if (config_.group_commit_window_us > 0) {
    // The bounded batching window. A sleep (not a cv wait) on purpose:
    // joiners need no handshake — any append finishing during the window
    // has already advanced end_lsn_ and is covered by the fsync below.
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.group_commit_window_us));
  }
  std::uint64_t target = 0;
  {
    std::lock_guard write_lock(write_mutex_);
    target = end_lsn_;
  }
  const int rc = ::fdatasync(fd_);
  lock.lock();
  sync_in_flight_ = false;
  if (rc != 0) {
    sync_cv_.notify_all();
    throw_errno("cannot fsync", path_);
  }
  synced_lsn_ = target;
  ++fsyncs_;
  sync_cv_.notify_all();
  trace::Counter("store.fsyncs").add(1.0);
}

void Wal::sync() {
  if (!config_.fsync) return;
  std::uint64_t target = 0;
  {
    std::lock_guard write_lock(write_mutex_);
    target = end_lsn_;
  }
  std::unique_lock lock(sync_mutex_);
  if (synced_lsn_ >= target) return;
  sync_cv_.wait(lock, [this] { return !sync_in_flight_; });
  if (synced_lsn_ >= target) return;
  sync_in_flight_ = true;
  lock.unlock();
  const int rc = ::fdatasync(fd_);
  lock.lock();
  sync_in_flight_ = false;
  sync_cv_.notify_all();
  if (rc != 0) throw_errno("cannot fsync", path_);
  if (target > synced_lsn_) synced_lsn_ = target;
  ++fsyncs_;
}

std::uint64_t Wal::size_bytes() const {
  std::lock_guard lock(write_mutex_);
  return end_lsn_;
}

std::uint64_t Wal::appends() const {
  std::lock_guard lock(write_mutex_);
  return appends_;
}

std::uint64_t Wal::fsyncs() const {
  std::lock_guard lock(const_cast<Wal*>(this)->sync_mutex_);
  return fsyncs_;
}

void Wal::reset() {
  // Take both locks (write before sync, the append order) so no record is
  // mid-write while the file shrinks under it.
  std::scoped_lock lock(write_mutex_, sync_mutex_);
  if (::ftruncate(fd_, 0) != 0) throw_errno("cannot reset", path_);
  if (::lseek(fd_, 0, SEEK_SET) < 0) throw_errno("cannot seek", path_);
  if (config_.fsync && ::fdatasync(fd_) != 0) {
    throw_errno("cannot fsync", path_);
  }
  end_lsn_ = 0;
  synced_lsn_ = 0;
}

}  // namespace pdc::store
