// WAL framing and recovery tests, hostile bytes foremost: a torn tail, a
// bit-flipped CRC, an oversized length field and mid-file garbage must all
// end the scan at the longest valid prefix — never a crash, never a hang,
// never an allocation driven by a corrupt length. The group-commit batch
// contract and the chaos abort checkpoints are pinned here too.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "store/wal.hpp"
#include "store_test_util.hpp"

namespace pdc::store {
namespace {

using store_test::ScratchDir;
using store_test::read_file;
using store_test::write_file;

mp::Bytes bytes_of(const std::string& text) {
  mp::Bytes bytes;
  for (const char c : text) bytes.push_back(static_cast<std::byte>(c));
  return bytes;
}

/// Append `texts` as Result records through a Wal (fsync off: these tests
/// exercise framing, not durability) and return the log path.
std::string build_log(const std::string& dir,
                      const std::vector<std::string>& texts) {
  const std::string path = dir + "/wal.pdcs";
  WalConfig config;
  config.fsync = false;
  Wal wal(path, config);
  for (const std::string& text : texts) {
    wal.append(RecordKind::Result, 0, bytes_of(text));
  }
  return path;
}

TEST(WalCrc32, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(WalRecord, EncodeFramesHeaderAndCrc) {
  const mp::Bytes body = bytes_of("hello");
  const mp::Bytes frame = Wal::encode_record(RecordKind::Grade, 7, body);
  ASSERT_EQ(frame.size(), kRecordHeaderBytes + body.size());
  // | magic u32 | kind u16 | flags u16 | body_len u32 | body_crc u32 |
  EXPECT_EQ(std::to_integer<int>(frame[0]), 'P');
  EXPECT_EQ(std::to_integer<int>(frame[1]), 'D');
  EXPECT_EQ(std::to_integer<int>(frame[2]), 'C');
  EXPECT_EQ(std::to_integer<int>(frame[3]), 'S');
  EXPECT_EQ(std::to_integer<int>(frame[4]), 2);  // kind lo byte
  EXPECT_EQ(std::to_integer<int>(frame[6]), 7);  // flags lo byte
  EXPECT_EQ(std::to_integer<unsigned>(frame[8]), body.size());
  const std::uint32_t crc = crc32(body);
  EXPECT_EQ(std::to_integer<std::uint32_t>(frame[12]), crc & 0xff);
}

TEST(WalRecord, EncodeRejectsABodyOverTheClamp) {
  mp::Bytes oversized(kMaxRecordBytes + 1, std::byte{0});
  EXPECT_THROW(Wal::encode_record(RecordKind::Result, 0, oversized),
               InvalidArgument);
}

TEST(WalScan, MissingFileIsAnEmptyLogNotAnError) {
  const ScratchDir scratch("scan");
  const ScanResult result = Wal::scan(scratch.path() + "/absent.pdcs");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_EQ(result.dropped_bytes, 0u);
  EXPECT_TRUE(result.tail_reason.empty());
}

TEST(WalScan, AppendedRecordsRoundTrip) {
  const ScratchDir scratch("roundtrip");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/wal.pdcs";
  {
    WalConfig config;
    config.fsync = false;
    Wal wal(path, config);
    wal.append(RecordKind::Result, 0, bytes_of("first"));
    wal.append(RecordKind::Grade, 3, bytes_of("second"));
    wal.append(RecordKind::Result, 0, {});  // empty bodies are legal
    EXPECT_EQ(wal.appends(), 3u);
  }
  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].kind, RecordKind::Result);
  EXPECT_EQ(result.records[0].body, bytes_of("first"));
  EXPECT_EQ(result.records[1].kind, RecordKind::Grade);
  EXPECT_EQ(result.records[1].flags, 3u);
  EXPECT_EQ(result.records[1].body, bytes_of("second"));
  EXPECT_TRUE(result.records[2].body.empty());
  EXPECT_EQ(result.valid_bytes, read_file(path).size());
  EXPECT_EQ(result.dropped_bytes, 0u);
  EXPECT_TRUE(result.tail_reason.empty());
}

TEST(WalScan, ReopenRecoversAndAppendsAfterThePrefix) {
  const ScratchDir scratch("reopen");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"a", "b"});
  WalConfig config;
  config.fsync = false;
  Wal wal(path, config);
  ASSERT_EQ(wal.recovered().records.size(), 2u);
  EXPECT_EQ(wal.recovered().records[1].body, bytes_of("b"));
  wal.append(RecordKind::Result, 0, bytes_of("c"));
  EXPECT_EQ(Wal::scan(path).records.size(), 3u);
}

TEST(WalScan, TruncatedBodyIsDroppedAndReopenTruncatesIt) {
  const ScratchDir scratch("torn-body");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha", "beta", "gamma"});
  mp::Bytes contents = read_file(path);
  // Cut mid-body of the last record: a crash between the header write and
  // the body write (the "store.append.body" torn state).
  contents.resize(contents.size() - 3);
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[1].body, bytes_of("beta"));
  EXPECT_EQ(result.tail_reason, "truncated body");
  EXPECT_GT(result.dropped_bytes, 0u);
  EXPECT_EQ(result.valid_bytes + result.dropped_bytes, contents.size());

  // Opening for append drops the torn tail so the next record is reachable.
  WalConfig config;
  config.fsync = false;
  Wal wal(path, config);
  EXPECT_EQ(wal.recovered().records.size(), 2u);
  EXPECT_EQ(read_file(path).size(), result.valid_bytes);
  wal.append(RecordKind::Result, 0, bytes_of("delta"));
  const ScanResult rescanned = Wal::scan(path);
  ASSERT_EQ(rescanned.records.size(), 3u);
  EXPECT_EQ(rescanned.records[2].body, bytes_of("delta"));
  EXPECT_TRUE(rescanned.tail_reason.empty());
}

TEST(WalScan, TruncatedHeaderIsDropped) {
  const ScratchDir scratch("torn-header");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha", "beta"});
  mp::Bytes contents = read_file(path);
  // A crash before the header write finished: 7 stray header bytes.
  const mp::Bytes partial =
      Wal::encode_record(RecordKind::Result, 0, bytes_of("gamma"));
  contents.insert(contents.end(), partial.begin(), partial.begin() + 7);
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.tail_reason, "truncated header");
  EXPECT_EQ(result.dropped_bytes, 7u);
}

TEST(WalScan, BitFlippedBodyIsACrcMismatch) {
  const ScratchDir scratch("bitflip-body");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha", "beta"});
  mp::Bytes contents = read_file(path);
  contents.back() ^= std::byte{0x01};  // flip one bit of "beta"'s body
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].body, bytes_of("alpha"));
  EXPECT_EQ(result.tail_reason, "crc mismatch");
  EXPECT_EQ(result.dropped_bytes, kRecordHeaderBytes + 4);
}

TEST(WalScan, BitFlippedCrcFieldIsACrcMismatch) {
  const ScratchDir scratch("bitflip-crc");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha"});
  mp::Bytes contents = read_file(path);
  contents[12] ^= std::byte{0x80};  // the body_crc field, not the body
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.tail_reason, "crc mismatch");
}

TEST(WalScan, OversizedLengthFieldStopsTheScanBeforeAllocating) {
  const ScratchDir scratch("oversized");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha"});
  mp::Bytes contents = read_file(path);
  // Forge a header claiming a body far over the clamp (0xFFFFFFFF would be
  // a 4 GiB allocation if the length were trusted).
  mp::Bytes forged = Wal::encode_record(RecordKind::Result, 0, {});
  forged[8] = std::byte{0xff};
  forged[9] = std::byte{0xff};
  forged[10] = std::byte{0xff};
  forged[11] = std::byte{0xff};
  contents.insert(contents.end(), forged.begin(), forged.end());
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_NE(result.tail_reason.find("oversized length field"),
            std::string::npos)
      << result.tail_reason;
  EXPECT_EQ(result.dropped_bytes, kRecordHeaderBytes);
}

TEST(WalScan, BadMagicStopsTheScan) {
  const ScratchDir scratch("bad-magic");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha"});
  mp::Bytes contents = read_file(path);
  mp::Bytes garbage = Wal::encode_record(RecordKind::Result, 0, bytes_of("x"));
  garbage[0] = std::byte{0xde};  // not 'P'
  contents.insert(contents.end(), garbage.begin(), garbage.end());
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.tail_reason, "bad magic");
}

TEST(WalScan, UnknownRecordKindStopsTheScan) {
  const ScratchDir scratch("bad-kind");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha"});
  mp::Bytes contents = read_file(path);
  mp::Bytes forged = Wal::encode_record(RecordKind::Result, 0, bytes_of("x"));
  forged[4] = std::byte{7};  // kind 7: from a future (or corrupt) version
  contents.insert(contents.end(), forged.begin(), forged.end());
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_NE(result.tail_reason.find("unknown record kind 7"),
            std::string::npos)
      << result.tail_reason;
}

TEST(WalScan, MidFileCorruptionDropsEverythingAfterIt) {
  // The contract is the longest valid PREFIX: records after a corrupt one
  // are unreachable even if they would scan cleanly in isolation (their
  // framing cannot be trusted once the stream lost sync).
  const ScratchDir scratch("midfile");
  const std::string& dir = scratch.path();
  const std::string path = build_log(dir, {"alpha", "beta", "gamma", "delta"});
  mp::Bytes contents = read_file(path);
  const std::size_t second = kRecordHeaderBytes + 5;  // end of "alpha"
  contents[second + kRecordHeaderBytes] ^= std::byte{0x40};  // "beta"'s body
  write_file(path, contents);

  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].body, bytes_of("alpha"));
  EXPECT_EQ(result.tail_reason, "crc mismatch");
  // Everything from "beta" on is dropped — including the two valid records.
  EXPECT_EQ(result.valid_bytes + result.dropped_bytes, contents.size());
  EXPECT_GT(result.dropped_bytes, 2 * kRecordHeaderBytes);
}

TEST(WalReset, EmptiesTheLogAndAppendsRestartCleanly) {
  const ScratchDir scratch("reset");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/wal.pdcs";
  WalConfig config;
  config.fsync = false;
  Wal wal(path, config);
  wal.append(RecordKind::Result, 0, bytes_of("doomed"));
  ASSERT_GT(wal.size_bytes(), 0u);
  wal.reset();
  EXPECT_EQ(wal.size_bytes(), 0u);
  EXPECT_TRUE(Wal::scan(path).records.empty());
  wal.append(RecordKind::Result, 0, bytes_of("fresh"));
  const ScanResult result = Wal::scan(path);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].body, bytes_of("fresh"));
}

TEST(WalSync, FsyncOffNeverPaysAnFsync) {
  const ScratchDir scratch("nosync");
  const std::string& dir = scratch.path();
  WalConfig config;
  config.fsync = false;
  Wal wal(dir + "/wal.pdcs", config);
  wal.append(RecordKind::Result, 0, bytes_of("x"));
  wal.sync();
  wal.sync();  // idempotent no-op
  EXPECT_EQ(wal.fsyncs(), 0u);
}

TEST(WalGroupCommit, ConcurrentAppendersShareFsyncsAndLoseNothing) {
  const ScratchDir scratch("group");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/wal.pdcs";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  {
    WalConfig config;
    config.fsync = true;
    config.group_commit_window_us = 200;
    Wal wal(path, config);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          wal.append(RecordKind::Result, 0,
                     bytes_of(std::to_string(t) + ":" + std::to_string(i)));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wal.appends(), kTotal);
    EXPECT_GE(wal.fsyncs(), 1u);
    // The batching claim: one leader's fsync covered other appenders'
    // records, so the fsync count is strictly below one-per-append.
    EXPECT_LT(wal.fsyncs(), wal.appends());
  }
  EXPECT_EQ(Wal::scan(path).records.size(), kTotal);
}

TEST(WalChaos, TargetedAbortsLandOnTheStoreLaneCheckpoints) {
  // Decision 0 on the store lane is "store.append" (before the header):
  // the abort leaves zero bytes of the record behind.
  const ScratchDir scratch("chaos");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/wal.pdcs";
  WalConfig config;
  config.fsync = false;
  Wal wal(path, config);
  wal.append(RecordKind::Result, 0, bytes_of("kept"));
  const std::uint64_t before = wal.size_bytes();
  {
    chaos::Config plan;
    plan.seed = 1;
    plan.abort_actor = chaos::kStoreActor;
    plan.abort_at_op = 0;
    chaos::Scope scope(plan);
    EXPECT_THROW(wal.append(RecordKind::Result, 0, bytes_of("aborted")),
                 chaos::InjectedAbort);
  }
  EXPECT_EQ(wal.size_bytes(), before);
  const ScanResult clean = Wal::scan(path);
  ASSERT_EQ(clean.records.size(), 1u);
  EXPECT_EQ(clean.records[0].body, bytes_of("kept"));

  // Decision 1 is "store.append.body": the header is on disk, the body is
  // not — exactly the torn state the scan maps back to the valid prefix.
  {
    chaos::Config plan;
    plan.seed = 2;
    plan.abort_actor = chaos::kStoreActor;
    plan.abort_at_op = 1;
    chaos::Scope scope(plan);
    EXPECT_THROW(wal.append(RecordKind::Result, 0, bytes_of("torn")),
                 chaos::InjectedAbort);
  }
  const ScanResult torn = Wal::scan(path);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.tail_reason, "truncated body");
  EXPECT_EQ(torn.dropped_bytes, kRecordHeaderBytes);
}

}  // namespace
}  // namespace pdc::store
