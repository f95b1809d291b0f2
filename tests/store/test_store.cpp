// Store tests: record codecs (hostile bodies included), recovery replay of
// log-over-snapshot, compaction crash-safety at both chaos checkpoints,
// upsert semantics, the per-cohort report aggregates and the determinism
// claim — render_report() is a pure function of the record set, independent
// of arrival, recovery or compaction history.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "net/errors.hpp"
#include "store/store.hpp"
#include "store_test_util.hpp"

namespace pdc::store {
namespace {

using store_test::file_exists;
using store_test::ScratchDir;
using store_test::read_file;
using store_test::write_file;

ResultRecord result_record(std::uint64_t digest, const std::string& tenant,
                           std::int32_t exit_code = 0) {
  ResultRecord record;
  record.digest = digest;
  record.tenant = tenant;
  record.kind = 2;  // Exemplar's wire value
  record.name = "pi";
  record.np = 4;
  record.seed = digest * 31;
  record.exit_code = exit_code;
  record.exec_us = 1234;
  record.output = {"pi ~= 3.14 (digest " + std::to_string(digest) + ")", ""};
  record.error = exit_code == 0 ? "" : "injected failure";
  return record;
}

GradeRecord grade_record(const std::string& cohort, const std::string& mutant,
                         const std::string& submission, double divergence,
                         const std::string& verdict = "flaky") {
  GradeRecord record;
  record.cohort = cohort;
  record.mutant = mutant;
  record.submission = submission;
  record.verdict = verdict;
  record.matched = 5;
  record.explored = 8;
  record.divergence = divergence;
  record.detail = "seed 3 diverged";
  return record;
}

StoreConfig config_for(const std::string& dir) {
  StoreConfig config;
  config.dir = dir;
  config.fsync = false;  // framing/recovery tests; durability is the WAL's
  return config;
}

// ---- codecs --------------------------------------------------------------

TEST(StoreCodec, ResultRecordRoundTrips) {
  const ResultRecord record = result_record(42, "ada", 130);
  EXPECT_EQ(decode_result_record(encode_result_record(record)), record);
}

TEST(StoreCodec, GradeRecordRoundTrips) {
  const GradeRecord record = grade_record("2026s", "spmd~race#0@np4", "ada", 3.5);
  EXPECT_EQ(decode_grade_record(encode_grade_record(record)), record);
}

TEST(StoreCodec, RejectsTruncatedBodies) {
  const mp::Bytes result = encode_result_record(result_record(1, "ada"));
  const mp::Bytes grade =
      encode_grade_record(grade_record("c", "m", "s", 1.0));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5},
                                result.size() - 1}) {
    mp::Bytes truncated(result.begin(),
                        result.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_result_record(truncated), net::ProtocolError)
        << "cut=" << cut;
  }
  mp::Bytes truncated(grade.begin(), grade.end() - 1);
  EXPECT_THROW(decode_grade_record(truncated), net::ProtocolError);
}

TEST(StoreCodec, RejectsTrailingGarbage) {
  mp::Bytes body = encode_result_record(result_record(1, "ada"));
  body.push_back(std::byte{0x5a});
  EXPECT_THROW(decode_result_record(body), net::ProtocolError);
}

TEST(StoreCodec, RejectsAHostileLineCountBeforeAllocation) {
  ResultRecord record = result_record(1, "ada");
  record.output.clear();
  mp::Bytes body = encode_result_record(record);
  // With no output lines the body ends with the u32 line count: forge a
  // count of 2^31 lines with zero bytes of lines behind it.
  body[body.size() - 4] = std::byte{0x00};
  body[body.size() - 3] = std::byte{0x00};
  body[body.size() - 2] = std::byte{0x00};
  body[body.size() - 1] = std::byte{0x80};
  EXPECT_THROW(decode_result_record(body), Error);
}

// ---- recovery ------------------------------------------------------------

TEST(Store, PutRecoverRoundTripsResultsAndGrades) {
  const ScratchDir scratch("roundtrip");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(1, "ada"));
    store.put_result(result_record(2, "ada", 130));  // journaled failure
    store.put_grade(grade_record("ada", "spmd~race#0@np4", "s1", 2.0));
    EXPECT_EQ(store.result_count(), 2u);
    EXPECT_EQ(store.grade_count(), 1u);
  }
  Store store(config_for(dir));
  const RecoverStats stats = store.recover_stats();
  EXPECT_EQ(stats.snapshot_records, 0u);
  EXPECT_EQ(stats.log_records, 3u);
  EXPECT_EQ(stats.results, 2u);
  EXPECT_EQ(stats.grades, 1u);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_TRUE(stats.tail_reason.empty());

  const auto results = store.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results.at(1), result_record(1, "ada"));
  EXPECT_EQ(results.at(2), result_record(2, "ada", 130));
  EXPECT_TRUE(results.at(1).cacheable());
  EXPECT_FALSE(results.at(2).cacheable());  // failures never cache-warm
  const auto grades = store.grades();
  ASSERT_EQ(grades.size(), 1u);
  EXPECT_EQ(grades.begin()->second,
            grade_record("ada", "spmd~race#0@np4", "s1", 2.0));
}

TEST(Store, UpsertsByKeyAndReplayKeepsTheLatest) {
  const ScratchDir scratch("upsert");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(7, "ada", 1));
    store.put_result(result_record(7, "ada", 0));  // the retry succeeded
    store.put_grade(grade_record("c", "m", "s", 1.0, "wrong"));
    store.put_grade(grade_record("c", "m", "s", 0.0, "pass"));
    EXPECT_EQ(store.result_count(), 1u);
    EXPECT_EQ(store.grade_count(), 1u);
  }
  // The log holds all four records; replay upserts down to the latest two.
  Store store(config_for(dir));
  EXPECT_EQ(store.recover_stats().log_records, 4u);
  EXPECT_EQ(store.results().at(7).exit_code, 0);
  EXPECT_EQ(store.grades().begin()->second.verdict, "pass");
}

TEST(Store, TornLogTailIsDroppedAndCounted) {
  const ScratchDir scratch("torn");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(1, "ada"));
    store.put_result(result_record(2, "ada"));
  }
  mp::Bytes log = read_file(dir + "/wal.pdcs");
  log.resize(log.size() - 5);  // tear the second record's body
  write_file(dir + "/wal.pdcs", log);

  Store store(config_for(dir));
  const RecoverStats stats = store.recover_stats();
  EXPECT_EQ(stats.log_records, 1u);
  EXPECT_GT(stats.dropped_bytes, 0u);
  EXPECT_EQ(stats.tail_reason, "log: truncated body");
  EXPECT_EQ(store.result_count(), 1u);
  // The torn tail was truncated away: new appends are reachable.
  store.put_result(result_record(3, "ada"));
  Store reopened(config_for(dir));
  EXPECT_EQ(reopened.result_count(), 2u);
  EXPECT_TRUE(reopened.recover_stats().tail_reason.empty());
}

TEST(Store, MalformedBodiesAreCountedAndSkippedNeverFatal) {
  const ScratchDir scratch("malformed");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(1, "ada"));
  }
  // A CRC-valid record whose body is not a decodable ResultRecord (say,
  // written by a disagreeing version): recovery skips and counts it.
  mp::Bytes log = read_file(dir + "/wal.pdcs");
  mp::Bytes garbage;
  garbage.push_back(std::byte{'x'});
  garbage.push_back(std::byte{'y'});
  const mp::Bytes forged = Wal::encode_record(RecordKind::Result, 0, garbage);
  log.insert(log.end(), forged.begin(), forged.end());
  write_file(dir + "/wal.pdcs", log);

  Store store(config_for(dir));
  EXPECT_EQ(store.recover_stats().malformed, 1u);
  EXPECT_EQ(store.recover_stats().log_records, 2u);  // scanned, not applied
  EXPECT_EQ(store.result_count(), 1u);
  EXPECT_TRUE(store.recover_stats().tail_reason.empty());
}

// ---- compaction ----------------------------------------------------------

TEST(Store, CompactionPreservesStateAndResetsTheLog) {
  const ScratchDir scratch("compact");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    for (std::uint64_t d = 1; d <= 5; ++d) {
      store.put_result(result_record(d, "ada"));
    }
    store.put_grade(grade_record("ada", "m", "s", 1.0));
    store.compact();
    EXPECT_EQ(store.wal_bytes(), 0u);
    EXPECT_TRUE(file_exists(dir + "/snapshot.pdcs"));
    EXPECT_FALSE(file_exists(dir + "/snapshot.tmp"));
    // Puts after the compaction land in the (now empty) log.
    store.put_result(result_record(6, "ada"));
    store.compact();  // idempotent back-to-back
    store.compact();  // nothing new: a no-op, not an error
  }
  Store store(config_for(dir));
  EXPECT_EQ(store.recover_stats().snapshot_records, 7u);
  EXPECT_EQ(store.recover_stats().log_records, 0u);
  EXPECT_EQ(store.result_count(), 6u);
  EXPECT_EQ(store.grade_count(), 1u);
}

TEST(Store, CompactEveryAutoCompacts) {
  const ScratchDir scratch("auto-compact");
  const std::string& dir = scratch.path();
  StoreConfig config = config_for(dir);
  config.compact_every = 4;
  {
    Store store(config);
    for (std::uint64_t d = 1; d <= 10; ++d) {
      store.put_result(result_record(d, "ada"));
    }
    EXPECT_TRUE(file_exists(dir + "/snapshot.pdcs"));
  }
  Store store(config_for(dir));
  EXPECT_GE(store.recover_stats().snapshot_records, 8u);
  EXPECT_LE(store.recover_stats().log_records, 3u);
  EXPECT_EQ(store.result_count(), 10u);
}

TEST(Store, LeftoverSnapshotTmpIsDiscardedAtOpen) {
  const ScratchDir scratch("tmp-leftover");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(1, "ada"));
  }
  // A compaction killed before its atomic rename: the tmp (however
  // plausible its contents) is not authoritative and must be discarded.
  write_file(dir + "/snapshot.tmp",
             Wal::encode_record(RecordKind::Result, 0,
                                encode_result_record(result_record(99, "eve"))));
  Store store(config_for(dir));
  EXPECT_FALSE(file_exists(dir + "/snapshot.tmp"));
  EXPECT_EQ(store.result_count(), 1u);
  EXPECT_EQ(store.results().count(99), 0u);
}

TEST(Store, TornSnapshotTailRecoversThePrefix) {
  const ScratchDir scratch("torn-snapshot");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    for (std::uint64_t d = 1; d <= 3; ++d) {
      store.put_result(result_record(d, "ada"));
    }
    store.compact();
  }
  mp::Bytes snapshot = read_file(dir + "/snapshot.pdcs");
  snapshot.resize(snapshot.size() - 7);
  write_file(dir + "/snapshot.pdcs", snapshot);

  Store store(config_for(dir));
  EXPECT_EQ(store.recover_stats().snapshot_records, 2u);
  EXPECT_EQ(store.recover_stats().tail_reason, "snapshot: truncated body");
  EXPECT_GT(store.recover_stats().dropped_bytes, 0u);
  EXPECT_EQ(store.result_count(), 2u);
}

TEST(Store, SnapshotPlusLogDisagreementReplaysLogOverSnapshot) {
  const ScratchDir scratch("disagree");
  const std::string& dir = scratch.path();
  {
    Store store(config_for(dir));
    store.put_result(result_record(7, "ada", 1));
    store.compact();  // snapshot says exit 1
    store.put_result(result_record(7, "ada", 0));  // log says exit 0
  }
  Store store(config_for(dir));
  EXPECT_EQ(store.recover_stats().snapshot_records, 1u);
  EXPECT_EQ(store.recover_stats().log_records, 1u);
  EXPECT_EQ(store.result_count(), 1u);
  EXPECT_EQ(store.results().at(7).exit_code, 0);  // the log wins
}

TEST(Store, CompactAbortedBeforeTheTmpWriteChangesNothing) {
  const ScratchDir scratch("abort-compact");
  const std::string& dir = scratch.path();
  auto store = std::make_unique<Store>(config_for(dir));
  store->put_result(result_record(1, "ada"));
  {
    chaos::Config plan;
    plan.seed = 1;
    plan.abort_actor = chaos::kStoreActor;
    plan.abort_at_op = 0;  // "store.compact", before the tmp write
    chaos::Scope scope(plan);
    EXPECT_THROW(store->compact(), chaos::InjectedAbort);
  }
  EXPECT_FALSE(file_exists(dir + "/snapshot.pdcs"));
  EXPECT_EQ(store->result_count(), 1u);
  store.reset();
  Store reopened(config_for(dir));
  EXPECT_EQ(reopened.result_count(), 1u);
  EXPECT_EQ(reopened.recover_stats().log_records, 1u);
}

TEST(Store, CompactAbortedBeforeTheRenameLeavesTheOldStateAuthoritative) {
  const ScratchDir scratch("abort-swap");
  const std::string& dir = scratch.path();
  auto store = std::make_unique<Store>(config_for(dir));
  store->put_result(result_record(1, "ada"));
  {
    chaos::Config plan;
    plan.seed = 1;
    plan.abort_actor = chaos::kStoreActor;
    plan.abort_at_op = 1;  // "store.compact.swap", tmp written, not renamed
    chaos::Scope scope(plan);
    EXPECT_THROW(store->compact(), chaos::InjectedAbort);
  }
  EXPECT_TRUE(file_exists(dir + "/snapshot.tmp"));
  EXPECT_FALSE(file_exists(dir + "/snapshot.pdcs"));
  store.reset();
  // Recovery discards the orphaned tmp and replays the untouched log.
  Store reopened(config_for(dir));
  EXPECT_FALSE(file_exists(dir + "/snapshot.tmp"));
  EXPECT_EQ(reopened.result_count(), 1u);
  EXPECT_EQ(reopened.results().at(1), result_record(1, "ada"));
}

TEST(Store, ConcurrentPutsAndCompactionsLoseNothing) {
  // The put/compact race the shared gate exists for: a record must never
  // sit in the log without being indexed (or vice versa) while the log is
  // reset under a snapshot.
  const ScratchDir scratch("race");
  const std::string& dir = scratch.path();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  {
    Store store(config_for(dir));
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          store.put_result(result_record(
              static_cast<std::uint64_t>(t * kPerThread + i + 1), "ada"));
        }
      });
    }
    threads.emplace_back([&store] {
      for (int i = 0; i < 8; ++i) store.compact();
    });
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(store.result_count(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  Store reopened(config_for(dir));
  EXPECT_EQ(reopened.result_count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---- reports -------------------------------------------------------------

TEST(StoreReport, AggregatesOneCohort) {
  const ScratchDir scratch("report");
  const std::string& dir = scratch.path();
  Store store(config_for(dir));
  store.put_result(result_record(1, "ada"));
  store.put_result(result_record(2, "ada"));
  store.put_result(result_record(3, "ada", 130));
  store.put_result(result_record(4, "grace"));  // another cohort
  store.put_grade(grade_record("ada", "m1", "s1", 1.0, "flaky"));
  store.put_grade(grade_record("ada", "m2", "s1", 3.0, "flaky"));
  store.put_grade(grade_record("ada", "m3", "s1", 0.0, "pass"));

  const CohortReport report = store.report("ada");
  EXPECT_EQ(report.cohort, "ada");
  EXPECT_EQ(report.results, 3u);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.grades, 3u);
  ASSERT_EQ(report.verdicts.size(), 2u);  // sorted by name
  EXPECT_EQ(report.verdicts[0].first, "flaky");
  EXPECT_EQ(report.verdicts[0].second, 2u);
  EXPECT_EQ(report.verdicts[1].first, "pass");
  EXPECT_EQ(report.verdicts[1].second, 1u);
  EXPECT_EQ(report.matched, 15u);
  EXPECT_EQ(report.explored, 24u);
  EXPECT_EQ(report.divergence_count, 3u);
  EXPECT_DOUBLE_EQ(report.divergence_mean, 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.divergence_min, 0.0);
  EXPECT_DOUBLE_EQ(report.divergence_max, 3.0);
  ASSERT_EQ(report.histogram.size(), kReportBins);
  EXPECT_EQ(report.histogram[0], 1u);
  EXPECT_EQ(report.histogram[1], 1u);
  EXPECT_EQ(report.histogram[3], 1u);

  const std::vector<std::string> lines = render_report(report);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0], "cohort: ada");
  EXPECT_EQ(lines[1], "results: 3 ok=2 failed=1");
  EXPECT_EQ(lines[2], "grades: 3");
  EXPECT_EQ(lines[3], "verdict flaky: 2");
}

TEST(StoreReport, EmptyCohortIsAllZeroAndStillRenders) {
  const ScratchDir scratch("empty-report");
  Store store(config_for(scratch.path()));
  const CohortReport report = store.report("nobody");
  EXPECT_EQ(report.results, 0u);
  EXPECT_EQ(report.grades, 0u);
  EXPECT_EQ(report.divergence_count, 0u);
  const std::vector<std::string> lines = render_report(report);
  EXPECT_EQ(lines[1], "results: 0 ok=0 failed=0");
  bool saw_divergence = false;
  for (const std::string& line : lines) {
    if (line == "divergence: n=0") saw_divergence = true;
  }
  EXPECT_TRUE(saw_divergence);
}

TEST(StoreReport, CohortsAreTheSortedUnionOfTenantsAndGradeCohorts) {
  const ScratchDir scratch("cohorts");
  Store store(config_for(scratch.path()));
  store.put_result(result_record(1, "zoe"));
  store.put_result(result_record(2, "ada"));
  store.put_grade(grade_record("2026s", "m", "s", 1.0));
  store.put_grade(grade_record("ada", "m", "s", 1.0));  // overlaps a tenant
  const std::vector<std::string> cohorts = store.cohorts();
  ASSERT_EQ(cohorts.size(), 3u);
  EXPECT_EQ(cohorts[0], "2026s");
  EXPECT_EQ(cohorts[1], "ada");
  EXPECT_EQ(cohorts[2], "zoe");
}

TEST(StoreReport, RenderingIsAPureFunctionOfTheRecordSet) {
  // Same records, three histories: insertion order A, insertion order B,
  // and A compacted-then-recovered. All three must render byte-identically.
  const std::vector<ResultRecord> results = {
      result_record(1, "ada"), result_record(2, "ada", 3),
      result_record(3, "ada")};
  const std::vector<GradeRecord> grades = {
      grade_record("ada", "m1", "s1", 2.0, "wrong"),
      grade_record("ada", "m1", "s2", 7.0, "flaky"),
      grade_record("ada", "m2", "s1", 0.0, "pass")};

  const ScratchDir scratch_a("pure-a");
  const std::string& dir_a = scratch_a.path();
  auto store_a = std::make_unique<Store>(config_for(dir_a));
  for (const auto& r : results) store_a->put_result(r);
  for (const auto& g : grades) store_a->put_grade(g);

  const ScratchDir scratch_b("pure-b");
  Store store_b(config_for(scratch_b.path()));
  for (auto it = grades.rbegin(); it != grades.rend(); ++it) {
    store_b.put_grade(*it);
  }
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    store_b.put_result(*it);
  }

  store_a->compact();
  store_a.reset();
  Store recovered(config_for(dir_a));

  const auto render = [](const Store& store) {
    return render_report(store.report("ada"));
  };
  EXPECT_EQ(render(store_b), render(recovered));
  EXPECT_EQ(store_b.report("ada"), recovered.report("ada"));
}

}  // namespace
}  // namespace pdc::store
