// The crash-safety bar for pdc::store, measured with real process deaths:
// a forked child journals records (acking each one through a pipe only
// after put() returns, mirroring the server's ack-after-journal order) and
// is then killed mid-write — either by turning an injected chaos abort into
// an immediate ::_exit() at a specific append/compact checkpoint, or by a
// parent-timed SIGKILL. The parent reopens the directory under a watchdog
// and holds the store to three invariants, per seed:
//
//   1. no crash, no hang — recovery always completes;
//   2. zero lost acked records — everything acked before the kill is
//      present, byte-identical, after recovery (acked ⇒ durable);
//   3. the recovered state is a valid prefix of what was attempted, and
//      renders the same report bytes as a fresh store holding exactly the
//      recovered record set (recovery invents nothing).
//
// Tier-1 runs a handful of seeds; scripts/verify.sh's store stage exports
// PDCLAB_CHAOS_SEEDS=80 for the full sweep.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "chaos/chaos.hpp"
#include "store/store.hpp"
#include "store_test_util.hpp"

namespace pdc::store {
namespace {

using store_test::ScratchDir;

constexpr std::uint32_t kChildAborted = 2;   ///< InjectedAbort → _exit
constexpr std::uint32_t kChildFinished = 3;  ///< ran out of work, no abort

/// The record the child writes at step `index` — a pure function of the
/// index, so the parent can verify recovered records byte-for-byte without
/// any channel other than the acked indices. Even steps journal a result,
/// odd steps a grade, so kills land on both record kinds.
ResultRecord result_at(std::uint32_t index) {
  ResultRecord record;
  record.digest = index + 1;  // never 0: digest 0 would collide on a map key
  record.tenant = "ada";
  record.kind = 2;
  record.name = "pi";
  record.np = 4;
  record.seed = index * 31 + 7;
  record.exit_code = index % 5 == 0 ? 130 : 0;  // some journaled failures
  record.exec_us = 1000 + index;
  record.output = {"line one of " + std::to_string(index), ""};
  record.error = record.exit_code == 0 ? "" : "cancelled";
  return record;
}

GradeRecord grade_at(std::uint32_t index) {
  GradeRecord record;
  record.cohort = "ada";
  record.mutant = "spmd~race#" + std::to_string(index % 3) + "@np4";
  record.submission = "s" + std::to_string(index);
  record.verdict = index % 2 == 0 ? "flaky" : "wrong";
  record.matched = index % 8;
  record.explored = 8;
  record.divergence = static_cast<double>(index % 10);
  record.detail = "seed " + std::to_string(index);
  return record;
}

void put_at(Store& store, std::uint32_t index) {
  if (index % 2 == 0) {
    store.put_result(result_at(index));
  } else {
    store.put_grade(grade_at(index));
  }
}

void ack(int fd, std::uint32_t index) {
  // 4-byte writes are atomic on a pipe; a kill between put() returning and
  // this write only under-counts the acked set — the safe direction.
  (void)!::write(fd, &index, sizeof index);
}

/// Drain the child's acked indices (EOF = child is gone and the pipe
/// buffer is empty), then reap it. Returns the acked set + exit status.
struct ChildOutcome {
  std::set<std::uint32_t> acked;
  int status = 0;
};

ChildOutcome drain_child(pid_t pid, int read_fd) {
  ChildOutcome outcome;
  std::uint32_t index = 0;
  while (::read(read_fd, &index, sizeof index) == sizeof index) {
    outcome.acked.insert(index);
  }
  ::close(read_fd);
  EXPECT_EQ(::waitpid(pid, &outcome.status, 0), pid) << "lost the child";
  return outcome;
}

StoreConfig durable_config(const std::string& dir) {
  StoreConfig config;
  config.dir = dir;
  config.fsync = true;  // the contract under test is acked ⇒ durable
  return config;
}

/// The parent-side verdict: reopen `dir` under a watchdog and check the
/// three invariants against the acked set. `attempted` is one past the
/// highest index the child may have reached.
void verify_recovery(const std::string& dir,
                     const std::set<std::uint32_t>& acked,
                     std::uint32_t attempted, std::uint64_t seed) {
  std::unique_ptr<Store> recovered;
  const bool finished = chaos_test::run_with_watchdog(
      chaos_test::kWatchdogBudget,
      [&] { recovered = std::make_unique<Store>(durable_config(dir)); });
  ASSERT_TRUE(finished) << "recovery hung (seed " << seed << ")";
  ASSERT_NE(recovered, nullptr);

  const auto results = recovered->results();
  const auto grades = recovered->grades();

  // Invariant 2: zero lost acked records, byte-identical contents.
  for (const std::uint32_t index : acked) {
    if (index % 2 == 0) {
      const auto it = results.find(result_at(index).digest);
      ASSERT_NE(it, results.end())
          << "acked result " << index << " lost (seed " << seed << ")";
      EXPECT_EQ(it->second, result_at(index)) << "seed " << seed;
    } else {
      const auto it = grades.find(grade_key(grade_at(index)));
      ASSERT_NE(it, grades.end())
          << "acked grade " << index << " lost (seed " << seed << ")";
      EXPECT_EQ(it->second, grade_at(index)) << "seed " << seed;
    }
  }

  // Invariant 3a: recovery invented nothing — every recovered record is
  // byte-identical to one the child actually attempted.
  for (const auto& [digest, record] : results) {
    ASSERT_GE(digest, 1u) << "seed " << seed;
    ASSERT_LE(digest, attempted) << "seed " << seed;
    const auto index = static_cast<std::uint32_t>(digest - 1);
    EXPECT_EQ(record, result_at(index)) << "seed " << seed;
  }
  for (const auto& [key, record] : grades) {
    const std::string& submission = std::get<2>(key);
    const auto index = static_cast<std::uint32_t>(
        std::stoul(submission.substr(1)));
    ASSERT_LT(index, attempted) << "seed " << seed;
    EXPECT_EQ(record, grade_at(index)) << "seed " << seed;
  }

  // Invariant 3b: the recovered store renders byte-identically to a fresh
  // store holding exactly the recovered record set — the report is a pure
  // function of what survived, not of the crash history.
  const ScratchDir fresh_scratch("kill-fresh");
  Store fresh(durable_config(fresh_scratch.path()));
  for (const auto& [digest, record] : results) fresh.put_result(record);
  for (const auto& [key, record] : grades) fresh.put_grade(record);
  EXPECT_EQ(render_report(recovered->report("ada")),
            render_report(fresh.report("ada")))
      << "seed " << seed;

  // A second recovery of the same directory must be clean (the first one
  // truncated any torn tail) and identical.
  const auto first_results = recovered->results();
  recovered.reset();
  Store again(durable_config(dir));
  EXPECT_TRUE(again.recover_stats().tail_reason.empty()) << "seed " << seed;
  EXPECT_EQ(again.results(), first_results) << "seed " << seed;
}

TEST(StoreKillSweep, KillDuringAppendLosesNoAckedRecord) {
  const int seeds = chaos_test::sweep_seeds(6);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const ScratchDir scratch("kill-append");
    const std::string& dir = scratch.path();
    // This seed's scenario: ack `before` records chaos-off, then die at
    // checkpoint `op` of the next append (0 = before the header, 1 =
    // between header and body — a torn tail on disk, 2 = before the fsync).
    const auto before = static_cast<std::uint32_t>(seed % 4);
    const std::uint64_t op = seed % 3;

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      Store store(durable_config(dir));
      for (std::uint32_t i = 0; i < before; ++i) {
        put_at(store, i);
        ack(fds[1], i);
      }
      chaos::Config plan;
      plan.seed = seed;
      plan.abort_actor = chaos::kStoreActor;
      plan.abort_at_op = op;
      chaos::Scope scope(plan);
      try {
        put_at(store, before);
      } catch (const chaos::InjectedAbort&) {
        // Die NOW — no destructors, no flush. The file holds exactly the
        // bytes written before the checkpoint fired.
        ::_exit(kChildAborted);
      }
      ::_exit(kChildFinished);
    }
    ::close(fds[1]);
    ChildOutcome outcome = drain_child(pid, fds[0]);
    ASSERT_TRUE(WIFEXITED(outcome.status)) << "seed " << seed;
    ASSERT_EQ(WEXITSTATUS(outcome.status), kChildAborted)
        << "the targeted abort never fired (seed " << seed << ")";
    EXPECT_EQ(outcome.acked.size(), before) << "seed " << seed;
    verify_recovery(dir, outcome.acked, before + 1, seed);
  }
}

TEST(StoreKillSweep, KillDuringCompactLosesNoAckedRecord) {
  const int seeds = chaos_test::sweep_seeds(6);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const ScratchDir scratch("kill-compact");
    const std::string& dir = scratch.path();
    const auto count = static_cast<std::uint32_t>(3 + seed % 3);
    const std::uint64_t op = seed % 2;  // 0 = before tmp, 1 = before rename

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      Store store(durable_config(dir));
      for (std::uint32_t i = 0; i < count; ++i) {
        put_at(store, i);
        ack(fds[1], i);
      }
      chaos::Config plan;
      plan.seed = seed;
      plan.abort_actor = chaos::kStoreActor;
      plan.abort_at_op = op;
      chaos::Scope scope(plan);
      try {
        store.compact();
      } catch (const chaos::InjectedAbort&) {
        ::_exit(kChildAborted);
      }
      ::_exit(kChildFinished);
    }
    ::close(fds[1]);
    ChildOutcome outcome = drain_child(pid, fds[0]);
    ASSERT_TRUE(WIFEXITED(outcome.status)) << "seed " << seed;
    ASSERT_EQ(WEXITSTATUS(outcome.status), kChildAborted)
        << "the targeted abort never fired (seed " << seed << ")";
    ASSERT_EQ(outcome.acked.size(), count) << "seed " << seed;
    // Everything was acked before the compaction died: nothing may be lost.
    verify_recovery(dir, outcome.acked, count, seed);
  }
}

TEST(StoreKillSweep, SigkillAtARandomMomentLosesNoAckedRecord) {
  // The untargeted variant: SIGKILL lands wherever the scheduler puts it —
  // including inside the snapshot-rename-to-log-reset window that the
  // targeted checkpoints cannot reach (compact_every keeps compactions
  // happening throughout the run).
  constexpr std::uint32_t kMaxPuts = 4096;
  const int seeds = chaos_test::sweep_seeds(6);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const ScratchDir scratch("kill-sigkill");
    const std::string& dir = scratch.path();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      StoreConfig config = durable_config(dir);
      config.compact_every = 4;
      Store store(config);
      for (std::uint32_t i = 0; i < kMaxPuts; ++i) {
        put_at(store, i);
        ack(fds[1], i);
      }
      ::_exit(kChildFinished);
    }
    ::close(fds[1]);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + seed % 15));
    ::kill(pid, SIGKILL);
    ChildOutcome outcome = drain_child(pid, fds[0]);
    // Either we caught it mid-run (killed by signal 9) or the child raced
    // through all 4096 puts first — both are valid scenarios to verify.
    ASSERT_TRUE(WIFSIGNALED(outcome.status) || WIFEXITED(outcome.status))
        << "seed " << seed;
    verify_recovery(dir, outcome.acked, kMaxPuts, seed);
  }
}

}  // namespace
}  // namespace pdc::store
