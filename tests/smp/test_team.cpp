#include "smp/team.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <type_traits>

#include "smp/config.hpp"
#include "support/error.hpp"

namespace pdc::smp {
namespace {

TEST(Parallel, RunsBodyOncePerThread) {
  std::atomic<int> count{0};
  parallel(4, [&](TeamContext&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(Parallel, ThreadNumsAreDistinctAndInRange) {
  std::mutex m;
  std::set<std::size_t> ids;
  parallel(6, [&](TeamContext& ctx) {
    EXPECT_EQ(ctx.num_threads(), 6u);
    std::lock_guard lock(m);
    ids.insert(ctx.thread_num());
  });
  EXPECT_EQ(ids, (std::set<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Parallel, CallingThreadIsMemberZero) {
  const auto caller = std::this_thread::get_id();
  std::thread::id member0;
  parallel(3, [&](TeamContext& ctx) {
    if (ctx.thread_num() == 0) member0 = std::this_thread::get_id();
  });
  EXPECT_TRUE(member0 == caller);
}

TEST(Parallel, SingleThreadTeamWorks) {
  int runs = 0;
  parallel(1, [&](TeamContext& ctx) {
    EXPECT_EQ(ctx.thread_num(), 0u);
    EXPECT_EQ(ctx.num_threads(), 1u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(Parallel, ZeroMeansDefaultThreadCount) {
  set_default_num_threads(3);
  std::atomic<int> count{0};
  parallel(0, [&](TeamContext&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  set_default_num_threads(0);  // restore
}

TEST(Parallel, PropagatesFirstException) {
  EXPECT_THROW(
      parallel(1, [&](TeamContext&) { throw InvalidArgument("boom"); }),
      InvalidArgument);
}

TEST(Parallel, ExceptionFromWorkerThreadPropagates) {
  EXPECT_THROW(parallel(4,
                        [&](TeamContext& ctx) {
                          if (ctx.thread_num() == 3) {
                            throw Error("worker exploded");
                          }
                        }),
               Error);
}

TEST(Master, RunsOnlyOnThreadZero) {
  std::atomic<int> runs{0};
  std::atomic<int> returned_true{0};
  parallel(4, [&](TeamContext& ctx) {
    if (ctx.master([&] { runs.fetch_add(1); })) {
      returned_true.fetch_add(1);
    }
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(returned_true.load(), 1);
}

TEST(Single, RunsExactlyOnceWithBarrier) {
  std::atomic<int> runs{0};
  std::atomic<int> true_returns{0};
  parallel(4, [&](TeamContext& ctx) {
    if (ctx.single([&] { runs.fetch_add(1); })) true_returns.fetch_add(1);
    // After the implicit barrier the single body must be complete.
    EXPECT_EQ(runs.load(), 1);
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(true_returns.load(), 1);
}

TEST(Single, ConsecutiveSinglesEachRunOnce) {
  std::atomic<int> first{0}, second{0};
  parallel(4, [&](TeamContext& ctx) {
    ctx.single([&] { first.fetch_add(1); });
    ctx.single([&] { second.fetch_add(1); });
  });
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST(Critical, ProtectsSharedUpdates) {
  int balance = 0;  // deliberately unsynchronized except via critical
  constexpr int kPerThread = 5000;
  parallel(4, [&](TeamContext& ctx) {
    for (int i = 0; i < kPerThread; ++i) {
      ctx.critical([&] { ++balance; });
    }
  });
  EXPECT_EQ(balance, 4 * kPerThread);
}

TEST(Critical, DistinctNamesUseDistinctMutexes) {
  // If the two names shared a mutex this would still pass; the real check
  // is that same-name sections exclude each other, verified by counting.
  int a = 0, b = 0;
  parallel(4, [&](TeamContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      ctx.critical("a", [&] { ++a; });
      ctx.critical("b", [&] { ++b; });
    }
  });
  EXPECT_EQ(a, 4000);
  EXPECT_EQ(b, 4000);
}

TEST(Sections, EachTaskRunsExactlyOnce) {
  std::atomic<int> counts[4] = {};
  parallel(3, [&](TeamContext& ctx) {
    ctx.sections({
        [&] { counts[0].fetch_add(1); },
        [&] { counts[1].fetch_add(1); },
        [&] { counts[2].fetch_add(1); },
        [&] { counts[3].fetch_add(1); },
    });
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Barrier, SeparatesPhases) {
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  parallel(4, [&](TeamContext& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != 4) violation.store(true);
  });
  EXPECT_FALSE(violation.load());
}

TEST(TeamReduce, CombinesAcrossThreads) {
  parallel(4, [&](TeamContext& ctx) {
    const int sum = ctx.reduce_sum(static_cast<int>(ctx.thread_num()) + 1);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4);
  });
}

TEST(TeamReduce, EveryThreadGetsTheResult) {
  std::atomic<int> correct{0};
  parallel(5, [&](TeamContext& ctx) {
    const int max = ctx.reduce(static_cast<int>(ctx.thread_num()),
                               [](int a, int b) { return std::max(a, b); });
    if (max == 4) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 5);
}

/// A reduction payload with no default constructor — the regression shape:
/// reduce() used to declare `T result;`, silently requiring
/// default-constructibility OpenMP reductions never did.
struct Extent {
  explicit Extent(int v) : lo(v), hi(v) {}
  Extent(int l, int h) : lo(l), hi(h) {}
  int lo;
  int hi;
};
static_assert(!std::is_default_constructible_v<Extent>);

TEST(TeamReduce, WorksWithNonDefaultConstructibleTypes) {
  std::atomic<int> correct{0};
  parallel(4, [&](TeamContext& ctx) {
    const int me = static_cast<int>(ctx.thread_num());
    const Extent merged =
        ctx.reduce(Extent(me * 10), [](const Extent& a, const Extent& b) {
          return Extent(std::min(a.lo, b.lo), std::max(a.hi, b.hi));
        });
    if (merged.lo == 0 && merged.hi == 30) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 4);
}

TEST(TeamReduce, WorksRepeatedly) {
  parallel(3, [&](TeamContext& ctx) {
    for (int round = 1; round <= 20; ++round) {
      const int total = ctx.reduce_sum(round);
      EXPECT_EQ(total, 3 * round);
    }
  });
}

TEST(Team, RequiresAtLeastOneThread) {
  EXPECT_THROW(Team(0), InvalidArgument);
}

TEST(Config, DefaultsAreSane) {
  EXPECT_GE(hardware_threads(), 1u);
  set_default_num_threads(0);
  EXPECT_GE(default_num_threads(), 1u);
  set_default_num_threads(12);
  EXPECT_EQ(default_num_threads(), 12u);
  set_default_num_threads(0);
}

/// Runs `child` in a forked child of a process whose worker cache holds
/// parked threads, and expects the child to exit with status 0.
template <typename Child>
void expect_forked_child_succeeds(Child child) {
  // The parent's cache now has three parked workers.
  parallel(4, [](TeamContext& ctx) { ctx.barrier(); });
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);  // a member handed to an inherited slot would hang forever
    child();
    ::_exit(1);  // `child` must leave the process itself
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died of signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(WorkerCacheFork, ForkedChildRunsARegion) {
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer cannot start threads in the child of a multi-threaded
  // process (die_after_fork); the regular and ASan builds cover this.
  GTEST_SKIP() << "threads after a multi-threaded fork are unsupported "
                  "under ThreadSanitizer";
#endif
  expect_forked_child_succeeds([] {
    std::atomic<int> members{0};
    try {
      parallel(4, [&](TeamContext& ctx) {
        ctx.barrier();
        members.fetch_add(1);
      });
    } catch (...) {
    }
    ::_exit(members.load() == 4 ? 0 : 1);
  });
}

TEST(WorkerCacheFork, ForkedChildExitsThroughStaticDestructors) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "threads after a multi-threaded fork are unsupported "
                  "under ThreadSanitizer";
#endif
  // exit(), not _exit(): the child runs every static destructor, and none
  // may wait for the parent's workers, which do not exist in the child.
  expect_forked_child_succeeds([] { std::exit(0); });
}

}  // namespace
}  // namespace pdc::smp
