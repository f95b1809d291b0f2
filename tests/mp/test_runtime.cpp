#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "mp/runtime.hpp"
#include "support/error.hpp"

namespace pdc::mp {
namespace {

TEST(Runtime, LaunchesRequestedRankCount) {
  std::atomic<int> count{0};
  run(7, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 7);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 7);
}

TEST(Runtime, RanksAreDistinct) {
  std::atomic<std::uint32_t> mask{0};
  run(5, [&](Communicator& comm) {
    mask.fetch_or(1u << comm.rank());
  });
  EXPECT_EQ(mask.load(), 0b11111u);
}

TEST(Runtime, RejectsNonPositiveProcCount) {
  EXPECT_THROW(run(0, [](Communicator&) {}), InvalidArgument);
  EXPECT_THROW(run(-3, [](Communicator&) {}), InvalidArgument);
}

TEST(Runtime, DefaultHostnameMatchesFig2Container) {
  run(2, [&](Communicator& comm) {
    EXPECT_EQ(comm.processor_name(), "d6ff4f902ed6");
  });
}

TEST(Runtime, CustomHostnamesPerRank) {
  RunConfig cfg;
  cfg.num_procs = 4;
  cfg.hostnames = {"node0", "node1", "node0", "node1"};
  run(cfg, [&](Communicator& comm) {
    EXPECT_EQ(comm.processor_name(),
              "node" + std::to_string(comm.rank() % 2));
  });
}

TEST(Runtime, MismatchedHostnameCountThrows) {
  RunConfig cfg;
  cfg.num_procs = 3;
  cfg.hostnames = {"a", "b"};
  EXPECT_THROW(run(cfg, [](Communicator&) {}), InvalidArgument);
}

TEST(Runtime, CapturesPrintedOutput) {
  const RunResult result = run(3, [](Communicator& comm) {
    comm.print("line from " + std::to_string(comm.rank()));
  });
  ASSERT_EQ(result.output.size(), 3u);
  std::vector<std::string> sorted = result.output;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], "line from 0");
  EXPECT_EQ(sorted[2], "line from 2");
}

TEST(Runtime, RankExceptionPropagatesAndUnblocksPeers) {
  // Rank 1 dies; rank 0 is blocked in a receive that would never complete.
  // The abort machinery must wake rank 0 and rethrow rank 1's error.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) {
                       throw InvalidArgument("rank 1 failed");
                     }
                     (void)comm.recv<int>(1);  // would hang without abort
                   }),
               Error);
}

TEST(Runtime, JobsAreIndependent) {
  // An aborted job must not poison subsequent jobs.
  EXPECT_THROW(
      run(2, [](Communicator&) { throw Error("boom"); }), Error);
  std::atomic<int> count{0};
  run(2, [&](Communicator&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(Runtime, ClusterHostnamesRoundRobin) {
  const auto names = cluster_hostnames(5, 2);
  EXPECT_EQ(names,
            (std::vector<std::string>{"node0", "node1", "node0", "node1",
                                      "node0"}));
}

TEST(Runtime, ClusterHostnamesCustomStem) {
  const auto names = cluster_hostnames(2, 4, "pi");
  EXPECT_EQ(names, (std::vector<std::string>{"pi0", "pi1"}));
}

TEST(Runtime, ClusterHostnamesValidatesCounts) {
  EXPECT_THROW(cluster_hostnames(0, 1), InvalidArgument);
  EXPECT_THROW(cluster_hostnames(1, 0), InvalidArgument);
}

TEST(Runtime, ManyRanksComplete) {
  std::atomic<int> count{0};
  run(32, [&](Communicator& comm) {
    comm.barrier();
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(Runtime, WatchdogTurnsADeadlockIntoTimedOut) {
  RunConfig cfg;
  cfg.num_procs = 2;
  cfg.watchdog_ms = 100;
  // Both ranks wait for a message that never comes: a textbook deadlock.
  // The watchdog must abort the universe and surface TimedOut — the error
  // the autograder classifies as a Hang — instead of wedging the test.
  EXPECT_THROW(run(cfg, [](Communicator& comm) { (void)comm.recv<int>(); }),
               TimedOut);
}

TEST(Runtime, WatchdogDoesNotFireOnAHealthyJob) {
  RunConfig cfg;
  cfg.num_procs = 4;
  cfg.watchdog_ms = 60000;  // generous: must never trigger
  std::atomic<int> count{0};
  run(cfg, [&](Communicator& comm) {
    comm.barrier();
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(Runtime, WatchdogLeavesLaterJobsHealthy) {
  RunConfig cfg;
  cfg.num_procs = 2;
  cfg.watchdog_ms = 50;
  EXPECT_THROW(run(cfg, [](Communicator& comm) { (void)comm.recv<int>(); }),
               TimedOut);
  // The aborted universe dies with its job; a fresh run must be unaffected.
  std::atomic<int> count{0};
  run(2, [&](Communicator&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

// ---- the rank crew: cached threads behind run() --------------------------

/// Runs `jobs` np-4 jobs that each allreduce and print, and checks every
/// one: a crew thread left in a bad state by an earlier job shows up here.
void expect_healthy_jobs(int jobs) {
  for (int j = 0; j < jobs; ++j) {
    const RunResult result = run(4, [&](Communicator& comm) {
      const int sum = comm.allreduce(comm.rank() + j, ops::Sum{});
      comm.print(std::to_string(sum));
    });
    ASSERT_EQ(result.output,
              std::vector<std::string>(4, std::to_string(6 + 4 * j)))
        << "job " << j;
  }
}

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator{}));
}

TEST(RuntimeCrew, RankThrowLeavesTheNextJobsCorrect) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 2) throw InvalidArgument("rank 2");
                     comm.barrier();
                   }),
               InvalidArgument);
  expect_healthy_jobs(100);
}

TEST(RuntimeCrew, AbortedJobLeavesTheNextJobsCorrect) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 3) throw Aborted();
                     (void)comm.recv<int>();
                   }),
               Aborted);
  expect_healthy_jobs(100);
}

TEST(RuntimeCrew, TimedOutJobLeavesTheNextJobsCorrect) {
  RunConfig cfg;
  cfg.num_procs = 4;
  cfg.watchdog_ms = 50;
  EXPECT_THROW(run(cfg, [](Communicator& comm) { (void)comm.recv<int>(); }),
               TimedOut);
  expect_healthy_jobs(100);
}

TEST(RuntimeCrew, WarmJobsCreateNoThread) {
  expect_healthy_jobs(10);
  const std::size_t before = live_threads();
  for (int j = 0; j < 1000; ++j) {
    run(4, [](Communicator& comm) { comm.barrier(); });
  }
  EXPECT_EQ(live_threads(), before);
}

TEST(RuntimeCrew, ConcurrentCallersAllComplete) {
  // The grader's shape: several worker threads each running jobs at once.
  constexpr int kCallers = 8;
  std::atomic<int> completed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int j = 0; j < 20; ++j) {
        const RunResult result = run(3, [&](Communicator& comm) {
          const int sum = comm.allreduce(c + comm.rank(), ops::Sum{});
          if (comm.rank() == 0) comm.print(std::to_string(sum));
        });
        const std::vector<std::string> expected{std::to_string(3 * c + 3)};
        if (result.output == expected) completed.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(completed.load(), kCallers * 20);
}

TEST(RuntimeCrew, LongWatchdogReturnsAtOnceAndDeregisters) {
  RunConfig cfg;
  cfg.num_procs = 2;
  cfg.watchdog_ms = 60000;
  const auto start = std::chrono::steady_clock::now();
  run(cfg, [](Communicator& comm) { comm.barrier(); });
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(detail::watched_jobs(), 0u);
}

TEST(RuntimeCrew, ForkedChildStartsWithAnEmptyCrew) {
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer cannot start threads in the child of a multi-threaded
  // process (die_after_fork); the regular and ASan builds cover this.
  GTEST_SKIP() << "threads after a multi-threaded fork are unsupported "
                  "under ThreadSanitizer";
#endif
  expect_healthy_jobs(3);  // the parent's crew now has parked threads
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);  // a rank handed to an inherited slot would hang forever
    int exit_code = 1;
    try {
      const RunResult result = run(2, [](Communicator& comm) {
        comm.print(std::to_string(comm.allreduce(comm.rank(), ops::Sum{})));
      });
      if (result.output == std::vector<std::string>(2, "1")) exit_code = 0;
    } catch (...) {
    }
    ::_exit(exit_code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died of signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace pdc::mp
