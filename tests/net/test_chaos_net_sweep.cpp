// Chaos sweeps over the socket transport: seeded fault plans (delays,
// reorders, bounded drops, rank aborts) applied at the socket boundary of
// in-process clusters. The acceptance bar mirrors the loopback sweeps:
//   - noise/lossy plans are result-preserving — the job must *succeed* with
//     its chaos-off output;
//   - hostile plans may kill ranks — the job must then fail *cleanly*
//     (typed errors on every rank that fails, never a hang).
// Tier-1 runs a handful of seeds; `ctest -L stress` with
// PDCLAB_CHAOS_SEEDS=80 (scripts/verify.sh) runs the acceptance sweep.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "chaos/chaos.hpp"
#include "net/harness.hpp"

namespace pdc::net {
namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;
using chaos_test::sweep_seeds;

/// The workload every sweep runs: p2p + two collectives, enough traffic to
/// give a plan real decision points on both the send and deliver sides.
void workload(mp::Communicator& comm) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  comm.send(comm.rank() * 100, next, 1);
  const int from_prev = comm.recv<int>(prev, 1);
  const int total = comm.allreduce(from_prev, [](int a, int b) { return a + b; });
  std::vector<int> gathered = comm.gather(comm.rank());
  if (comm.rank() == 0) {
    comm.print("total=" + std::to_string(total) + " gathered=" +
               std::to_string(gathered.size()));
  }
}

ClusterResult run_cluster(int np, bool use_shm = false) {
  ClusterOptions options;
  options.np = np;
  options.linger_ms = 2000;
  options.use_shm = use_shm;
  return run_socket_cluster(options, workload);
}

/// A hostile job that failed must have failed cleanly: every failing rank
/// names a failure a hostile plan can cause — its own injected abort, its
/// job aborted because another rank died, or a send to a peer that is
/// already gone — and at least one rank names the injected abort.
void expect_clean_failure(const ClusterResult& result, int seed) {
  const auto starts_with = [](const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
  };
  bool injected = false;
  for (const std::string& error : result.errors) {
    if (error.empty()) continue;
    injected |= starts_with(error, "chaos: injected abort");
    EXPECT_TRUE(starts_with(error, "chaos: injected abort") ||
                starts_with(error, "mp job aborted") ||
                starts_with(error, "net: rank "))
        << "seed " << seed << ": " << error;
  }
  EXPECT_TRUE(injected) << "seed " << seed
                        << " failed without an injected abort";
}

TEST(ChaosNetSweep, NoisePlansAreResultPreserving) {
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(chaos::Config::noise(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      ASSERT_EQ(result.output[0].size(), 1u) << "seed " << seed;
      // ring sum: 0+100+200 = 300 regardless of delivery schedule.
      EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
          << "seed " << seed;
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG under a noise plan";
  }
}

TEST(ChaosNetSweep, LossyPlansStillDeliverEverything) {
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(chaos::Config::lossy(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
          << "seed " << seed;
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG under a lossy plan";
  }
}

TEST(ChaosNetSweep, HostilePlansFailCleanOrSucceedNeverHang) {
  const int seeds = sweep_seeds(4);
  int aborted_jobs = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(
          chaos::Config::hostile(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3);
      if (!result.ok()) {
        ++aborted_jobs;
        // The cluster call RETURNED (the watchdog is the hang check).
        expect_clean_failure(result, seed);
      } else {
        EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
            << "seed " << seed;
      }
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG under a hostile plan";
  }
  // Not an assertion — hostile aborts are probabilistic — but record the
  // split so a sweep that never injected anything is visible in the log.
  std::fprintf(stderr, "hostile sweep: %d/%d jobs aborted cleanly\n",
               aborted_jobs, seeds);
}

TEST(ChaosNetSweep, TargetedKillAlwaysTearsDownCleanly) {
  // Deterministic worst case per seed: rank 1 dies at its seed-th
  // operation, everyone else must unblock. Exercises death at different
  // protocol phases as the op index walks forward.
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Config config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.abort_actor = 1;
      // Cycle the kill site through the workload's first few checkpoints so
      // the sweep hits deaths in different protocol phases; the modulus
      // keeps it inside the ops rank 1 actually performs.
      config.abort_at_op = static_cast<std::uint64_t>(seed % 6);
      chaos::Scope scope(config);
      const ClusterResult result = run_cluster(3);
      EXPECT_FALSE(result.errors[1].empty())
          << "seed " << seed << ": rank 1 should have been killed";
    });
    ASSERT_TRUE(finished) << "seed " << seed << " HUNG after a targeted kill";
  }
}

// ---- the same acceptance bar over the shm data path ----------------------
// Co-located Data frames ride the lock-free rings; wireup/Abort/Bye stay on
// the sockets. The outputs must be golden-identical to the socket sweeps —
// the backend may never show through in the results.

TEST(ChaosShmSweep, NoisePlansAreResultPreserving) {
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(chaos::Config::noise(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3, /*use_shm=*/true);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      ASSERT_EQ(result.output[0].size(), 1u) << "seed " << seed;
      EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
          << "seed " << seed;
    });
    ASSERT_TRUE(finished) << "seed " << seed
                          << " HUNG under a noise plan (shm)";
  }
}

TEST(ChaosShmSweep, LossyPlansStillDeliverEverything) {
  const int seeds = sweep_seeds(4);
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(chaos::Config::lossy(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3, /*use_shm=*/true);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
          << "seed " << seed;
    });
    ASSERT_TRUE(finished) << "seed " << seed
                          << " HUNG under a lossy plan (shm)";
  }
}

TEST(ChaosShmSweep, HostilePlansFailCleanOrSucceedNeverHang) {
  const int seeds = sweep_seeds(4);
  int aborted_jobs = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Scope scope(
          chaos::Config::hostile(static_cast<std::uint64_t>(seed)));
      const ClusterResult result = run_cluster(3, /*use_shm=*/true);
      if (!result.ok()) {
        ++aborted_jobs;
        expect_clean_failure(result, seed);
      } else {
        EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
            << "seed " << seed;
      }
    });
    ASSERT_TRUE(finished) << "seed " << seed
                          << " HUNG under a hostile plan (shm)";
  }
  std::fprintf(stderr, "shm hostile sweep: %d/%d jobs aborted cleanly\n",
               aborted_jobs, seeds);
}

TEST(ChaosShmSweep, GuaranteedKillAtFirstSendPoisonsTheRings) {
  // Rank 1's very first action is its ring send, so its thread-local chaos
  // op 0 is ALWAYS a net.send checkpoint: this kill is deterministic even
  // over shm. Blocked producers and consumers must wake, nobody may spin
  // on the dead peer's bell, and the survivors must see typed errors.
  bool finished = run_with_watchdog(kWatchdogBudget, [&] {
    chaos::Config config;
    config.seed = 1;
    config.abort_actor = 1;
    config.abort_at_op = 0;
    chaos::Scope scope(config);
    const ClusterResult result = run_cluster(3, /*use_shm=*/true);
    EXPECT_FALSE(result.errors[1].empty())
        << "rank 1 should have been killed at its first send";
  });
  ASSERT_TRUE(finished) << "HUNG after the guaranteed kill (shm)";
}

TEST(ChaosShmSweep, TargetedKillAlwaysTearsDownCleanly) {
  // Over shm a rank's OWN thread pumps its deliveries, so its thread-local
  // chaos op numbering interleaves send checkpoints with deliver
  // perturbations (and the backstop thread can steal a pump). A given
  // abort_at_op therefore kills best-effort per seed — unlike the socket
  // sweep, where rank threads only ever hit send checkpoints. The sweep
  // asserts the teardown contract instead: every seed either succeeds with
  // the chaos-off output or fails with a typed error on the killed rank —
  // and never, ever hangs.
  const int seeds = sweep_seeds(4);
  int killed_jobs = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    bool finished = run_with_watchdog(kWatchdogBudget, [&] {
      chaos::Config config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.abort_actor = 1;
      config.abort_at_op = static_cast<std::uint64_t>(seed % 6);
      chaos::Scope scope(config);
      const ClusterResult result = run_cluster(3, /*use_shm=*/true);
      if (!result.ok()) {
        ++killed_jobs;
        EXPECT_FALSE(result.errors[1].empty())
            << "seed " << seed << ": only rank 1 can be the injected death";
      } else {
        EXPECT_EQ(result.output[0][0], "total=300 gathered=3")
            << "seed " << seed;
      }
    });
    ASSERT_TRUE(finished) << "seed " << seed
                          << " HUNG after a targeted kill (shm)";
  }
  std::fprintf(stderr, "shm targeted sweep: %d/%d jobs killed\n", killed_jobs,
               seeds);
}

}  // namespace
}  // namespace pdc::net
