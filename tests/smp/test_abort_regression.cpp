// Regression tests for the classic fork-join failure mode: one team member
// throws (or is killed by a chaos-injected abort) while its siblings are
// parked at a barrier, a reduction rendezvous, an ordered turnstile or a
// slot-recycle wait. Before the team poison protocol existed, every one of
// these scenarios deadlocked — the survivors waited for an arrival that
// would never come. Each test runs under a watchdog so a regression shows
// up as a failed assertion naming the scenario, not a hung test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "../chaos/chaos_test_util.hpp"
#include "chaos/chaos.hpp"
#include "smp/config.hpp"
#include "smp/team.hpp"
#include "support/error.hpp"

namespace pdc::smp {
namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;
using chaos_test::sweep_seeds;

/// Runs `fn` under the watchdog and asserts it completed by throwing an
/// exception of type E — the shape every scenario here must have: the
/// region *finishes* (no hang) and the caller sees the root-cause error.
template <typename E>
void expect_completes_with(const std::function<void()>& fn) {
  const bool finished = run_with_watchdog(kWatchdogBudget, [&] {
    try {
      fn();
      FAIL() << "region completed without propagating the member exception";
    } catch (const E&) {
      // The root cause, propagated cleanly. TeamAborted echoes from
      // unwound siblings must never reach the caller (TeamAborted is not
      // derived from E in any test below).
    }
  });
  ASSERT_TRUE(finished) << "parallel region hung instead of propagating";
}

TEST(AbortRegression, ThrowingMemberFreesBarrierWaiters) {
  expect_completes_with<InvalidArgument>([] {
    parallel(4, [](TeamContext& ctx) {
      if (ctx.thread_num() == 2) throw InvalidArgument("member 2 exploded");
      // Every sibling parks at a barrier member 2 will never reach.
      ctx.barrier();
    });
  });
}

TEST(AbortRegression, ThrowingMemberFreesReduceWaiters) {
  expect_completes_with<InvalidArgument>([] {
    parallel(4, [](TeamContext& ctx) {
      if (ctx.thread_num() == 1) throw InvalidArgument("no contribution");
      (void)ctx.reduce_sum(static_cast<int>(ctx.thread_num()));
    });
  });
}

TEST(AbortRegression, ThrowingMemberFreesOrderedWaiters) {
  expect_completes_with<InvalidArgument>([] {
    parallel(4, [](TeamContext& ctx) {
      // Member 0 dies before ever entering the loop, so the iterations of
      // its static block never pass the turnstile; siblings waiting to run
      // their ordered regions would block forever without the poison.
      if (ctx.thread_num() == 0) throw InvalidArgument("owner died");
      ctx.for_each_ordered(
          0, 16, Schedule::static_blocks(),
          [](std::int64_t i, TeamContext::OrderedContext& ordered) {
            ordered.run(i, [] {});
          },
          /*nowait=*/true);
    });
  });
}

TEST(AbortRegression, ThrowingMemberFreesSingleBarrierWaiters) {
  expect_completes_with<Error>([] {
    parallel(3, [](TeamContext& ctx) {
      if (ctx.thread_num() == 2) throw Error("skipped the single");
      ctx.single([] {});  // implicit barrier member 2 never joins
    });
  });
}

TEST(AbortRegression, CallerSeesRootCauseNotTeamAbortedEcho) {
  // The member error is recorded *before* the poison wakes the siblings, so
  // the TeamAborted each survivor throws can never win the first-error race.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel(4, [](TeamContext& ctx) {
        if (ctx.thread_num() == 3) throw InvalidArgument("root cause");
        ctx.barrier();
      });
      FAIL() << "member exception was swallowed";
    } catch (const TeamAborted&) {
      FAIL() << "caller saw a TeamAborted echo instead of the root cause";
    } catch (const InvalidArgument&) {
    }
  }
}

TEST(AbortRegression, ChaosInjectedAbortPropagatesWithoutHanging) {
  // Target the abort exactly: kill team member 1 at its first chaos
  // checkpoint (the barrier's on_op probe). Siblings park at the same
  // barrier; the poison must unwind them and hand the InjectedAbort to the
  // caller — the smp analogue of a Colab VM dying mid-collective.
  chaos::Config config;
  config.seed = 11;
  config.abort_actor = chaos::kTeamActorBase + 1;
  config.abort_at_op = 0;
  chaos::Scope scope(config);

  const bool finished = run_with_watchdog(kWatchdogBudget, [] {
    try {
      parallel(4, [](TeamContext& ctx) { ctx.barrier(); });
      FAIL() << "injected abort vanished";
    } catch (const chaos::InjectedAbort& abort) {
      EXPECT_EQ(abort.actor(), chaos::kTeamActorBase + 1);
    }
  });
  ASSERT_TRUE(finished) << "team hung on a chaos-injected member abort";
  EXPECT_EQ(scope.plan().fault_count(chaos::FaultKind::Abort), 1u);
}

TEST(AbortRegression, CachedWorkersSurviveAnAbortedRegion) {
  // Poison dies with its Team: the workers that ran the aborted region
  // re-park and must serve later, healthy regions at full strength.
  try {
    parallel(4, [](TeamContext& ctx) {
      if (ctx.thread_num() == 2) throw Error("one bad region");
      ctx.barrier();
    });
  } catch (const Error&) {
  }
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> members{0};
    parallel(4, [&](TeamContext& ctx) {
      members.fetch_add(1);
      ctx.barrier();
      (void)ctx.reduce_sum(1);
    });
    EXPECT_EQ(members.load(), 4);
  }
}

TEST(AbortRegression, HostileChaosSweepNeverHangsATeam) {
  // Seeded mini-sweep (PDCLAB_CHAOS_SEEDS scales it up under `ctest -L
  // stress`): under probabilistic member aborts every region must either
  // succeed or fail with the injected fault — inside the watchdog budget,
  // under every seed.
  const int seeds = sweep_seeds(6);
  for (int s = 0; s < seeds; ++s) {
    chaos::Config config;
    config.seed = static_cast<std::uint64_t>(7000 + s);
    config.abort_probability = 0.05;
    config.yield_probability = 0.2;
    config.max_delay_us = 20;
    chaos::Scope scope(config);

    const bool finished = run_with_watchdog(kWatchdogBudget, [] {
      try {
        parallel(4, [](TeamContext& ctx) {
          std::int64_t local = 0;
          for (int round = 0; round < 4; ++round) {
            ctx.for_each(0, 64, Schedule::dynamic(8),
                         [&](std::int64_t i) { local += i; });
            (void)ctx.reduce_sum(local);
          }
        });
      } catch (const chaos::InjectedAbort&) {
        // The only acceptable failure: the fault we injected.
      }
    });
    ASSERT_TRUE(finished) << "smp team hang under hostile chaos seed "
                          << 7000 + s;
  }
}

}  // namespace
}  // namespace pdc::smp
