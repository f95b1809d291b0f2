// Unit tests of the chaos plan itself: activation protocol, actor lanes,
// decision determinism, targeted aborts, and trace-marker emission.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "chaos/chaos.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::chaos {
namespace {

TEST(ChaosPlan, InactiveByDefault) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Plan::active(), nullptr);
  // Hooks are no-ops without a plan.
  EXPECT_FALSE(on_deliver("mp.deliver"));
  on_op("mp.post");
  on_schedule_point("smp.barrier");
}

TEST(ChaosPlan, ScopeActivatesAndDeactivates) {
  {
    Scope scope(Config::noise(7));
    EXPECT_TRUE(enabled());
    EXPECT_EQ(Plan::active(), &scope.plan());
  }
  EXPECT_FALSE(enabled());
}

TEST(ChaosPlan, SecondPlanCannotActivateConcurrently) {
  Scope scope(Config::noise(1));
  Plan other(Config::noise(2));
  EXPECT_THROW(other.activate(), InvalidArgument);
  // The original plan is still the active one.
  EXPECT_EQ(Plan::active(), &scope.plan());
}

TEST(ChaosPlan, ActivateIsIdempotentOnTheActivePlan) {
  Scope scope(Config::noise(1));
  scope.plan().activate();  // no-op, not an error
  EXPECT_EQ(Plan::active(), &scope.plan());
}

TEST(ChaosPlan, ActorScopeNestsAndRestores) {
  EXPECT_EQ(current_actor(), 0);
  {
    ActorScope outer(3);
    EXPECT_EQ(current_actor(), 3);
    {
      ActorScope inner(kTeamActorBase + 1);
      EXPECT_EQ(current_actor(), kTeamActorBase + 1);
    }
    EXPECT_EQ(current_actor(), 3);
  }
  EXPECT_EQ(current_actor(), 0);
}

TEST(ChaosPlan, NestedLaneOnAnotherPlanDoesNotRestartTheOuterLane) {
  // The shape of mp::run's rank 0 on a grader worker: the worker's lane
  // decides on plan P, a nested rank lane decides on plan Q, and the
  // worker's next decision must continue P's stream at op 1, not op 0.
  Config config;
  config.seed = 13;
  config.delay_probability = 1.0;  // every decision records its seq
  config.max_delay_us = 1;
  Plan outer_plan(config);
  Plan inner_plan(config);
  BoundScope outer_bound(outer_plan);
  ActorScope outer(kGradeActorBase);
  (void)outer_plan.perturb_delivery("mp.deliver");
  {
    BoundScope inner_bound(inner_plan);
    ActorScope inner(0);
    (void)inner_plan.perturb_delivery("mp.deliver");
    (void)inner_plan.perturb_delivery("mp.deliver");
  }
  (void)outer_plan.perturb_delivery("mp.deliver");
  const auto faults = outer_plan.faults();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].seq, 0u);
  EXPECT_EQ(faults[1].seq, 1u);
  EXPECT_EQ(inner_plan.fault_count(), 2u);
}

TEST(ChaosPlan, CursorKeepsEachInterleavedStreamItsOwn) {
  // The lab reader's shape: one thread serves two sessions in turn on one
  // lane; each session's decisions count from op 0 and carry on across
  // its scopes, as if it had a thread of its own.
  Config config;
  config.seed = 5;
  config.delay_probability = 1.0;
  config.max_delay_us = 1;
  Plan plan(config);
  BoundScope bound(plan);
  ActorScope::Cursor a;
  ActorScope::Cursor b;
  for (int round = 0; round < 2; ++round) {
    {
      ActorScope lane(kLabAdmitActor, a);
      (void)plan.perturb_delivery("lab.admit");
    }
    {
      ActorScope lane(kLabAdmitActor, b);
      (void)plan.perturb_delivery("lab.admit");
      (void)plan.perturb_delivery("lab.admit");
    }
  }
  std::vector<std::uint64_t> seqs;
  for (const InjectedFault& fault : plan.faults()) seqs.push_back(fault.seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 0, 1, 1, 2, 3}));
  EXPECT_EQ(a.ops, 2u);
  EXPECT_EQ(b.ops, 4u);
}

TEST(ChaosPlan, FaultKindNames) {
  EXPECT_STREQ(fault_kind_name(FaultKind::Delay), "delay");
  EXPECT_STREQ(fault_kind_name(FaultKind::Reorder), "reorder");
  EXPECT_STREQ(fault_kind_name(FaultKind::Drop), "drop");
  EXPECT_STREQ(fault_kind_name(FaultKind::Abort), "abort");
  EXPECT_STREQ(fault_kind_name(FaultKind::Yield), "yield");
}

/// Drives `decisions` delivery decisions on a fixed actor lane under a
/// fresh plan and returns the injected faults.
std::vector<InjectedFault> drive_deliveries(const Config& config, int actor,
                                            int decisions) {
  Scope scope(config);
  ActorScope lane(actor);
  for (int i = 0; i < decisions; ++i) {
    (void)scope.plan().perturb_delivery("mp.deliver");
  }
  return scope.plan().faults();
}

TEST(ChaosPlan, SameSeedSameActorReplaysIdenticalDecisions) {
  Config config = Config::lossy(1234);
  config.max_delay_us = 4;  // keep the replay cheap
  const auto first = drive_deliveries(config, 2, 200);
  const auto second = drive_deliveries(config, 2, 200);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ChaosPlan, DifferentSeedsDiverge) {
  Config a = Config::lossy(1);
  Config b = Config::lossy(2);
  a.max_delay_us = b.max_delay_us = 4;
  EXPECT_NE(drive_deliveries(a, 2, 200), drive_deliveries(b, 2, 200));
}

TEST(ChaosPlan, DifferentActorsDrawIndependentStreams) {
  Config config = Config::lossy(99);
  config.max_delay_us = 4;
  const auto lane2 = drive_deliveries(config, 2, 200);
  const auto lane3 = drive_deliveries(config, 3, 200);
  // Same plan, different lane: the decision sequences must differ (with
  // overwhelming probability over 200 draws) and carry their own actor id.
  std::vector<InjectedFault> relabeled = lane3;
  for (auto& f : relabeled) f.actor = 2;
  EXPECT_NE(lane2, relabeled);
  for (const auto& f : lane3) EXPECT_EQ(f.actor, 3);
}

TEST(ChaosPlan, SeqIsTheActorLocalDecisionIndex) {
  Config config;
  config.seed = 5;
  config.delay_probability = 1.0;  // every decision injects
  config.max_delay_us = 1;
  const auto faults = drive_deliveries(config, 7, 5);
  ASSERT_EQ(faults.size(), 5u);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].seq, i);
    EXPECT_EQ(faults[i].kind, FaultKind::Delay);
    EXPECT_GE(faults[i].magnitude, 1);
    EXPECT_LE(faults[i].magnitude, 1 + config.max_delay_us);
  }
}

TEST(ChaosPlan, TargetedAbortFiresAtExactlyTheChosenOp) {
  Config config;
  config.seed = 11;
  config.abort_actor = 4;
  config.abort_at_op = 3;

  Scope scope(config);
  {
    ActorScope lane(2);  // not the target: never aborts
    for (int i = 0; i < 10; ++i) scope.plan().checkpoint("mp.post");
  }
  ActorScope lane(4);
  scope.plan().checkpoint("mp.post");  // ops 0..2 pass
  scope.plan().checkpoint("mp.post");
  scope.plan().checkpoint("mp.post");
  try {
    scope.plan().checkpoint("mp.post");
    FAIL() << "expected InjectedAbort at op 3";
  } catch (const InjectedAbort& abort) {
    EXPECT_EQ(abort.actor(), 4);
    EXPECT_EQ(abort.seq(), 3u);
  }
  ASSERT_EQ(scope.plan().fault_count(FaultKind::Abort), 1u);
}

TEST(ChaosPlan, NormalizedFaultsSortByActorThenSeq) {
  Config config;
  config.seed = 3;
  config.delay_probability = 1.0;
  config.max_delay_us = 1;
  Scope scope(config);
  {
    ActorScope lane(5);
    (void)scope.plan().perturb_delivery("mp.deliver");
  }
  {
    ActorScope lane(1);
    (void)scope.plan().perturb_delivery("mp.deliver");
    (void)scope.plan().perturb_delivery("mp.deliver");
  }
  const auto normalized = scope.plan().normalized_faults();
  ASSERT_EQ(normalized.size(), 3u);
  EXPECT_EQ(normalized[0].actor, 1);
  EXPECT_EQ(normalized[0].seq, 0u);
  EXPECT_EQ(normalized[1].actor, 1);
  EXPECT_EQ(normalized[1].seq, 1u);
  EXPECT_EQ(normalized[2].actor, 5);
}

TEST(ChaosPlan, EveryInjectionEmitsATraceMarker) {
  trace::TraceSession session;
  session.start();
  std::size_t injected = 0;
  {
    Config config;
    config.seed = 21;
    config.delay_probability = 0.5;
    config.reorder_probability = 0.5;
    config.max_delay_us = 1;
    Scope scope(config);
    ActorScope lane(1);
    for (int i = 0; i < 50; ++i) {
      (void)scope.plan().perturb_delivery("mp.deliver");
    }
    injected = scope.plan().fault_count();
  }
  session.stop();

  std::size_t markers = 0;
  for (const auto& event : session.events()) {
    if (event.category == "chaos") ++markers;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(markers, injected);
}

TEST(ChaosPlan, PresetsAreProgressivelyHostile) {
  const Config noise = Config::noise(1);
  EXPECT_GT(noise.delay_probability, 0.0);
  EXPECT_GT(noise.reorder_probability, 0.0);
  EXPECT_EQ(noise.drop_probability, 0.0);
  EXPECT_EQ(noise.abort_probability, 0.0);

  const Config lossy = Config::lossy(1);
  EXPECT_GT(lossy.drop_probability, 0.0);
  EXPECT_EQ(lossy.abort_probability, 0.0);

  const Config hostile = Config::hostile(1);
  EXPECT_GT(hostile.abort_probability, 0.0);
}

TEST(ChaosPlan, BoundScopeShadowsTheGlobalPlan) {
  Config hostile;
  hostile.seed = 5;
  hostile.abort_probability = 1.0;
  Scope global(hostile);
  ASSERT_EQ(current(), &global.plan());

  {
    Plan quiet{Config{}};
    BoundScope bind(quiet);
    EXPECT_EQ(current(), &quiet);
    EXPECT_EQ(bound(), &quiet);
    // The global certain-abort plan is shadowed: this cannot throw.
    on_op("test.site");
    EXPECT_EQ(quiet.fault_count(), 0u);
  }
  // Scope closed: decisions go back to the global plan.
  EXPECT_EQ(current(), &global.plan());
  EXPECT_EQ(bound(), nullptr);
  EXPECT_THROW(on_op("test.site"), InjectedAbort);
}

TEST(ChaosPlan, BoundScopesNest) {
  Plan outer{Config{}};
  Plan inner{Config{}};
  BoundScope first(outer);
  {
    BoundScope second(inner);
    EXPECT_EQ(current(), &inner);
  }
  EXPECT_EQ(current(), &outer);
}

TEST(ChaosPlan, NullBindingIsANoOp) {
  Plan outer{Config{}};
  BoundScope first(outer);
  {
    BoundScope nothing(static_cast<Plan*>(nullptr));
    EXPECT_EQ(current(), &outer) << "binding nullptr must not unbind";
  }
  EXPECT_EQ(current(), &outer);
}

TEST(ChaosPlan, ConcurrentThreadBindingsStayIndependent) {
  // Each thread binds its own certain-abort plan; every thread must see
  // exactly its own plan's injections — the property the pdc::grade worker
  // fleet is built on.
  constexpr int kThreads = 4;
  std::vector<std::size_t> counts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &counts] {
      Config config;
      config.seed = static_cast<std::uint64_t>(t + 1);
      config.abort_probability = 1.0;
      Plan plan(config);
      BoundScope bind(plan);
      ActorScope lane(100 + t);
      for (int i = 0; i < 5; ++i) {
        try {
          on_op("test.site");
        } catch (const InjectedAbort&) {
        }
      }
      counts[static_cast<std::size_t>(t)] = plan.fault_count();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counts[static_cast<std::size_t>(t)], 5u) << "thread " << t;
  }
}

TEST(ChaosPlan, DropDecisionsAreBoundedAndDeliveryPreserving) {
  Config config;
  config.seed = 17;
  config.drop_probability = 1.0;
  config.max_redeliveries = 3;
  config.max_delay_us = 1;
  const auto faults = drive_deliveries(config, 1, 40);
  ASSERT_EQ(faults.size(), 40u);  // every decision dropped exactly once
  for (const auto& f : faults) {
    EXPECT_EQ(f.kind, FaultKind::Drop);
    EXPECT_GE(f.magnitude, 1);
    EXPECT_LE(f.magnitude, config.max_redeliveries + 1);
  }
}

}  // namespace
}  // namespace pdc::chaos
