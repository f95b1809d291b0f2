#include "remote/firewall.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace pdc::remote {
namespace {

TEST(Firewall, AllowsUnknownClients) {
  Firewall fw(Firewall::Policy{3, 30.0});
  EXPECT_FALSE(fw.is_blocked("10.0.0.1", 0.0));
}

TEST(Firewall, BlocksAfterMaxFailures) {
  Firewall fw(Firewall::Policy{3, 30.0});
  EXPECT_FALSE(fw.record_failure("c", 0.0));
  EXPECT_FALSE(fw.record_failure("c", 1.0));
  EXPECT_TRUE(fw.record_failure("c", 2.0));  // third strike
  EXPECT_TRUE(fw.is_blocked("c", 2.0));
}

TEST(Firewall, BlockLapsesAfterLockoutWindow) {
  Firewall fw(Firewall::Policy{2, 10.0});
  fw.record_failure("c", 0.0);
  fw.record_failure("c", 0.5);  // blocked until 10.5
  EXPECT_TRUE(fw.is_blocked("c", 10.0));
  EXPECT_FALSE(fw.is_blocked("c", 10.5));
  EXPECT_EQ(fw.failures("c"), 0);  // counter reset with the lapse
}

TEST(Firewall, SuccessResetsCounterButNotActiveBlock) {
  Firewall fw(Firewall::Policy{3, 30.0});
  fw.record_failure("c", 0.0);
  fw.record_failure("c", 0.1);
  fw.record_success("c");
  EXPECT_EQ(fw.failures("c"), 0);
  EXPECT_FALSE(fw.is_blocked("c", 0.2));

  // Once blocked, even a correct password does not lift the block — the
  // confusing part of the workshop incident.
  fw.record_failure("c", 1.0);
  fw.record_failure("c", 1.1);
  fw.record_failure("c", 1.2);
  EXPECT_TRUE(fw.is_blocked("c", 1.3));
  fw.record_success("c");
  EXPECT_TRUE(fw.is_blocked("c", 1.4));
}

TEST(Firewall, RotatingBadNamesStayUnderTheCapAndAnActiveBlockSurvives) {
  Firewall fw(Firewall::Policy{3, 30.0});
  for (int i = 0; i < 3; ++i) fw.record_failure("eager-beaver", 0.0);
  ASSERT_TRUE(fw.is_blocked("eager-beaver", 0.0));

  // 100k bad tokens, each under a fresh tenant name, inside the lockout.
  for (int i = 0; i < 100000; ++i) {
    fw.record_failure("bot-" + std::to_string(i), 1.0 + i * 1e-4);
    ASSERT_LE(fw.tracked(), Firewall::kMaxClients) << "after " << i;
  }
  EXPECT_TRUE(fw.is_blocked("eager-beaver", 20.0));
  EXPECT_EQ(fw.failures("eager-beaver"), 3);
  EXPECT_EQ(fw.failures("bot-99999"), 1);  // the newest name is tracked
}

TEST(Firewall, EvictionTakesLapsedBlocksThenTheOldestFailures) {
  Firewall fw(Firewall::Policy{2, 10.0});
  fw.record_failure("lapsed", 0.0);
  fw.record_failure("lapsed", 0.0);  // blocked until 10.0
  for (std::size_t i = 0; i + 2 < Firewall::kMaxClients; ++i) {
    fw.record_failure("old-" + std::to_string(i), 1.0);
  }
  fw.record_failure("recent", 2.0);
  ASSERT_EQ(fw.tracked(), Firewall::kMaxClients);

  fw.record_failure("newcomer", 11.0);  // the table is full: make room
  EXPECT_LE(fw.tracked(),
            Firewall::kMaxClients - Firewall::kMaxClients / 8 + 1);
  EXPECT_EQ(fw.failures("newcomer"), 1);
  EXPECT_EQ(fw.failures("recent"), 1);
  EXPECT_EQ(fw.failures("old-0"), 0);  // among the oldest: evicted
  EXPECT_EQ(fw.failures("old-" + std::to_string(Firewall::kMaxClients - 3)), 1);
}

TEST(Firewall, AFullTableOfActiveBlocksLeavesNewNamesUntracked) {
  Firewall fw(Firewall::Policy{1, 30.0});
  for (std::size_t i = 0; i < Firewall::kMaxClients; ++i) {
    fw.record_failure("blocked-" + std::to_string(i), 0.0);
  }
  EXPECT_FALSE(fw.record_failure("stranger", 1.0));
  EXPECT_EQ(fw.tracked(), Firewall::kMaxClients);
  EXPECT_TRUE(fw.is_blocked("blocked-0", 1.0));
}

TEST(Firewall, ClientsAreIndependent) {
  Firewall fw(Firewall::Policy{1, 30.0});
  fw.record_failure("bad", 0.0);
  EXPECT_TRUE(fw.is_blocked("bad", 0.1));
  EXPECT_FALSE(fw.is_blocked("good", 0.1));
}

TEST(Firewall, AdminUnblockWorksImmediately) {
  Firewall fw(Firewall::Policy{1, 60.0});
  fw.record_failure("c", 0.0);
  EXPECT_TRUE(fw.is_blocked("c", 1.0));
  fw.unblock("c");
  EXPECT_FALSE(fw.is_blocked("c", 1.0));
  EXPECT_EQ(fw.failures("c"), 0);
}

TEST(Firewall, ValidatesPolicy) {
  EXPECT_THROW(Firewall(Firewall::Policy{0, 30.0}), InvalidArgument);
  EXPECT_THROW(Firewall(Firewall::Policy{3, 0.0}), InvalidArgument);
}

TEST(Firewall, FailuresAfterLapseStartANewCount) {
  Firewall fw(Firewall::Policy{2, 5.0});
  fw.record_failure("c", 0.0);
  fw.record_failure("c", 0.1);          // blocked until 5.1
  EXPECT_FALSE(fw.record_failure("c", 6.0));  // lapsed; this is failure #1
  EXPECT_EQ(fw.failures("c"), 1);
}

}  // namespace
}  // namespace pdc::remote
