#include "eddy/policy.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tcq {
namespace {

std::vector<EddyOpStats> MakeStats(size_t n) {
  return std::vector<EddyOpStats>(n);
}

TEST(PolicyTest, FixedPrefersLowestRank) {
  FixedPolicy policy({2, 0, 1});
  auto stats = MakeStats(3);
  std::vector<double> costs{1, 1, 1};
  EXPECT_EQ(policy.Choose({0, 1, 2}, stats, costs), 1u);
  EXPECT_EQ(policy.Choose({0, 2}, stats, costs), 2u);
  EXPECT_EQ(policy.Choose({0}, stats, costs), 0u);
}

TEST(PolicyTest, FixedWithoutPrioritiesUsesIndexOrder) {
  FixedPolicy policy({});
  auto stats = MakeStats(3);
  std::vector<double> costs{1, 1, 1};
  EXPECT_EQ(policy.Choose({2, 1}, stats, costs), 1u);
}

TEST(PolicyTest, RandomCoversAllEligible) {
  RandomPolicy policy(3);
  auto stats = MakeStats(4);
  std::vector<double> costs{1, 1, 1, 1};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 1000; ++i) {
    ++hits[policy.Choose({0, 1, 2, 3}, stats, costs)];
  }
  for (int h : hits) EXPECT_GT(h, 150);
}

TEST(PolicyTest, ObserveAccumulatesTicketsForSelectiveOps) {
  LotteryPolicy policy(3);
  auto stats = MakeStats(2);
  // Op 0 drops everything (never passes); op 1 passes everything.
  for (int i = 0; i < 100; ++i) {
    policy.Observe(0, /*passed=*/false, &stats);
    policy.Observe(1, /*passed=*/true, &stats);
  }
  EXPECT_GT(stats[0].tickets, stats[1].tickets);
  EXPECT_GT(stats[0].tickets, 50.0);
}

TEST(PolicyTest, TicketsNeverNegative) {
  LotteryPolicy policy(3);
  auto stats = MakeStats(1);
  for (int i = 0; i < 50; ++i) policy.Observe(0, true, &stats);
  EXPECT_GE(stats[0].tickets, 0.0);
}

TEST(PolicyTest, LotteryFavorsTicketRichOps) {
  LotteryPolicy policy(11);
  auto stats = MakeStats(2);
  stats[0].tickets = 100.0;
  stats[1].tickets = 1.0;
  std::vector<double> costs{1, 1};
  int first = 0;
  for (int i = 0; i < 1000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 0) ++first;
  }
  EXPECT_GT(first, 800);
}

TEST(PolicyTest, LotteryPenalizesExpensiveOps) {
  LotteryPolicy policy(11);
  auto stats = MakeStats(2);
  stats[0].tickets = 10.0;
  stats[1].tickets = 10.0;
  std::vector<double> costs{1.0, 100.0};
  int cheap = 0;
  for (int i = 0; i < 1000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 0) ++cheap;
  }
  EXPECT_GT(cheap, 900);
}

TEST(PolicyTest, DecayForgetsHistory) {
  LotteryPolicy::Options opts;
  opts.decay = 0.5;
  opts.decay_interval = 10;
  LotteryPolicy policy(3, opts);
  auto stats = MakeStats(1);
  stats[0].tickets = 1000.0;
  std::vector<double> costs{1};
  // Passing tuples keep debiting while decay halves the balance every 10
  // decisions; history must fade fast.
  for (int i = 0; i < 100; ++i) {
    policy.Choose({0}, stats, costs);
    policy.Observe(0, true, &stats);
  }
  EXPECT_LT(stats[0].tickets, 10.0);
}

TEST(PolicyTest, DecayOncePerIntervalCrossing) {
  // A cached decision serves a whole batch: decision 128 (on the default
  // decay interval) followed by 64 tuples x 3 hops of observations. The
  // balance must decay once for that interval, not once per observation.
  LotteryPolicy policy(3);
  auto stats = MakeStats(1);
  std::vector<double> costs{1};
  for (int i = 0; i < 128; ++i) policy.Choose({0}, stats, costs);
  stats[0].tickets = 128.0;
  for (int i = 0; i < 190; ++i) policy.Observe(0, /*passed=*/true, &stats);
  EXPECT_DOUBLE_EQ(stats[0].tickets, 128.0 * 0.9);
  // The next crossing decays again, once.
  for (int i = 0; i < 128; ++i) policy.Choose({0}, stats, costs);
  for (int i = 0; i < 190; ++i) policy.Observe(0, /*passed=*/true, &stats);
  EXPECT_DOUBLE_EQ(stats[0].tickets, 128.0 * 0.9 * 0.9);
}

TEST(PolicyTest, RunObservationMatchesPerTupleObservations) {
  // The eddy observes each hop of a run once. The tickets must equal what
  // observing the run's tuples one at a time gives, through decays and
  // the max_tickets cap.
  LotteryPolicy::Options opts;
  opts.decay_interval = 4;
  LotteryPolicy per_tuple(5, opts);
  LotteryPolicy per_run(5, opts);
  auto a = MakeStats(2);
  auto b = MakeStats(2);
  a[0].tickets = b[0].tickets = 150.0;
  a[1].tickets = b[1].tickets = 3.0;
  std::vector<double> costs{1, 1};
  Rng rng(9);
  for (int round = 0; round < 40; ++round) {
    const size_t op = per_tuple.Choose({0, 1}, a, costs);
    ASSERT_EQ(per_run.Choose({0, 1}, b, costs), op) << round;
    const uint64_t routed = 1 + rng.NextBounded(64);
    const uint64_t passed = rng.NextBounded(routed + 1);
    for (uint64_t i = 0; i < routed; ++i) {
      per_tuple.Observe(op, /*passed=*/i < passed, &a);
    }
    per_run.ObserveRun(op, routed, passed, &b);
    EXPECT_EQ(a[0].tickets, b[0].tickets) << round;
    EXPECT_EQ(a[1].tickets, b[1].tickets) << round;
  }
  EXPECT_LE(a[0].tickets, opts.max_tickets);
}

TEST(PolicyTest, ExplorationFloorKeepsStarvedOpAlive) {
  LotteryPolicy policy(13);
  auto stats = MakeStats(2);
  stats[0].tickets = 1000.0;
  stats[1].tickets = 0.0;  // Starved op.
  std::vector<double> costs{1, 1};
  int starved_hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 1) ++starved_hits;
  }
  EXPECT_GT(starved_hits, 0);  // Exploration keeps sampling it.
}

TEST(PolicyTest, MakePolicyFactory) {
  EXPECT_STREQ(MakePolicy("fixed")->name(), "fixed");
  EXPECT_STREQ(MakePolicy("random")->name(), "random");
  EXPECT_STREQ(MakePolicy("lottery")->name(), "lottery");
  EXPECT_STREQ(MakePolicy("bogus")->name(), "lottery");  // Fallback.
}

}  // namespace
}  // namespace tcq
