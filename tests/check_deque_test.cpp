// Chase-Lev deque edge cases explored under the schedule controller:
// steal-vs-pop on a size-1 deque, growth during concurrent steals, and an
// empty-deque steal storm. All runs must account for every value exactly
// once, on every strategy and seed tried — the same value-accounting
// harness the seeded GG_MUT_* mutations must fail.
#include <gtest/gtest.h>

#include "check/deque_check.hpp"
#include "rts/chase_lev_deque.hpp"
#include "support/test_support.hpp"

namespace gg {
namespace {

using check::DequeCheckOptions;
using check::DequeCheckResult;
using check::Strategy;

constexpr Strategy kStrategies[] = {Strategy::RoundRobin,
                                    Strategy::RandomWalk,
                                    Strategy::SleepSet};

void expect_clean(const DequeCheckResult& r) {
  EXPECT_TRUE(r.ok()) << r.violations.front();
  EXPECT_GT(r.decisions, 0u) << "controller never consulted — points not "
                                "reached [" << r.schedule_desc << "]";
}

TEST(DequeCheckTest, StealVsPopAtSizeOne) {
  // One item in flight per round: every round is a direct owner-pop vs
  // thief-steal race on the same slot — the classic Chase-Lev CAS window.
  for (const Strategy s : kStrategies) {
    for (u64 d = 0; d < 6; ++d) {
      DequeCheckOptions opts;
      opts.schedule.strategy = s;
      opts.schedule.seed = test::test_seed() + d;
      GG_SEED_TRACE(opts.schedule.seed);
      opts.num_thieves = 1;
      opts.items_per_round = 1;
      opts.rounds = 12;
      opts.owner_pops = 1;
      expect_clean(check_deque(opts));
    }
  }
}

TEST(DequeCheckTest, GrowthDuringConcurrentSteal) {
  // Capacity 2 with 16 pushes per round forces several buffer doublings
  // while thieves hold top indices into the old buffer.
  for (const Strategy s : kStrategies) {
    for (u64 d = 0; d < 4; ++d) {
      DequeCheckOptions opts;
      opts.schedule.strategy = s;
      opts.schedule.seed = test::test_seed() + 17 * (d + 1);
      GG_SEED_TRACE(opts.schedule.seed);
      opts.num_thieves = 2;
      opts.items_per_round = 16;
      opts.rounds = 4;
      opts.owner_pops = 3;
      opts.initial_capacity = 2;
      expect_clean(check_deque(opts));
    }
  }
}

TEST(DequeCheckTest, EmptyQueueStealStorm) {
  // Nothing is ever pushed: three thieves hammer an empty deque while the
  // owner drains nothing. Terminates (no lost wakeup / livelock under the
  // controller) and delivers the empty set.
  for (const Strategy s : kStrategies) {
    DequeCheckOptions opts;
    opts.schedule.strategy = s;
    opts.schedule.seed = test::test_seed();
    GG_SEED_TRACE(opts.schedule.seed);
    opts.num_thieves = 3;
    opts.items_per_round = 0;
    opts.rounds = 1;
    opts.owner_pops = 0;
    opts.max_steal_attempts = 64;
    expect_clean(check_deque(opts));
  }
}

TEST(DequeCheckTest, RunsAreDeterministic) {
  DequeCheckOptions opts;
  opts.schedule.strategy = Strategy::RandomWalk;
  opts.schedule.seed = test::test_seed() + 5;
  GG_SEED_TRACE(opts.schedule.seed);
  opts.num_thieves = 2;
  opts.items_per_round = 4;
  opts.rounds = 6;
  opts.initial_capacity = 4;
  const DequeCheckResult a = check_deque(opts);
  const DequeCheckResult b = check_deque(opts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.schedule_desc, b.schedule_desc);
}

TEST(DequeCheckTest, GrowthPreservesAllValues) {
  // Single-threaded growth sanity apart from the controller: push far past
  // the initial capacity, then pop everything back in LIFO order.
  rts::ChaseLevDeque<u64> dq(/*initial_capacity=*/2);
  for (u64 v = 1; v <= 100; ++v) dq.push(v);
  EXPECT_GT(dq.resize_count(), 0u);
  for (u64 v = 100; v >= 1; --v) {
    auto got = dq.pop();
    ASSERT_TRUE(got.has_value()) << "value " << v;
    EXPECT_EQ(*got, v);
  }
  EXPECT_FALSE(dq.pop().has_value());
}

TEST(DequeCheckTest, CentralQueueAccountsEveryValue) {
  for (const Strategy s : kStrategies) {
    for (u64 d = 0; d < 4; ++d) {
      DequeCheckOptions opts;
      opts.schedule.strategy = s;
      opts.schedule.seed = test::test_seed() + 31 * (d + 1);
      GG_SEED_TRACE(opts.schedule.seed);
      opts.num_thieves = 2;
      opts.items_per_round = 3;
      opts.rounds = 4;
      expect_clean(check_central_queue(opts));
    }
  }
}

}  // namespace
}  // namespace gg
