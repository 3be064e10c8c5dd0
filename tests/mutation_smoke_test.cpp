// Mutation smoke tests: prove the checking harness detects the bug classes
// it claims to detect.
//
// This file is compiled once per seeded mutation (see tests/CMakeLists.txt):
// each mutation binary also compiles its own copies of the schedule
// controller and queue harnesses so the GG_MUT_* macro reaches the mutated
// template instantiations, and asserts that the harness FINDS a violation.
// The unmutated control binary asserts the same scenarios run CLEAN — the
// harness has no false positives.
//
// Seeded bugs (all compile-time, never in production builds):
//   GG_MUT_DEQUE_POP_SKIP_CAS      pop skips the size-1 top CAS -> the owner
//                                  and a racing thief can both get the item
//   GG_MUT_DEQUE_PUSH_PUBLISH_EARLY push publishes bottom before the slot
//                                  write -> thieves read stale/uninit values
//   GG_MUT_DEQUE_GROW_DROP_OLDEST  growth copies all but the oldest entry
//                                  -> values are lost at every resize
//   GG_MUT_CQ_POP_NO_REMOVE        central queue pop doesn't remove ->
//                                  the same value is delivered repeatedly
//   GG_MUT_RECORDER_DROP_FRAGMENT  recorder drops every task's fragment
//                                  seq 1 -> validate_trace seq-contiguity
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/deque_check.hpp"
#include "support/test_support.hpp"
#include "trace/recorder.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using check::DequeCheckOptions;
using check::Strategy;

// Each helper is compiled only into the builds whose tests call it: a
// mutation build runs the one scenario that exposes its bug, the control
// build runs them all.
#if defined(GG_MUT_DEQUE_POP_SKIP_CAS) || \
    defined(GG_MUT_DEQUE_PUSH_PUBLISH_EARLY) || \
    defined(GG_MUT_DEQUE_GROW_DROP_OLDEST)
#define GG_SMOKE_DEQUE
#elif defined(GG_MUT_CQ_POP_NO_REMOVE)
#define GG_SMOKE_CENTRAL_QUEUE
#elif defined(GG_MUT_RECORDER_DROP_FRAGMENT)
#define GG_SMOKE_RECORDER
#else
#define GG_SMOKE_DEQUE
#define GG_SMOKE_CENTRAL_QUEUE
#define GG_SMOKE_RECORDER
#endif

#ifdef GG_SMOKE_DEQUE
/// Sweeps strategies x seeds until the Chase-Lev harness reports a
/// violation. Bounded and deterministic: either some schedule in the sweep
/// exposes the mutant, or the smoke test fails.
bool deque_sweep_finds_violation(int thieves, int items, int rounds,
                                 int owner_pops, size_t capacity) {
  for (int s = 0; s < 48; ++s) {
    DequeCheckOptions opts;
    opts.schedule.strategy = static_cast<Strategy>(s % 3);
    opts.schedule.seed = test::test_seed() + static_cast<u64>(s);
    opts.num_thieves = thieves;
    opts.items_per_round = items;
    opts.rounds = rounds;
    opts.owner_pops = owner_pops;
    opts.initial_capacity = capacity;
    if (!check_deque(opts).ok()) return true;
  }
  return false;
}
#endif

#ifdef GG_SMOKE_CENTRAL_QUEUE
bool cq_sweep_finds_violation() {
  for (int s = 0; s < 24; ++s) {
    DequeCheckOptions opts;
    opts.schedule.strategy = static_cast<Strategy>(s % 3);
    opts.schedule.seed = test::test_seed() + static_cast<u64>(s);
    opts.num_thieves = 1 + s % 2;
    opts.items_per_round = 2;
    opts.rounds = 3;
    if (!check_central_queue(opts).ok()) return true;
  }
  return false;
}
#endif

#ifdef GG_SMOKE_RECORDER
/// Records a 3-fragment task through THIS binary's (possibly mutated)
/// recorder Writer and validates the result. The drop-fragment mutant
/// creates a seq gap that validate_trace's contiguity check must flag.
std::vector<std::string> recorder_roundtrip_violations() {
  TraceRecorder rec(1);
  TraceRecorder::Writer w = rec.writer(0);
  const StrId src = rec.intern("<root>");
  TaskRec root;
  root.uid = 0;
  root.src = src;
  w.task(root);
  TaskRec child;
  child.uid = 1;
  child.parent = 0;
  child.src = src;
  child.create_time = 10;
  w.task(child);
  const TimeNs bounds[][2] = {{0, 10}, {10, 20}, {20, 30}};
  for (u32 seq = 0; seq < 3; ++seq) {
    FragmentRec f;
    f.task = 0;
    f.seq = seq;
    f.start = bounds[seq][0];
    f.end = bounds[seq][1];
    f.end_reason = seq == 0 ? FragmentEnd::Fork
                   : seq == 1 ? FragmentEnd::Join
                              : FragmentEnd::TaskEnd;
    f.end_ref = seq == 0 ? 1 : 0;
    w.fragment(f);
  }
  JoinRec j;
  j.task = 0;
  j.seq = 0;
  j.start = 20;
  j.end = 20;
  w.join(j);
  FragmentRec cf;
  cf.task = 1;
  cf.seq = 0;
  cf.start = 12;
  cf.end = 18;
  w.fragment(cf);
  TraceMeta meta;
  meta.program = "mutation-smoke";
  meta.runtime = "test";
  meta.region_end = 30;
  return validate_trace(rec.finish(std::move(meta)));
}
#endif

#if defined(GG_MUT_DEQUE_POP_SKIP_CAS)

TEST(MutationSmoke, DetectsPopSkippingTheCas) {
  // Size-1 rounds keep the owner-pop vs thief-steal race hot; skipping the
  // CAS double-delivers the contested item on some explored schedule.
  EXPECT_TRUE(deque_sweep_finds_violation(/*thieves=*/1, /*items=*/1,
                                          /*rounds=*/12, /*owner_pops=*/1,
                                          /*capacity=*/64))
      << "no explored schedule exposed the skipped pop CAS";
}

#elif defined(GG_MUT_DEQUE_PUSH_PUBLISH_EARLY)

TEST(MutationSmoke, DetectsPublishBeforeWrite) {
  // Thieves racing the publish window read the slot before the owner's
  // store: a stale value from a previous round (duplicate) or an
  // uninitialized slot (bogus).
  EXPECT_TRUE(deque_sweep_finds_violation(/*thieves=*/2, /*items=*/4,
                                          /*rounds=*/8, /*owner_pops=*/1,
                                          /*capacity=*/4))
      << "no explored schedule exposed the early publish";
}

#elif defined(GG_MUT_DEQUE_GROW_DROP_OLDEST)

TEST(MutationSmoke, DetectsValueDroppedDuringGrowth) {
  // Capacity 2 with 16 pushes per round forces growth every round; the
  // mutant loses the oldest live entry at each resize.
  EXPECT_TRUE(deque_sweep_finds_violation(/*thieves=*/1, /*items=*/16,
                                          /*rounds=*/4, /*owner_pops=*/2,
                                          /*capacity=*/2))
      << "growth-time value loss went undetected";
}

#elif defined(GG_MUT_CQ_POP_NO_REMOVE)

TEST(MutationSmoke, DetectsCentralQueuePopWithoutRemove) {
  EXPECT_TRUE(cq_sweep_finds_violation())
      << "repeated delivery from the central queue went undetected";
}

#elif defined(GG_MUT_RECORDER_DROP_FRAGMENT)

TEST(MutationSmoke, DetectsDroppedFragmentRecord) {
  const std::vector<std::string> violations = recorder_roundtrip_violations();
  ASSERT_FALSE(violations.empty())
      << "validate_trace accepted a trace with a dropped fragment";
  bool mentions_seq = false;
  for (const std::string& v : violations) {
    if (v.find("seq") != std::string::npos) mentions_seq = true;
  }
  EXPECT_TRUE(mentions_seq) << violations.front();
}

#else  // unmutated control build

TEST(MutationSmoke, CleanDequeScenariosHaveNoFalsePositives) {
  // The same scenarios the mutation binaries use to expose their seeded
  // bugs; unmutated, all of them must come back clean.
  EXPECT_FALSE(deque_sweep_finds_violation(1, 1, 12, 1, 64));
  EXPECT_FALSE(deque_sweep_finds_violation(2, 4, 8, 1, 4));
  EXPECT_FALSE(deque_sweep_finds_violation(1, 16, 4, 2, 2));
}

TEST(MutationSmoke, CleanCentralQueueHasNoFalsePositives) {
  EXPECT_FALSE(cq_sweep_finds_violation());
}

TEST(MutationSmoke, CleanRecorderRoundTripValidates) {
  const std::vector<std::string> violations = recorder_roundtrip_violations();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

#endif

}  // namespace
}  // namespace gg
