#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "rts/central_queue.hpp"
#include "rts/chase_lev_deque.hpp"
#include "rts/threaded_engine.hpp"
#include "trace/validate.hpp"

namespace gg::rts {
namespace {

using front::Ctx;
using front::ForOpts;

// ---------------------------------------------------------------------------
// Chase-Lev deque

TEST(ChaseLevTest, OwnerLifoOrder) {
  ChaseLevDeque<int*> dq;
  int vals[3] = {1, 2, 3};
  dq.push(&vals[0]);
  dq.push(&vals[1]);
  dq.push(&vals[2]);
  EXPECT_EQ(dq.pop().value(), &vals[2]);
  EXPECT_EQ(dq.pop().value(), &vals[1]);
  EXPECT_EQ(dq.pop().value(), &vals[0]);
  EXPECT_FALSE(dq.pop().has_value());
}

TEST(ChaseLevTest, ThiefFifoOrder) {
  ChaseLevDeque<int*> dq;
  int vals[3] = {1, 2, 3};
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.steal().value(), &vals[0]);
  EXPECT_EQ(dq.steal().value(), &vals[1]);
  EXPECT_EQ(dq.steal().value(), &vals[2]);
  EXPECT_FALSE(dq.steal().has_value());
}

TEST(ChaseLevTest, GrowsPastInitialCapacity) {
  ChaseLevDeque<size_t*> dq(4);
  std::vector<size_t> vals(1000);
  std::iota(vals.begin(), vals.end(), 0);
  for (auto& v : vals) dq.push(&v);
  EXPECT_EQ(dq.size_estimate(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    auto p = dq.steal();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(**p, i);
  }
  EXPECT_GT(dq.resize_count(), 0u);
}

TEST(ChaseLevTest, ConcurrentStealersReceiveEachItemExactlyOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<int*> dq;
  std::vector<int> vals(kItems);
  std::iota(vals.begin(), vals.end(), 0);
  std::atomic<bool> go{false};
  std::atomic<bool> done_pushing{false};
  std::vector<std::vector<int>> stolen(kThieves);
  std::vector<int> popped;

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      while (!done_pushing.load() || dq.size_estimate() > 0) {
        if (auto v = dq.steal()) stolen[static_cast<size_t>(t)].push_back(**v);
      }
    });
  }

  go.store(true);
  for (int i = 0; i < kItems; ++i) {
    dq.push(&vals[static_cast<size_t>(i)]);
    if (i % 3 == 0) {
      if (auto v = dq.pop()) popped.push_back(**v);
    }
  }
  while (auto v = dq.pop()) popped.push_back(**v);
  done_pushing.store(true);
  for (auto& th : thieves) th.join();
  // Drain any residue raced at the end.
  while (auto v = dq.steal()) popped.push_back(**v);

  std::vector<int> all = popped;
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(ChaseLevTest, ResizeCountReadableWhileOwnerGrows) {
  // The resize counter is polled live by the telemetry sampler and the
  // supervisor while the owner is still pushing (and growing); it is an
  // atomic precisely so that cross-thread read is race-free. TSan covers
  // this test in the sanitizer CI job.
  ChaseLevDeque<size_t*> dq(2);
  std::vector<size_t> vals(4000);
  std::iota(vals.begin(), vals.end(), 0);
  std::atomic<bool> done{false};
  u64 last_seen = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const u64 r = dq.resize_count();
      EXPECT_GE(r, last_seen);  // monotone under a single grower
      last_seen = r;
    }
  });
  for (auto& v : vals) dq.push(&v);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(dq.resize_count(), 0u);
}

TEST(CentralQueueTest, FifoAndSize) {
  CentralQueue<int*> q;
  int vals[2] = {1, 2};
  EXPECT_FALSE(q.pop().has_value());
  q.push(&vals[0]);
  q.push(&vals[1]);
  EXPECT_EQ(q.size_estimate(), 2u);
  EXPECT_EQ(q.pop().value(), &vals[0]);
  EXPECT_EQ(q.pop().value(), &vals[1]);
}

// ---------------------------------------------------------------------------
// Threaded engine

Options ws_opts(int workers) {
  Options o;
  o.num_workers = workers;
  o.scheduler = SchedulerKind::WorkStealing;
  return o;
}

TEST(ThreadedEngineTest, RunsRootOnly) {
  ThreadedEngine eng(ws_opts(1));
  bool ran = false;
  Trace t = eng.run("root_only", [&](Ctx&) { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.tasks.size(), 1u);
  EXPECT_EQ(t.grain_count(), 0u);
  EXPECT_GT(t.makespan(), 0u);
}

TEST(ThreadedEngineTest, SpawnAndTaskwaitComputesCorrectResult) {
  for (int workers : {1, 2, 4}) {
    ThreadedEngine eng(ws_opts(workers));
    std::atomic<int> sum{0};
    Trace t = eng.run("spawn", [&](Ctx& ctx) {
      for (int i = 1; i <= 10; ++i) {
        ctx.spawn(GG_SRC, [&sum, i](Ctx&) { sum.fetch_add(i); });
      }
      ctx.taskwait();
      EXPECT_EQ(sum.load(), 55);
    });
    const auto errs = validate_trace(t);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    EXPECT_EQ(t.tasks.size(), 11u);
    EXPECT_EQ(t.joins_span(kRootTask).size(), 1u);
  }
}

// Recursive fib via tasks: checks deep nesting, work stealing, and that the
// recorded task tree matches the recursion tree exactly.
void fib_task(Ctx& ctx, int n, std::atomic<long>* out) {
  if (n < 2) {
    out->fetch_add(n);
    return;
  }
  ctx.spawn(GG_SRC, [n, out](Ctx& c) { fib_task(c, n - 1, out); });
  ctx.spawn(GG_SRC, [n, out](Ctx& c) { fib_task(c, n - 2, out); });
  ctx.taskwait();
}

TEST(ThreadedEngineTest, RecursiveFibAcrossWorkers) {
  for (int workers : {1, 3}) {
    ThreadedEngine eng(ws_opts(workers));
    std::atomic<long> result{0};
    Trace t = eng.run("fib", [&](Ctx& ctx) { fib_task(ctx, 12, &result); });
    EXPECT_EQ(result.load(), 144);
    const auto errs = validate_trace(t);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    // fib task-count recurrence: T(n) = T(n-1) + T(n-2) + 2, T(<2) = 0.
    long expect_tasks = 0;
    {
      std::vector<long> tn(13, 0);
      for (int i = 2; i <= 12; ++i) tn[i] = tn[i - 1] + tn[i - 2] + 2;
      expect_tasks = tn[12];
    }
    EXPECT_EQ(t.tasks.size(), static_cast<size_t>(expect_tasks) + 1);
  }
}

TEST(ThreadedEngineTest, CentralQueueSchedulerWorks) {
  Options o = ws_opts(4);
  o.scheduler = SchedulerKind::CentralQueue;
  ThreadedEngine eng(o);
  std::atomic<long> result{0};
  Trace t = eng.run("fib_central", [&](Ctx& ctx) { fib_task(ctx, 10, &result); });
  EXPECT_EQ(result.load(), 55);
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.meta.runtime, "threaded/central");
}

TEST(ThreadedEngineTest, WorkStealingSchedulerNamesItsRuntime) {
  ThreadedEngine eng(ws_opts(3));
  std::atomic<long> result{0};
  Trace t = eng.run("fib_ws", [&](Ctx& ctx) { fib_task(ctx, 10, &result); });
  EXPECT_EQ(result.load(), 55);
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.meta.runtime, "threaded/ws");
}

TEST(ThreadedEngineTest, QueueContentionGaugesSumTheLostCasRaces) {
  // A worker's gauge counts the CAS races lost on its deque (its own pops
  // and thieves' steals); each lost race is also a cas_failure of the
  // worker that lost it. The spool's last 'T' frame is sampled after the
  // workers joined, so both sums are final.
  const std::string path = ::testing::TempDir() + "rts_contention.ggspool";
  obs::Registry reg;
  Options o = ws_opts(4);
  o.telemetry = &reg;
  o.spool.path = path;
  ThreadedEngine eng(o);
  std::atomic<long> result{0};
  Trace t = eng.run("fib_contention",
                    [&](Ctx& ctx) { fib_task(ctx, 16, &result); });
  EXPECT_EQ(result.load(), 987);
  const spool::RecoverResult rr = spool::recover_spool_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(rr.usable);
  obs::MetricsSnapshot snap;
  ASSERT_TRUE(obs::decode_telemetry_payload(rr.report.telemetry, &snap));
  double contention = 0;
  for (int i = 0; i < o.num_workers; ++i) {
    const std::string gauge =
        "engine.worker." + std::to_string(i) + ".queue_contention";
    ASSERT_EQ(snap.gauges.count(gauge), 1u) << gauge;
    contention += snap.gauges.at(gauge);
  }
  u64 cas_failures = 0;
  for (const WorkerStatsRec& w : t.worker_stats) cas_failures += w.cas_failures;
  EXPECT_EQ(contention, static_cast<double>(cas_failures));
}

TEST(ThreadedEngineTest, UnjoinedChildrenDrainAtImplicitBarrier) {
  ThreadedEngine eng(ws_opts(2));
  std::atomic<int> count{0};
  Trace t = eng.run("fire_and_forget", [&](Ctx& ctx) {
    for (int i = 0; i < 5; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { count++; });
    // no taskwait: tasks complete at the region's implicit barrier
  });
  EXPECT_EQ(count.load(), 5);
  EXPECT_TRUE(validate_trace(t).empty());
  // The implicit barrier shows up as a join on the root task.
  EXPECT_EQ(t.joins_span(kRootTask).size(), 1u);
}

TEST(ThreadedEngineTest, InlineQueueLimitMarksTasksInlined) {
  Options o = ws_opts(1);
  o.inline_queue_limit = 2;
  ThreadedEngine eng(o);
  std::atomic<int> count{0};
  Trace t = eng.run("inline", [&](Ctx& ctx) {
    for (int i = 0; i < 10; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { count++; });
    ctx.taskwait();
  });
  EXPECT_EQ(count.load(), 10);
  EXPECT_TRUE(validate_trace(t).empty());
  size_t inlined = 0;
  for (const auto& task : t.tasks)
    if (task.inlined) ++inlined;
  // With a single worker and queue limit 2, most spawns exceed the limit.
  EXPECT_GE(inlined, 7u);
}

TEST(ThreadedEngineTest, ThrottleLimitsLiveTasks) {
  Options o = ws_opts(2);
  o.task_throttle_per_worker = 1;
  ThreadedEngine eng(o);
  std::atomic<long> result{0};
  Trace t = eng.run("fib_throttled", [&](Ctx& ctx) { fib_task(ctx, 10, &result); });
  EXPECT_EQ(result.load(), 55);
  EXPECT_TRUE(validate_trace(t).empty());
  size_t inlined = 0;
  for (const auto& task : t.tasks)
    if (task.inlined) ++inlined;
  EXPECT_GT(inlined, 0u);
}

TEST(ThreadedEngineTest, TaskwaitWithoutChildrenIsStructuralNoop) {
  ThreadedEngine eng(ws_opts(2));
  Trace t = eng.run("empty_wait", [&](Ctx& ctx) {
    ctx.taskwait();
    ctx.taskwait();
  });
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_TRUE(t.joins_span(kRootTask).empty());
  EXPECT_EQ(t.fragments_span(kRootTask).size(), 1u);
}

// ---------------------------------------------------------------------------
// Parallel for

struct LoopCase {
  ScheduleKind sched;
  u64 chunk;
  int workers;
  u64 iters;
};

class ParallelForTest : public ::testing::TestWithParam<LoopCase> {};

TEST_P(ParallelForTest, AllIterationsExecuteExactlyOnce) {
  const LoopCase p = GetParam();
  ThreadedEngine eng(ws_opts(p.workers));
  std::vector<std::atomic<int>> hits(p.iters);
  for (auto& h : hits) h.store(0);
  ForOpts fo;
  fo.sched = p.sched;
  fo.chunk = p.chunk;
  Trace t = eng.run("pfor", [&](Ctx& ctx) {
    ctx.parallel_for(GG_SRC, 0, p.iters, fo,
                     [&](u64 i, Ctx&) { hits[i].fetch_add(1); });
  });
  for (u64 i = 0; i < p.iters; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  const auto errs = validate_trace(t);
  EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
  ASSERT_EQ(t.loops.size(), 1u);
  const LoopRec& loop = t.loops.front();
  EXPECT_EQ(loop.iter_begin, 0u);
  EXPECT_EQ(loop.iter_end, p.iters);
  EXPECT_EQ(loop.sched, p.sched);
  // Chunks partition the space (validated above); check bookkeeping pairing:
  // per thread, #bookkeeps == #chunks + 1 when the thread worked, else 0.
  for (u16 th = 0; th < loop.num_threads; ++th) {
    size_t nchunks = 0, nbooks = 0;
    for (const auto& c : t.chunks_span(loop.uid))
      if (c.thread == th) ++nchunks;
    for (const auto& b : t.bookkeeps_span(loop.uid))
      if (b.thread == th) ++nbooks;
    if (nchunks > 0) {
      EXPECT_EQ(nbooks, nchunks + 1);
    } else {
      EXPECT_EQ(nbooks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ParallelForTest,
    ::testing::Values(LoopCase{ScheduleKind::Static, 0, 1, 100},
                      LoopCase{ScheduleKind::Static, 0, 4, 100},
                      LoopCase{ScheduleKind::Static, 7, 4, 100},
                      LoopCase{ScheduleKind::Static, 1, 3, 17},
                      LoopCase{ScheduleKind::Dynamic, 1, 4, 100},
                      LoopCase{ScheduleKind::Dynamic, 13, 2, 100},
                      LoopCase{ScheduleKind::Guided, 1, 4, 100},
                      LoopCase{ScheduleKind::Guided, 4, 3, 1000}));

TEST(ThreadedEngineTest, EmptyLoopProducesNoChunks) {
  ThreadedEngine eng(ws_opts(2));
  Trace t = eng.run("empty_loop", [&](Ctx& ctx) {
    ctx.parallel_for(GG_SRC, 5, 5, ForOpts{}, [&](u64, Ctx&) { FAIL(); });
  });
  EXPECT_TRUE(validate_trace(t).empty());
  ASSERT_EQ(t.loops.size(), 1u);
  EXPECT_TRUE(t.chunks_span(t.loops.front().uid).empty());
}

TEST(ThreadedEngineTest, NumThreadsRestrictsTeam) {
  ThreadedEngine eng(ws_opts(4));
  ForOpts fo;
  fo.sched = ScheduleKind::Dynamic;
  fo.chunk = 1;
  fo.num_threads = 2;
  std::set<int> seen_workers;
  std::mutex m;
  Trace t = eng.run("team2", [&](Ctx& ctx) {
    ctx.parallel_for(GG_SRC, 0, 64, fo, [&](u64, Ctx& c) {
      std::lock_guard lock(m);
      seen_workers.insert(c.worker());
    });
  });
  EXPECT_TRUE(validate_trace(t).empty());
  ASSERT_EQ(t.loops.size(), 1u);
  EXPECT_EQ(t.loops.front().num_threads, 2);
  for (int w : seen_workers) EXPECT_LT(w, 2);
}

TEST(ThreadedEngineTest, SequentialLoopsGetDistinctSeq) {
  ThreadedEngine eng(ws_opts(2));
  Trace t = eng.run("two_loops", [&](Ctx& ctx) {
    ctx.parallel_for(GG_SRC, 0, 8, ForOpts{}, [](u64, Ctx&) {});
    ctx.parallel_for(GG_SRC, 0, 8, ForOpts{}, [](u64, Ctx&) {});
  });
  EXPECT_TRUE(validate_trace(t).empty());
  ASSERT_EQ(t.loops.size(), 2u);
  EXPECT_NE(t.loops[0].seq, t.loops[1].seq);
  EXPECT_EQ(t.loops[0].starting_thread, t.loops[1].starting_thread);
}

TEST(ThreadedEngineTest, TasksThenLoopThenTasks) {
  ThreadedEngine eng(ws_opts(3));
  std::atomic<int> task_sum{0};
  std::vector<std::atomic<int>> hits(32);
  for (auto& h : hits) h.store(0);
  Trace t = eng.run("mixed", [&](Ctx& ctx) {
    for (int i = 0; i < 4; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { task_sum++; });
    ctx.taskwait();
    ForOpts fo;
    fo.sched = ScheduleKind::Dynamic;
    fo.chunk = 4;
    ctx.parallel_for(GG_SRC, 0, 32, fo, [&](u64 i, Ctx&) { hits[i]++; });
    for (int i = 0; i < 4; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { task_sum++; });
    ctx.taskwait();
  });
  EXPECT_EQ(task_sum.load(), 8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  const auto errs = validate_trace(t);
  EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
  EXPECT_EQ(t.loops.size(), 1u);
  EXPECT_EQ(t.joins_span(kRootTask).size(), 2u);
  // Root fragment stream contains a Loop-terminated fragment.
  bool saw_loop_fragment = false;
  for (const auto& f : t.fragments_span(kRootTask))
    saw_loop_fragment |= f.end_reason == FragmentEnd::Loop;
  EXPECT_TRUE(saw_loop_fragment);
}

TEST(ThreadedEngineTest, ProfilingOffStillRunsAndReportsMakespan) {
  Options o = ws_opts(2);
  o.profile = false;
  ThreadedEngine eng(o);
  std::atomic<int> n{0};
  Trace t = eng.run("noprof", [&](Ctx& ctx) {
    for (int i = 0; i < 8; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { n++; });
    ctx.taskwait();
  });
  EXPECT_EQ(n.load(), 8);
  EXPECT_GT(t.makespan(), 0u);
  EXPECT_TRUE(t.tasks.empty());
  EXPECT_TRUE(t.fragments.empty());
}

TEST(ThreadedEngineTest, WorkerStatsSatisfyCounterInvariants) {
  const int workers = 4;
  ThreadedEngine eng(ws_opts(workers));
  std::atomic<long> result{0};
  Trace t = eng.run("fib_stats", [&](Ctx& ctx) { fib_task(ctx, 14, &result); });
  EXPECT_TRUE(validate_trace(t).empty());
  ASSERT_EQ(t.worker_stats.size(), static_cast<size_t>(workers));
  u64 spawned = 0, executed = 0, inlined = 0, trace_bytes = 0;
  for (const WorkerStatsRec& s : t.worker_stats) {
    spawned += s.tasks_spawned;
    executed += s.tasks_executed;
    inlined += s.tasks_inlined;
    trace_bytes += s.trace_bytes;
    // A steal always dispatches a task on the stealing worker.
    EXPECT_LE(s.steals, s.tasks_executed);
    EXPECT_LE(s.tasks_inlined, s.tasks_spawned);
  }
  EXPECT_GT(trace_bytes, 0u);
  // Every spawned child executed exactly once (the root body is the
  // region's implicit task and is not dispatched through the scheduler).
  EXPECT_EQ(spawned, executed);
  EXPECT_EQ(executed, static_cast<u64>(t.tasks.size() - 1));
  // Stats are discoverable per worker, and the metadata names the substrate.
  ASSERT_NE(t.worker_stats_of(0), nullptr);
  EXPECT_TRUE(t.meta.profiled);
  EXPECT_FALSE(t.meta.clock_source.empty());
  EXPECT_GT(t.meta.trace_buffer_bytes, 0u);
  (void)inlined;
}

TEST(ThreadedEngineTest, ProfilingOffEmitsNoWorkerStats) {
  Options o = ws_opts(2);
  o.profile = false;
  ThreadedEngine eng(o);
  std::atomic<int> n{0};
  Trace t = eng.run("noprof_stats", [&](Ctx& ctx) {
    for (int i = 0; i < 8; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { n++; });
    ctx.taskwait();
  });
  EXPECT_EQ(n.load(), 8);
  EXPECT_TRUE(t.worker_stats.empty());
  EXPECT_FALSE(t.meta.profiled);
}

TEST(ThreadedEngineTest, SourceLocationsAreRecorded) {
  ThreadedEngine eng(ws_opts(1));
  Trace t = eng.run("src", [&](Ctx& ctx) {
    ctx.spawn(GG_SRC_NAMED("sparselu.c", 246, "bmod"), [](Ctx&) {});
    ctx.taskwait();
  });
  ASSERT_EQ(t.tasks.size(), 2u);
  bool found = false;
  for (const auto& task : t.tasks) {
    if (t.strings.get(task.src) == "sparselu.c:246(bmod)") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ThreadedEngineTest, FragmentsSplitAtForkAndJoin) {
  ThreadedEngine eng(ws_opts(1));
  Trace t = eng.run("frag_structure", [&](Ctx& ctx) {
    ctx.spawn(GG_SRC, [](Ctx&) {});
    ctx.spawn(GG_SRC, [](Ctx&) {});
    ctx.taskwait();
  });
  EXPECT_TRUE(validate_trace(t).empty());
  const auto frags = t.fragments_span(kRootTask);
  // fork, fork, join, end -> 4 fragments.
  ASSERT_EQ(frags.size(), 4u);
  EXPECT_EQ(frags[0].end_reason, FragmentEnd::Fork);
  EXPECT_EQ(frags[1].end_reason, FragmentEnd::Fork);
  EXPECT_EQ(frags[2].end_reason, FragmentEnd::Join);
  EXPECT_EQ(frags[3].end_reason, FragmentEnd::TaskEnd);
  // Fork refs point at the two children in creation order.
  std::vector<const TaskRec*> children;
  for (const TaskRec& r : t.tasks) {
    if (r.parent == kRootTask) children.push_back(&r);
  }
  std::sort(children.begin(), children.end(),
            [](const TaskRec* a, const TaskRec* b) {
              return a->child_index < b->child_index;
            });
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(frags[0].end_ref, children[0]->uid);
  EXPECT_EQ(frags[1].end_ref, children[1]->uid);
}

TEST(ThreadedEngineTest, OversubscriptionStress) {
  // 8 workers on however few physical cores: heavy preemption shakes out
  // ordering races in the deque/engine (run under ASan in build-asan).
  Options o = ws_opts(8);
  ThreadedEngine eng(o);
  std::atomic<long> sum{0};
  std::function<void(Ctx&, int)> rec = [&](Ctx& ctx, int d) {
    sum.fetch_add(1);
    if (d == 0) return;
    for (int i = 0; i < 3; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const Trace t = eng.run("stress", [&](Ctx& ctx) { rec(ctx, 6); });
  // Nodes in a full ternary tree of depth 6: (3^7 - 1) / 2 = 1093.
  EXPECT_EQ(sum.load(), 1093);
  EXPECT_TRUE(validate_trace(t).empty());
}

TEST(ThreadedEngineTest, ReuseEngineAcrossRuns) {
  ThreadedEngine eng(ws_opts(2));
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    const Trace t = eng.run("round", [&](Ctx& ctx) {
      for (int i = 0; i < 20; ++i) ctx.spawn(GG_SRC, [&](Ctx&) { n++; });
      ctx.taskwait();
    });
    EXPECT_EQ(n.load(), 20);
    EXPECT_TRUE(validate_trace(t).empty());
    EXPECT_EQ(t.tasks.size(), 21u);  // ids restart every run
  }
}

}  // namespace
}  // namespace gg::rts
