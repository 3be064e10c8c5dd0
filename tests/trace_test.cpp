#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/prng.hpp"
#include "trace/recorder.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

/// Strict and unvalidated: the codec tests compare records, not structure.
constexpr LoadOptions kStrictRaw{LoadMode::Strict, false};

// Builds a small, fully consistent trace: root spawns two tasks, waits, and
// runs one 2-thread static loop with two chunks.
Trace make_sample_trace() {
  TraceRecorder rec(2);
  auto w0 = rec.writer(0);
  auto w1 = rec.writer(1);

  const StrId src_root = rec.intern("<root>");
  const StrId src_task = rec.intern_source("demo.c", 10, "work");
  const StrId src_loop = rec.intern_source("demo.c", 50, "loop");

  TaskRec root;
  root.uid = kRootTask;
  root.parent = kNoTask;
  root.src = src_root;
  w0.task(root);

  // Root fragments: [0,10) fork t1, [12,20) fork t2, [22,30) join, [40,41) loop,
  // [100,101) end.
  auto frag = [&](TaskId task, u32 seq, TimeNs s, TimeNs e, FragmentEnd r,
                  u64 ref) {
    FragmentRec f;
    f.task = task;
    f.seq = seq;
    f.start = s;
    f.end = e;
    f.end_reason = r;
    f.end_ref = ref;
    f.counters.compute = e - s;
    return f;
  };
  w0.fragment(frag(kRootTask, 0, 0, 10, FragmentEnd::Fork, 1));
  w0.fragment(frag(kRootTask, 1, 12, 20, FragmentEnd::Fork, 2));
  w0.fragment(frag(kRootTask, 2, 22, 30, FragmentEnd::Join, 0));
  w0.fragment(frag(kRootTask, 3, 40, 41, FragmentEnd::Loop, 1));
  w0.fragment(frag(kRootTask, 4, 100, 101, FragmentEnd::TaskEnd, 0));

  TaskRec t1;
  t1.uid = 1;
  t1.parent = kRootTask;
  t1.child_index = 0;
  t1.src = src_task;
  t1.create_time = 10;
  t1.creation_cost = 2;
  w0.task(t1);
  TaskRec t2 = t1;
  t2.uid = 2;
  t2.child_index = 1;
  t2.create_time = 20;
  w0.task(t2);

  w1.fragment(frag(1, 0, 11, 25, FragmentEnd::TaskEnd, 0));
  w0.fragment(frag(2, 0, 21, 28, FragmentEnd::TaskEnd, 0));

  JoinRec j;
  j.task = kRootTask;
  j.seq = 0;
  j.start = 30;
  j.end = 39;
  w0.join(j);

  LoopRec loop;
  loop.uid = 1;
  loop.enclosing_task = kRootTask;
  loop.src = src_loop;
  loop.sched = ScheduleKind::Static;
  loop.iter_begin = 0;
  loop.iter_end = 8;
  loop.num_threads = 2;
  loop.starting_thread = 0;
  loop.start = 41;
  loop.end = 99;
  w0.loop(loop);

  auto chunk = [&](u16 thread, u32 seq, u64 lo, u64 hi, TimeNs s, TimeNs e) {
    ChunkRec c;
    c.loop = 1;
    c.thread = thread;
    c.core = thread;
    c.seq_on_thread = seq;
    c.iter_begin = lo;
    c.iter_end = hi;
    c.start = s;
    c.end = e;
    c.counters.compute = e - s;
    return c;
  };
  auto book = [&](u16 thread, u32 seq, TimeNs s, TimeNs e, bool got) {
    BookkeepRec b;
    b.loop = 1;
    b.thread = thread;
    b.core = thread;
    b.seq_on_thread = seq;
    b.start = s;
    b.end = e;
    b.got_chunk = got;
    return b;
  };
  w0.bookkeep(book(0, 0, 42, 43, true));
  w0.chunk(chunk(0, 0, 0, 4, 43, 60));
  w0.bookkeep(book(0, 1, 60, 61, false));
  w1.bookkeep(book(1, 0, 42, 44, true));
  w1.chunk(chunk(1, 0, 4, 8, 44, 70));
  w1.bookkeep(book(1, 1, 70, 71, false));

  auto stats = [&](u16 worker) {
    WorkerStatsRec s;
    s.worker = worker;
    s.tasks_spawned = 2 + worker;
    s.tasks_executed = 1 + worker;
    s.tasks_inlined = 1;
    s.steals = worker;  // <= tasks_executed
    s.steal_failures = 3;
    s.cas_failures = 1;
    s.deque_pushes = 2;
    s.deque_pops = 1;
    s.deque_resizes = worker;
    s.taskwait_helps = 1;
    s.idle_ns = 7 + worker;
    s.trace_bytes = 1000 + worker;
    return s;
  };
  w0.stats(stats(0));
  w1.stats(stats(1));

  TraceMeta meta;
  meta.program = "sample";
  meta.runtime = "handmade";
  meta.topology = "generic4";
  meta.num_workers = 2;
  meta.num_cores = 2;
  meta.ghz = 1.0;
  meta.region_start = 0;
  meta.region_end = 101;
  meta.notes = {"note one", "note two"};
  meta.profiled = true;
  meta.clock_source = "steady_clock";
  return rec.finish(meta);
}

TEST(TraceTest, SampleTraceIsValid) {
  const Trace t = make_sample_trace();
  const auto errs = validate_trace(t);
  EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
}

TEST(TraceTest, FinalizeSortsAndIndexes) {
  const Trace t = make_sample_trace();
  ASSERT_TRUE(t.finalized());
  ASSERT_TRUE(t.task_index(kRootTask).has_value());
  ASSERT_TRUE(t.task_index(2).has_value());
  EXPECT_FALSE(t.task_index(99).has_value());
  const auto frags = t.fragments_span(kRootTask);
  ASSERT_EQ(frags.size(), 5u);
  for (u32 i = 0; i < frags.size(); ++i) EXPECT_EQ(frags[i].seq, i);
  EXPECT_EQ(t.fragments_span(1).size(), 1u);
  EXPECT_EQ(t.joins_span(kRootTask).size(), 1u);
  EXPECT_EQ(t.chunks_span(1).size(), 2u);
  EXPECT_EQ(t.bookkeeps_span(1).size(), 4u);
}

TEST(TraceTest, GrainCountExcludesRootIncludesChunks) {
  const Trace t = make_sample_trace();
  // 2 tasks + 2 chunks.
  EXPECT_EQ(t.grain_count(), 4u);
}

TEST(TraceTest, MakespanFromMeta) {
  const Trace t = make_sample_trace();
  EXPECT_EQ(t.makespan(), 101u);
}

TEST(TraceTest, InternSrcFormat) {
  StringTable st;
  const StrId id = intern_src(st, "sparselu.c", 246, "bmod");
  EXPECT_EQ(st.get(id), "sparselu.c:246(bmod)");
}

TEST(TraceSerializeTest, RoundTripPreservesEverything) {
  const Trace t = make_sample_trace();
  std::ostringstream os;
  save_trace(t, os);
  std::istringstream is(os.str());
  const LoadResult lr = load_trace_ex(is, kStrictRaw);
  ASSERT_TRUE(lr.ok()) << lr.describe();
  const std::optional<Trace>& loaded = lr.trace;

  EXPECT_EQ(loaded->meta.program, t.meta.program);
  EXPECT_EQ(loaded->meta.runtime, t.meta.runtime);
  EXPECT_EQ(loaded->meta.num_workers, t.meta.num_workers);
  EXPECT_EQ(loaded->meta.region_end, t.meta.region_end);
  EXPECT_EQ(loaded->meta.notes, t.meta.notes);
  ASSERT_EQ(loaded->tasks.size(), t.tasks.size());
  ASSERT_EQ(loaded->fragments.size(), t.fragments.size());
  ASSERT_EQ(loaded->joins.size(), t.joins.size());
  ASSERT_EQ(loaded->loops.size(), t.loops.size());
  ASSERT_EQ(loaded->chunks.size(), t.chunks.size());
  ASSERT_EQ(loaded->bookkeeps.size(), t.bookkeeps.size());
  for (size_t i = 0; i < t.tasks.size(); ++i) {
    EXPECT_EQ(loaded->tasks[i].uid, t.tasks[i].uid);
    EXPECT_EQ(loaded->tasks[i].parent, t.tasks[i].parent);
    EXPECT_EQ(loaded->tasks[i].src, t.tasks[i].src);
  }
  for (size_t i = 0; i < t.fragments.size(); ++i) {
    EXPECT_EQ(loaded->fragments[i].start, t.fragments[i].start);
    EXPECT_EQ(loaded->fragments[i].end_reason, t.fragments[i].end_reason);
    EXPECT_EQ(loaded->fragments[i].counters.compute,
              t.fragments[i].counters.compute);
  }
  // String table identical.
  ASSERT_EQ(loaded->strings.size(), t.strings.size());
  for (StrId i = 0; i < t.strings.size(); ++i)
    EXPECT_EQ(loaded->strings.get(i), t.strings.get(i));
  // Worker stats and the v3 meta fields.
  EXPECT_EQ(loaded->meta.profiled, t.meta.profiled);
  EXPECT_EQ(loaded->meta.clock_source, t.meta.clock_source);
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, t.meta.trace_buffer_bytes);
  ASSERT_EQ(loaded->worker_stats.size(), t.worker_stats.size());
  for (size_t i = 0; i < t.worker_stats.size(); ++i) {
    const WorkerStatsRec& a = loaded->worker_stats[i];
    const WorkerStatsRec& b = t.worker_stats[i];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.tasks_spawned, b.tasks_spawned);
    EXPECT_EQ(a.tasks_executed, b.tasks_executed);
    EXPECT_EQ(a.tasks_inlined, b.tasks_inlined);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.steal_failures, b.steal_failures);
    EXPECT_EQ(a.cas_failures, b.cas_failures);
    EXPECT_EQ(a.deque_pushes, b.deque_pushes);
    EXPECT_EQ(a.deque_pops, b.deque_pops);
    EXPECT_EQ(a.deque_resizes, b.deque_resizes);
    EXPECT_EQ(a.taskwait_helps, b.taskwait_helps);
    EXPECT_EQ(a.idle_ns, b.idle_ns);
    EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  }
  // And the loaded trace still validates.
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceSerializeTest, BinaryRoundTripPreservesWorkerStats) {
  const Trace t = make_sample_trace();
  ASSERT_EQ(t.worker_stats.size(), 2u);
  std::ostringstream os(std::ios::binary);
  save_trace_binary(t, os);
  std::istringstream is(os.str(), std::ios::binary);
  const LoadResult lr = load_trace_binary_ex(is, kStrictRaw);
  ASSERT_TRUE(lr.ok()) << lr.describe();
  const std::optional<Trace>& loaded = lr.trace;
  EXPECT_EQ(loaded->meta.profiled, t.meta.profiled);
  EXPECT_EQ(loaded->meta.clock_source, t.meta.clock_source);
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, t.meta.trace_buffer_bytes);
  ASSERT_EQ(loaded->worker_stats.size(), t.worker_stats.size());
  for (size_t i = 0; i < t.worker_stats.size(); ++i) {
    const WorkerStatsRec& a = loaded->worker_stats[i];
    const WorkerStatsRec& b = t.worker_stats[i];
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.tasks_spawned, b.tasks_spawned);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.cas_failures, b.cas_failures);
    EXPECT_EQ(a.deque_resizes, b.deque_resizes);
    EXPECT_EQ(a.idle_ns, b.idle_ns);
    EXPECT_EQ(a.trace_bytes, b.trace_bytes);
  }
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceSerializeTest, PreV3TextTraceStillLoads) {
  // A v2 writer never emitted metax/wstat lines; strip them and lower the
  // version header to simulate an old on-disk trace.
  const Trace t = make_sample_trace();
  std::ostringstream os;
  save_trace(t, os);
  std::istringstream lines(os.str());
  std::string line, old;
  while (std::getline(lines, line)) {
    if (line.rfind("ggtrace ", 0) == 0) {
      old += "ggtrace 2\n";
    } else if (line.rfind("metax", 0) == 0 || line.rfind("wstat", 0) == 0) {
      continue;
    } else {
      old += line + "\n";
    }
  }
  std::istringstream is(old);
  const LoadResult lr = load_trace_ex(is, kStrictRaw);
  ASSERT_TRUE(lr.ok()) << lr.describe();
  const std::optional<Trace>& loaded = lr.trace;
  // Pre-v3 defaults: profiling on, no stats, no buffer accounting.
  EXPECT_TRUE(loaded->meta.profiled);
  EXPECT_TRUE(loaded->meta.clock_source.empty());
  EXPECT_EQ(loaded->meta.trace_buffer_bytes, 0u);
  EXPECT_TRUE(loaded->worker_stats.empty());
  EXPECT_EQ(loaded->tasks.size(), t.tasks.size());
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

TEST(TraceSerializeTest, PreV3BinaryTracesStillLoad) {
  // GGTB2 is GGTB3 without the trailer (u32 profiled, u64 buffer bytes,
  // length-prefixed clock source) and the worker-stats section: with no
  // worker stats and an empty clock source, the last 28 bytes. GGTB1 also
  // lacks the dependence section: with no dependences, 8 bytes more.
  Trace t = make_sample_trace();
  t.worker_stats.clear();
  t.meta.clock_source.clear();
  t.depends.push_back(DependRec{1, 2});
  auto ggbin = [](const Trace& tr) {
    std::ostringstream os(std::ios::binary);
    save_trace_binary(tr, os);
    return os.str();
  };
  auto load = [](const std::string& bytes) {
    std::istringstream is(bytes, std::ios::binary);
    LoadResult lr = load_trace_binary_ex(is, kStrictRaw);
    EXPECT_TRUE(lr.ok()) << lr.describe();
    return lr.ok() ? std::move(lr.trace) : std::nullopt;
  };

  std::string v2 = ggbin(t);
  v2.resize(v2.size() - 28);
  v2.replace(0, 5, "GGTB2");
  const auto from_v2 = load(v2);
  ASSERT_TRUE(from_v2.has_value());
  EXPECT_EQ(from_v2->depends.size(), t.depends.size());
  EXPECT_EQ(from_v2->fragments.size(), t.fragments.size());
  EXPECT_TRUE(from_v2->meta.profiled);
  EXPECT_TRUE(from_v2->worker_stats.empty());
  EXPECT_TRUE(validate_trace(*from_v2).empty());

  t.depends.clear();
  std::string v1 = ggbin(t);
  v1.resize(v1.size() - 36);
  v1.replace(0, 5, "GGTB1");
  const auto from_v1 = load(v1);
  ASSERT_TRUE(from_v1.has_value());
  EXPECT_TRUE(from_v1->depends.empty());
  EXPECT_EQ(from_v1->bookkeeps.size(), t.bookkeeps.size());
  EXPECT_TRUE(validate_trace(*from_v1).empty());
}

TEST(TraceSerializeTest, PreV2TextTraceStillLoads) {
  Trace t = make_sample_trace();
  t.depends.clear();
  std::ostringstream os;
  save_trace(t, os);
  std::istringstream lines(os.str());
  std::string line, old;
  while (std::getline(lines, line)) {
    if (line.rfind("ggtrace ", 0) == 0) {
      old += "ggtrace 1\n";
    } else if (line.rfind("metax", 0) != 0 && line.rfind("wstat", 0) != 0) {
      old += line + "\n";
    }
  }
  std::istringstream is(old);
  const LoadResult lr = load_trace_ex(is, kStrictRaw);
  ASSERT_TRUE(lr.ok()) << lr.describe();
  const std::optional<Trace>& loaded = lr.trace;
  EXPECT_EQ(loaded->tasks.size(), t.tasks.size());
  EXPECT_TRUE(validate_trace(*loaded).empty());
}

// The clock frequency survives every codec: text prints the shortest digits
// that read back exactly, GGTB3 rounds to its micro-GHz fixed point, and a
// spool stores the double's bits.
TEST(TraceSerializeTest, GhzRoundTripsThroughEveryCodec) {
  struct Case {
    double ghz;
    double from_ggbin;  ///< nearest micro-GHz
  };
  for (const Case c :
       {Case{4.1, 4.1}, Case{2.01, 2.01}, Case{8.2, 8.2},
        Case{2.0123456, 2.012346}}) {
    Trace t = make_sample_trace();
    t.meta.ghz = c.ghz;

    std::ostringstream text;
    save_trace(t, text);
    std::istringstream tis(text.str());
    const LoadResult from_text = load_trace_ex(tis, kStrictRaw);
    ASSERT_TRUE(from_text.ok());
    EXPECT_EQ(from_text.trace->meta.ghz, c.ghz) << "text";

    std::ostringstream bin(std::ios::binary);
    save_trace_binary(t, bin);
    std::istringstream bis(bin.str(), std::ios::binary);
    const LoadResult from_bin = load_trace_binary_ex(bis, kStrictRaw);
    ASSERT_TRUE(from_bin.ok());
    EXPECT_EQ(from_bin.trace->meta.ghz, c.from_ggbin) << "ggbin";

    const spool::RecoverResult rr =
        spool::recover_spool_bytes(spool::spool_trace_bytes(t, 4096));
    ASSERT_TRUE(rr.usable) << rr.report.summary();
    EXPECT_EQ(rr.trace.meta.ghz, c.ghz) << "spool";
  }
}

TEST(TraceTest, WorkerStatsLookup) {
  const Trace t = make_sample_trace();
  ASSERT_NE(t.worker_stats_of(1), nullptr);
  EXPECT_EQ(t.worker_stats_of(1)->worker, 1);
  EXPECT_EQ(t.worker_stats_of(7), nullptr);
}

TEST(TraceValidateTest, DetectsBogusWorkerStats) {
  Trace t = make_sample_trace();
  WorkerStatsRec s;
  s.worker = 9;  // >= num_workers
  s.steals = 5;
  s.tasks_executed = 1;  // steals > executed
  t.worker_stats.push_back(s);
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceSerializeTest, RejectsGarbage) {
  std::istringstream is("not a trace\n");
  const LoadResult lr = load_trace_ex(is, kStrictRaw);
  EXPECT_FALSE(lr.ok());
  ASSERT_NE(lr.first_error(), nullptr);
  EXPECT_FALSE(lr.first_error()->message.empty());
}

TEST(TraceSerializeTest, RejectsBadRecord) {
  std::istringstream is("ggtrace 1\ntask nonsense\n");
  EXPECT_FALSE(load_trace_ex(is, kStrictRaw).ok());
}

TEST(TraceSerializeTest, EscapedStringsSurvive) {
  TraceRecorder rec(1);
  rec.intern("has space and %percent%");
  TraceMeta meta;
  meta.program = "white space program";
  meta.region_end = 1;
  TaskRec root;
  root.uid = kRootTask;
  root.parent = kNoTask;
  rec.writer(0).task(root);
  FragmentRec f;
  f.task = kRootTask;
  f.end = 1;
  rec.writer(0).fragment(f);
  const Trace t = rec.finish(meta);

  std::ostringstream os;
  save_trace(t, os);
  std::istringstream is(os.str());
  const LoadResult lr = load_trace_ex(is, kStrictRaw);
  ASSERT_TRUE(lr.ok());
  const std::optional<Trace>& loaded = lr.trace;
  EXPECT_EQ(loaded->meta.program, "white space program");
  EXPECT_NE(loaded->strings.find("has space and %percent%"), 0u);
}

TEST(TraceValidateTest, DetectsMissingParent) {
  Trace t = make_sample_trace();
  TaskRec orphan;
  orphan.uid = 77;
  orphan.parent = 55;  // does not exist
  t.tasks.push_back(orphan);
  FragmentRec f;
  f.task = 77;
  f.end = 1;
  t.fragments.push_back(f);
  t.finalize();
  const auto errs = validate_trace(t);
  EXPECT_FALSE(errs.empty());
}

TEST(TraceValidateTest, DetectsFragmentGap) {
  Trace t = make_sample_trace();
  // Remove fragment seq 1 of root.
  std::erase_if(t.fragments, [](const FragmentRec& f) {
    return f.task == kRootTask && f.seq == 1;
  });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsChunkCoverageHole) {
  Trace t = make_sample_trace();
  std::erase_if(t.chunks, [](const ChunkRec& c) { return c.thread == 1; });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsTaskWithoutFragments) {
  Trace t = make_sample_trace();
  std::erase_if(t.fragments, [](const FragmentRec& f) { return f.task == 2; });
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceValidateTest, DetectsOutOfBoundsTimes) {
  Trace t = make_sample_trace();
  t.meta.region_end = 50;  // several records end later
  t.finalize();
  EXPECT_FALSE(validate_trace(t).empty());
}

TEST(TraceRecorderTest, ParallelWritersMerge) {
  TraceRecorder rec(4);
  for (int w = 0; w < 4; ++w) {
    auto writer = rec.writer(w);
    TaskRec t;
    t.uid = w == 0 ? kRootTask : static_cast<TaskId>(w);
    t.parent = w == 0 ? kNoTask : kRootTask;
    t.child_index = w == 0 ? 0 : static_cast<u32>(w - 1);
    writer.task(t);
  }
  TraceMeta meta;
  meta.num_workers = 4;
  const Trace t = rec.finish(meta);
  EXPECT_EQ(t.tasks.size(), 4u);
  // Sorted by uid after finalize.
  for (size_t i = 1; i < t.tasks.size(); ++i)
    EXPECT_LT(t.tasks[i - 1].uid, t.tasks[i].uid);
}

// --- finalize on unsorted input at scale -----------------------------------

// Records per vector before the planted duplicates: above 3 x 4096
// (kParForMinItems), so every vector takes the parallel path, in several
// blocks at 8 threads.
constexpr size_t kScaleRecords = 3 * 4096 + 517;

/// Fisher-Yates with the repository's PRNG: the same input on every
/// platform.
template <class Rec>
void seeded_shuffle(std::vector<Rec>& v, Xoshiro256& rng) {
  for (size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.bounded(i)]);
}

/// Appends a copy of every 16th record with `tweak` applied: duplicate
/// keys whose other fields differ, as damaged traces carry.
template <class Rec, class Tweak>
void plant_duplicates(std::vector<Rec>& v, Tweak tweak) {
  const size_t n = v.size();
  for (size_t i = 0; i < n; i += 16) {
    Rec r = v[i];
    tweak(r);
    v.push_back(r);
  }
}

/// Every keyed vector holds duplicate keys and is shuffled, except two:
/// `loops` is already in key order, and `worker_stats` is two sorted runs
/// whose seam sits on a block boundary at 2, 4 and 8 threads, so only the
/// order check across blocks sees it. Keys span several radix digits, some
/// near the top of their range (kNoTask parents, 2^40 uids, full-width
/// thread and seq fields, random 64-bit preds).
Trace unsorted_trace_at_scale(u64 seed) {
  Xoshiro256 rng(seed);
  auto wide = [&](u64 bound) {
    return rng.bounded(8) == 0 ? (u64{1} << 40) + rng.bounded(bound)
                               : rng.bounded(bound);
  };
  Trace t;
  for (size_t i = 0; i < kScaleRecords; ++i) {
    TaskRec task;
    task.uid = wide(20000);
    task.parent = rng.bounded(64) == 0 ? kNoTask : rng.bounded(5000);
    task.child_index = static_cast<u32>(rng.bounded(3000));
    task.create_time = i;
    t.tasks.push_back(task);
    FragmentRec f;
    f.task = wide(8000);
    f.seq = static_cast<u32>(rng.bounded(4000));
    f.start = i;
    t.fragments.push_back(f);
    JoinRec j;
    j.task = rng.bounded(8000);
    j.seq = static_cast<u32>(rng.bounded(70000));
    j.start = i;
    t.joins.push_back(j);
    LoopRec l;
    l.uid = rng.bounded(9000);
    l.start = i;
    t.loops.push_back(l);
    ChunkRec c;
    c.loop = rng.bounded(3000);
    c.thread = static_cast<u16>(rng.next());
    c.seq_on_thread = static_cast<u32>(rng.next());
    c.start = i;
    t.chunks.push_back(c);
    DependRec d;
    d.succ = rng.bounded(6000);
    d.pred = rng.next();
    t.depends.push_back(d);
    BookkeepRec b;
    b.loop = rng.bounded(3000);
    b.thread = static_cast<u16>(rng.bounded(64));
    b.seq_on_thread = static_cast<u32>(rng.bounded(500));
    b.start = i;
    t.bookkeeps.push_back(b);
    WorkerStatsRec w;
    w.worker = static_cast<u16>(rng.next());
    w.steals = i;
    t.worker_stats.push_back(w);
  }
  constexpr u64 kLater = 1'000'000;
  plant_duplicates(t.tasks, [](TaskRec& r) { r.create_time += kLater; });
  plant_duplicates(t.fragments, [](FragmentRec& r) { r.start += kLater; });
  plant_duplicates(t.joins, [](JoinRec& r) { r.start += kLater; });
  plant_duplicates(t.loops, [](LoopRec& r) { r.start += kLater; });
  plant_duplicates(t.chunks, [](ChunkRec& r) { r.start += kLater; });
  // A DependRec is all key: its duplicates are whole-record copies.
  plant_duplicates(t.depends, [](DependRec&) {});
  plant_duplicates(t.bookkeeps, [](BookkeepRec& r) { r.start += kLater; });
  plant_duplicates(t.worker_stats,
                   [](WorkerStatsRec& r) { r.steals += kLater; });
  seeded_shuffle(t.tasks, rng);
  seeded_shuffle(t.fragments, rng);
  seeded_shuffle(t.joins, rng);
  seeded_shuffle(t.chunks, rng);
  seeded_shuffle(t.depends, rng);
  seeded_shuffle(t.bookkeeps, rng);
  std::stable_sort(t.loops.begin(), t.loops.end(),
                   [](const LoopRec& a, const LoopRec& b) {
                     return a.uid < b.uid;
                   });
  // Block b of n items starts at n * b / t: the seam lands on n / 2.
  std::stable_sort(t.worker_stats.begin(), t.worker_stats.end(),
                   [](const WorkerStatsRec& a, const WorkerStatsRec& b) {
                     return a.worker < b.worker;
                   });
  const size_t n = t.worker_stats.size();
  std::rotate(t.worker_stats.begin(),
              t.worker_stats.begin() + static_cast<ptrdiff_t>(n - n / 2),
              t.worker_stats.end());
  return t;
}

/// The reference: each vector std::stable_sort-ed by the comparators
/// finalize used before its key sort.
Trace stable_sorted_reference(Trace t) {
  auto sort = [](auto& v, auto less) {
    std::stable_sort(v.begin(), v.end(), less);
  };
  sort(t.tasks, [](const TaskRec& a, const TaskRec& b) {
    return a.uid < b.uid;
  });
  sort(t.fragments, [](const FragmentRec& a, const FragmentRec& b) {
    return a.task != b.task ? a.task < b.task : a.seq < b.seq;
  });
  sort(t.joins, [](const JoinRec& a, const JoinRec& b) {
    return a.task != b.task ? a.task < b.task : a.seq < b.seq;
  });
  sort(t.loops, [](const LoopRec& a, const LoopRec& b) {
    return a.uid < b.uid;
  });
  sort(t.chunks, [](const ChunkRec& a, const ChunkRec& b) {
    if (a.loop != b.loop) return a.loop < b.loop;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq_on_thread < b.seq_on_thread;
  });
  sort(t.depends, [](const DependRec& a, const DependRec& b) {
    return a.succ != b.succ ? a.succ < b.succ : a.pred < b.pred;
  });
  sort(t.bookkeeps, [](const BookkeepRec& a, const BookkeepRec& b) {
    if (a.loop != b.loop) return a.loop < b.loop;
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.seq_on_thread < b.seq_on_thread;
  });
  sort(t.worker_stats, [](const WorkerStatsRec& a, const WorkerStatsRec& b) {
    return a.worker < b.worker;
  });
  return t;
}

TEST(TraceTest, FinalizeMatchesStableSortAtScale) {
  const Trace input = unsorted_trace_at_scale(17);
  const Trace ref = stable_sorted_reference(input);
  ASSERT_TRUE(input.loops == ref.loops) << "loops must arrive sorted";
  ASSERT_FALSE(input.fragments == ref.fragments);

  // Present uids, their neighbours (mostly absent), and the extremes.
  std::vector<u64> probes = {0, 1, kNoTask, kNoTask - 1, u64{1} << 40};
  for (const TaskRec& r : ref.tasks) {
    probes.push_back(r.uid);
    probes.push_back(r.uid + 1);
    probes.push_back(r.parent);
  }
  for (const LoopRec& l : ref.loops) probes.push_back(l.uid + 1);

  for (const int threads : {1, 2, 4, 8}) {
    Trace t = input;
    t.finalize(threads);
    ASSERT_TRUE(t.finalized());
    EXPECT_TRUE(t.tasks == ref.tasks) << "tasks, threads " << threads;
    EXPECT_TRUE(t.fragments == ref.fragments)
        << "fragments, threads " << threads;
    EXPECT_TRUE(t.joins == ref.joins) << "joins, threads " << threads;
    EXPECT_TRUE(t.loops == ref.loops) << "loops, threads " << threads;
    EXPECT_TRUE(t.chunks == ref.chunks) << "chunks, threads " << threads;
    EXPECT_TRUE(t.depends == ref.depends) << "depends, threads " << threads;
    EXPECT_TRUE(t.bookkeeps == ref.bookkeeps)
        << "bookkeeps, threads " << threads;
    EXPECT_TRUE(t.worker_stats == ref.worker_stats)
        << "worker_stats, threads " << threads;

    size_t mismatches = 0;
    for (const u64 uid : probes) {
      // Positions are compared as size_t, SIZE_MAX for "absent".
      const auto task_at = std::lower_bound(
          ref.tasks.begin(), ref.tasks.end(), uid,
          [](const TaskRec& r, u64 v) { return r.uid < v; });
      const size_t want_task =
          task_at != ref.tasks.end() && task_at->uid == uid
              ? static_cast<size_t>(task_at - ref.tasks.begin())
              : SIZE_MAX;
      const auto loop_at = std::lower_bound(
          ref.loops.begin(), ref.loops.end(), uid,
          [](const LoopRec& l, u64 v) { return l.uid < v; });
      const size_t want_loop =
          loop_at != ref.loops.end() && loop_at->uid == uid
              ? static_cast<size_t>(loop_at - ref.loops.begin())
              : SIZE_MAX;
      if (t.task_index(uid).value_or(SIZE_MAX) != want_task ||
          t.loop_index(uid).value_or(SIZE_MAX) != want_loop) {
        ++mismatches;
        ADD_FAILURE() << "lookups of uid " << uid << " differ at threads "
                      << threads;
        if (mismatches >= 5) break;
      }
    }
  }
}

}  // namespace
}  // namespace gg
