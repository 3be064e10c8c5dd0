#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <optional>
#include <string>
#include <tuple>

#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using front::Ctx;
using front::ForOpts;
using front::PagePlacement;

struct SimRun {
  Trace trace;
  GrainGraph graph;
  GrainTable grains;
};

SimRun run_sim(const sim::Program& p, int cores, bool memory = false,
            sim::SimPolicy pol = sim::SimPolicy::mir()) {
  sim::SimOptions o;
  o.num_cores = cores;
  o.policy = pol;
  o.memory_model = memory;
  Trace t = sim::simulate(p, o);
  GrainGraph g = GrainGraph::build(t);
  GrainTable gt = GrainTable::build(t);
  return SimRun{std::move(t), std::move(g), std::move(gt)};
}

MetricsResult metrics_of(const SimRun& r, const GrainTable* baseline = nullptr,
                         MetricOptions opts = {}) {
  return compute_metrics(r.trace, r.graph, r.grains, Topology::opteron48(),
                         opts, baseline);
}

TEST(MetricsTest, ParallelBenefitSeparatesBigAndTinyGrains) {
  const sim::Program p = sim::capture_program("mixed", [](Ctx& ctx) {
    ctx.spawn(GG_SRC_NAMED("m.c", 1, "big"),
              [](Ctx& c) { c.compute(50'000'000); });
    ctx.spawn(GG_SRC_NAMED("m.c", 2, "tiny"), [](Ctx& c) { c.compute(10); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 2);
  const MetricsResult m = metrics_of(r);
  const auto& grains = r.grains.grains();
  ASSERT_EQ(grains.size(), 2u);
  double big = 0, tiny = 0;
  for (size_t i = 0; i < grains.size(); ++i) {
    const auto& name = r.trace.strings.get(grains[i].src);
    if (name.find("big") != std::string::npos)
      big = m.per_grain[i].parallel_benefit;
    else
      tiny = m.per_grain[i].parallel_benefit;
  }
  EXPECT_GT(big, 1.0);   // worth parallelizing
  EXPECT_LT(tiny, 1.0);  // creation cost dwarfs the work
}

TEST(MetricsTest, LoadBalanceNearOneForUniformChunks) {
  sim::Capture cap;
  sim::Program p = cap.run("uniform", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Static;
    fo.chunk = 10;
    ctx.parallel_for(GG_SRC, 0, 80, fo, [](u64, Ctx& c) { c.compute(100000); });
  });
  const SimRun r = run_sim(p, 4);
  ASSERT_EQ(r.trace.loops.size(), 1u);
  const double lb = loop_load_balance(r.trace, r.trace.loops[0]);
  EXPECT_NEAR(lb, 0.5, 0.1);  // longest chunk is half of a 2-chunk chain
}

TEST(MetricsTest, LoadBalanceDetectsOneHugeChunk) {
  sim::Capture cap;
  sim::Program p = cap.run("skew", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Dynamic;
    fo.chunk = 1;
    ctx.parallel_for(GG_SRC, 0, 64, fo, [](u64 i, Ctx& c) {
      c.compute(i == 13 ? 50'000'000 : 50'000);
    });
  });
  const SimRun r = run_sim(p, 8);
  const double lb = loop_load_balance(r.trace, r.trace.loops[0]);
  EXPECT_GT(lb, 5.0);
}

TEST(MetricsTest, WorkDeviationOneWithoutMemoryEffects) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(100000);
    if (d == 0) return;
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 5); });
  const SimRun serial = run_sim(p, 1);
  const SimRun parallel = run_sim(p, 16);
  const MetricsResult m = metrics_of(parallel, &serial.grains);
  for (const auto& gm : m.per_grain) {
    ASSERT_FALSE(std::isnan(gm.work_deviation));
    EXPECT_NEAR(gm.work_deviation, 1.0, 1e-9);
  }
}

TEST(MetricsTest, WorkInflationAppearsWithSharedFirstTouchData) {
  sim::Capture cap;
  const auto region =
      cap.alloc_region("matrix", 256 << 20, PagePlacement::FirstTouch);
  sim::Program p = cap.run("inflate", [&](Ctx& ctx) {
    for (int i = 0; i < 64; ++i) {
      ctx.spawn(GG_SRC, [&, i](Ctx& c) {
        c.compute(200000);
        c.touch(region, static_cast<u64>(i) * (1 << 20), 1 << 20);
      });
    }
    ctx.taskwait();
  });
  const SimRun serial = run_sim(p, 1, /*memory=*/true);
  const SimRun parallel = run_sim(p, 48, /*memory=*/true);
  const MetricsResult m = metrics_of(parallel, &serial.grains);
  size_t inflated = 0;
  for (const auto& gm : m.per_grain) {
    if (!std::isnan(gm.work_deviation) && gm.work_deviation > 1.2) ++inflated;
  }
  EXPECT_GT(inflated, m.per_grain.size() / 2);
}

TEST(MetricsTest, InstantaneousParallelismSerialChainIsOne) {
  const sim::Program p = sim::capture_program("chain", [](Ctx& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(1'000'000); });
      ctx.taskwait();  // serializes every child
    }
  });
  const SimRun r = run_sim(p, 8);
  const MetricsResult m = metrics_of(r);
  for (const auto& gm : m.per_grain) {
    EXPECT_LE(gm.inst_parallelism_optimistic, 2);
    EXPECT_GE(gm.inst_parallelism_optimistic, 1);
  }
}

TEST(MetricsTest, InstantaneousParallelismHighForWideFanout) {
  const sim::Program p = sim::capture_program("fanout", [](Ctx& ctx) {
    for (int i = 0; i < 256; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(20'000'000); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 48);
  MetricOptions mo;
  mo.interval = IntervalPreset::MedianGrain;
  const MetricsResult m = metrics_of(r, nullptr, mo);
  u32 peak = 0;
  for (u32 v : m.parallelism_optimistic) peak = std::max(peak, v);
  EXPECT_GE(peak, 40u);
  // Most grains run while many others do.
  size_t high = 0;
  for (const auto& gm : m.per_grain)
    if (gm.inst_parallelism_optimistic >= 24) ++high;
  EXPECT_GT(high, m.per_grain.size() / 2);
}

TEST(MetricsTest, ConservativeNeverExceedsOptimistic) {
  const sim::Program p = sim::capture_program("mix", [](Ctx& ctx) {
    for (int i = 0; i < 32; ++i)
      ctx.spawn(GG_SRC, [i](Ctx& c) { c.compute(100'000 + 50'000 * (i % 7)); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 8);
  const MetricsResult m = metrics_of(r);
  ASSERT_EQ(m.parallelism_optimistic.size(), m.parallelism_conservative.size());
  for (size_t i = 0; i < m.parallelism_optimistic.size(); ++i)
    EXPECT_LE(m.parallelism_conservative[i], m.parallelism_optimistic[i]);
  for (const auto& gm : m.per_grain)
    EXPECT_LE(gm.inst_parallelism, gm.inst_parallelism_optimistic);
}

TEST(MetricsTest, ScatterZeroOnOneCore) {
  const sim::Program p = sim::capture_program("sib", [](Ctx& ctx) {
    for (int i = 0; i < 8; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(1000); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 1);
  const MetricsResult m = metrics_of(r);
  for (const auto& gm : m.per_grain) EXPECT_DOUBLE_EQ(gm.scatter, 0.0);
}

TEST(MetricsTest, ScatterGrowsWhenSiblingsSpreadAcrossSockets) {
  const sim::Program p = sim::capture_program("spread", [](Ctx& ctx) {
    for (int i = 0; i < 96; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(10'000'000); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 48);
  const MetricsResult m = metrics_of(r);
  // With 96 long tasks over 48 cores on 4 sockets, siblings land everywhere:
  // the median pairwise distance is off-socket.
  ASSERT_FALSE(m.per_grain.empty());
  EXPECT_GT(m.per_grain[0].scatter, 16.0);
}

TEST(MetricsTest, MemUtilFiniteOnlyWithStalls) {
  sim::Capture cap;
  const auto region =
      cap.alloc_region("buf", 64 << 20, PagePlacement::FirstTouch);
  sim::Program p = cap.run("mem", [&](Ctx& ctx) {
    ctx.spawn(GG_SRC_NAMED("m.c", 1, "pure"),
              [](Ctx& c) { c.compute(100000); });
    ctx.spawn(GG_SRC_NAMED("m.c", 2, "memory"), [&](Ctx& c) {
      c.compute(100000);
      c.touch(region, 0, 16 << 20);
    });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 2, /*memory=*/true);
  const MetricsResult m = metrics_of(r);
  const auto& grains = r.grains.grains();
  for (size_t i = 0; i < grains.size(); ++i) {
    const auto& name = r.trace.strings.get(grains[i].src);
    if (name.find("pure") != std::string::npos) {
      EXPECT_TRUE(std::isinf(m.per_grain[i].mem_util));
    } else {
      EXPECT_TRUE(std::isfinite(m.per_grain[i].mem_util));
      EXPECT_GT(m.per_grain[i].mem_util, 0.0);
    }
  }
}

TEST(MetricsTest, CriticalPathAtLeastLongestGrainAndAtMostMakespan) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(300000);
    if (d == 0) return;
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 6); });
  const SimRun r = run_sim(p, 8);
  const MetricsResult m = metrics_of(r);
  TimeNs longest = 0;
  for (const Grain& g : r.grains.grains())
    longest = std::max(longest, g.exec_time);
  EXPECT_GE(m.critical_path_time, longest);
  EXPECT_LE(m.critical_path_time, r.trace.makespan());
  size_t on_cp = 0;
  for (const auto& gm : m.per_grain)
    if (gm.on_critical_path) ++on_cp;
  EXPECT_GT(on_cp, 0u);
  EXPECT_LT(on_cp, m.per_grain.size());
}

TEST(MetricsTest, SerialChainIsEntirelyCritical) {
  const sim::Program p = sim::capture_program("chain", [](Ctx& ctx) {
    for (int i = 0; i < 6; ++i) {
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(1'000'000); });
      ctx.taskwait();
    }
  });
  const SimRun r = run_sim(p, 4);
  const MetricsResult m = metrics_of(r);
  for (const auto& gm : m.per_grain) EXPECT_TRUE(gm.on_critical_path);
}

TEST(MetricsTest, IntervalPresetsProduceSaneSlots) {
  const sim::Program p = sim::capture_program("fan", [](Ctx& ctx) {
    for (int i = 0; i < 20; ++i)
      ctx.spawn(GG_SRC, [i](Ctx& c) { c.compute(10'000 * (1 + i % 5)); });
    ctx.taskwait();
  });
  const SimRun r = run_sim(p, 4);
  for (auto preset : {IntervalPreset::MinGrain, IntervalPreset::MinGap,
                      IntervalPreset::MedianGrain}) {
    MetricOptions mo;
    mo.interval = preset;
    const MetricsResult m = metrics_of(r, nullptr, mo);
    EXPECT_GT(m.interval_used, 0u);
    EXPECT_LE(m.parallelism_optimistic.size(), kMaxIntervals + 1);
    EXPECT_FALSE(m.parallelism_optimistic.empty());
  }
}

TEST(MetricsTest, RegionLoadBalanceUniformVersusSkewed) {
  const sim::Program uniform = sim::capture_program("u", [](Ctx& ctx) {
    for (int i = 0; i < 32; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(1'000'000); });
    ctx.taskwait();
  });
  const sim::Program skewed = sim::capture_program("s", [](Ctx& ctx) {
    ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(64'000'000); });
    for (int i = 0; i < 31; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(1'000'000); });
    ctx.taskwait();
  });
  const SimRun ru = run_sim(uniform, 8);
  const SimRun rs = run_sim(skewed, 8);
  const double lb_u =
      region_load_balance(ru.grains, ru.trace.meta.num_cores);
  const double lb_s =
      region_load_balance(rs.grains, rs.trace.meta.num_cores);
  EXPECT_GT(lb_s, lb_u * 2);
}

// --- grain rows by position ---------------------------------------------------

/// The hash lookup positional rows replaced, rebuilt from the table: task
/// uid -> last row, and (loop, thread, seq) -> last row.
struct ReferenceRows {
  explicit ReferenceRows(const GrainTable& table) {
    for (size_t i = 0; i < table.size(); ++i) {
      const Grain& g = table.grains()[i];
      if (g.kind == GrainKind::Task) {
        task[g.task] = i;
      } else {
        chunk[{g.loop, g.thread, g.chunk_seq}] = i;
      }
    }
  }

  std::optional<size_t> row_of(const GraphNode& n) const {
    if (n.kind == NodeKind::Fragment && n.task != kRootTask) {
      const auto it = task.find(n.task);
      if (it != task.end()) return it->second;
    } else if (n.kind == NodeKind::Chunk) {
      const auto it = chunk.find({n.loop, n.thread, n.seq});
      if (it != chunk.end()) return it->second;
    }
    return std::nullopt;
  }

  std::map<TaskId, size_t> task;
  std::map<std::tuple<LoopId, u16, u32>, size_t> chunk;
};

/// Every node's positional row equals the reference's, and the critical-path
/// marks are the same at every thread count.
void expect_positional_rows(const Trace& t, const std::string& what) {
  const GrainGraph graph = GrainGraph::build(t);
  const GrainTable table = GrainTable::build(t);
  const ReferenceRows ref(table);
  size_t mapped = 0;
  for (const GraphNode& n : graph.nodes()) {
    const auto want = ref.row_of(n);
    EXPECT_EQ(table.row_of(t, n), want) << what;
    if (want.has_value()) ++mapped;
  }
  EXPECT_GT(mapped, 0u) << what;
  std::vector<bool> marks;
  for (const int threads : {1, 2, 4, 8}) {
    const GrainGraph g = GrainGraph::build(t, threads);
    const GrainTable gt = GrainTable::build(t, threads);
    MetricOptions mo;
    mo.threads = threads;
    const MetricsResult m =
        compute_metrics(t, g, gt, Topology::opteron48(), mo);
    std::vector<bool> got;
    for (const GrainMetrics& gm : m.per_grain) got.push_back(gm.on_critical_path);
    if (marks.empty()) {
      marks = got;
    } else {
      EXPECT_EQ(got, marks) << what << " at " << threads << " threads";
    }
  }
}

TEST(GrainRowsTest, GoldenCorpusRowsMatchTheHashLookup) {
  for (const char* name : {"tasks_mir4", "loops_gcc2", "exact_zero1"}) {
    const LoadResult lr = load_trace_file_ex(
        std::string(GG_GOLDEN_DIR) + "/" + name + ".ggtrace",
        {LoadMode::Strict, false});
    ASSERT_TRUE(lr.ok()) << name;
    expect_positional_rows(*lr.trace, name);
  }
}

TEST(GrainRowsTest, SynthTracesWithLoopsMatchTheHashLookup) {
  for (const u64 seed : {3u, 4u}) {
    SynthOptions so;
    so.seed = seed;
    so.grains = 6000;
    so.loop_fraction = 0.5;
    const Trace t = synth_trace(so);
    ASSERT_FALSE(t.chunks.empty());
    expect_positional_rows(t, "synth seed " + std::to_string(seed));
  }
}

TEST(GrainRowsTest, SalvagedCutsMatchTheHashLookup) {
  SynthOptions so;
  so.seed = 31;
  so.workers = 4;
  so.grains = 4000;
  const std::string bytes = spool::spool_trace_bytes(synth_trace(so), 512);
  for (size_t keep = 4096; keep < bytes.size(); keep += 64 * 1024) {
    spool::RecoverResult rr = spool::recover_spool_bytes(bytes.substr(0, keep));
    if (!rr.usable) continue;
    salvage_trace(rr.trace);
    ASSERT_TRUE(validate_trace(rr.trace).empty()) << keep;
    expect_positional_rows(rr.trace, "cut at " + std::to_string(keep));
  }
}

/// A synth trace with a task uid recorded twice and a chunk of no loop.
void make_duplicated_uid_and_orphan_chunk_trace(Trace& t) {
  SynthOptions so;
  so.seed = 9;
  so.grains = 3000;
  so.loop_fraction = 0.5;
  t = synth_trace(so);
  ASSERT_FALSE(t.loops.empty());
  // Loop uids move up by one, so that an orphan chunk of loop 0 sorts first
  // and shifts every other chunk's position.
  for (LoopRec& l : t.loops) ++l.uid;
  for (ChunkRec& c : t.chunks) ++c.loop;
  for (BookkeepRec& b : t.bookkeeps) ++b.loop;
  for (FragmentRec& f : t.fragments)
    if (f.end_reason == FragmentEnd::Loop) ++f.end_ref;
  ChunkRec orphan = t.chunks.front();
  orphan.loop = 0;
  t.chunks.push_back(orphan);
  // A second record of a task that forks and has fragments of its own.
  const FragmentRec* forker = nullptr;
  for (const FragmentRec& f : t.fragments)
    if (f.task != kRootTask && f.end_reason == FragmentEnd::Fork) forker = &f;
  ASSERT_NE(forker, nullptr);
  t.tasks.push_back(t.tasks[*t.task_index(forker->task)]);
  t.finalize();
}

TEST(GrainRowsTest, DuplicatedUidAndOrphanChunkMatchTheHashLookup) {
  Trace t;
  ASSERT_NO_FATAL_FAILURE(make_duplicated_uid_and_orphan_chunk_trace(t));
  expect_positional_rows(t, "duplicated uid and orphan chunk");
}

// --- grain paths ----------------------------------------------------------------

/// The path of every row as the table builder rendered it when each row
/// stored its path string: the chain walk from the task's record, and the
/// loop prefix plus iteration range of each chunk, in row order.
std::vector<std::string> reference_paths(const Trace& trace) {
  auto task_path = [&](const TaskRec& t0) {
    std::vector<u32> chain;  // child indices, deepest first
    const TaskRec* t = &t0;
    size_t steps = 0;
    while (t->uid != kRootTask && t->parent != kNoTask) {
      chain.push_back(t->child_index);
      const auto idx = trace.task_index(t->parent);
      EXPECT_TRUE(idx.has_value());
      if (!idx.has_value()) break;
      t = &trace.tasks[*idx];
      EXPECT_LE(++steps, trace.tasks.size());
    }
    std::string p = "0";
    for (size_t i = chain.size(); i-- > 0;) {
      p += '.';
      p += std::to_string(chain[i]);
    }
    return p;
  };
  std::vector<std::string> out;
  for (const TaskRec& t : trace.tasks)
    if (t.uid != kRootTask) out.push_back(task_path(t));
  for (const LoopRec& loop : trace.loops) {
    std::string prefix = "L";
    prefix += std::to_string(loop.starting_thread);
    prefix += '.';
    prefix += std::to_string(loop.seq);
    prefix += ':';
    for (const ChunkRec& c : trace.chunks_span(loop.uid)) {
      out.push_back(prefix + std::to_string(c.iter_begin) + "-" +
                    std::to_string(c.iter_end));
    }
  }
  return out;
}

/// Every row's rendered path equals the reference, and by_path finds the
/// row the reference's first-row-wins index finds.
void expect_reference_paths(const Trace& t, const std::string& what) {
  const std::vector<std::string> want = reference_paths(t);
  for (const int threads : {1, 4}) {
    const GrainTable table = GrainTable::build(t, threads);
    ASSERT_EQ(table.size(), want.size()) << what;
    std::map<std::string, size_t> first;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(table.path(i), want[i]) << what << " row " << i;
      first.emplace(want[i], i);
    }
    EXPECT_TRUE(table.paths() == want) << what << " at " << threads;
    for (const auto& [path, row] : first)
      EXPECT_EQ(table.by_path(path), &table.grains()[row]) << what << path;
    EXPECT_EQ(table.by_path("no such path"), nullptr) << what;
  }
}

TEST(GrainPathTest, GoldenCorpusPathsMatchTheOldBuilder) {
  for (const char* name : {"tasks_mir4", "loops_gcc2", "exact_zero1"}) {
    const LoadResult lr = load_trace_file_ex(
        std::string(GG_GOLDEN_DIR) + "/" + name + ".ggtrace",
        {LoadMode::Strict, false});
    ASSERT_TRUE(lr.ok()) << name;
    expect_reference_paths(*lr.trace, name);
  }
}

TEST(GrainPathTest, SynthTracesWithLoopsMatchTheOldBuilder) {
  for (const u64 seed : {3u, 4u}) {
    SynthOptions so;
    so.seed = seed;
    so.grains = 6000;
    so.loop_fraction = 0.5;
    const Trace t = synth_trace(so);
    ASSERT_FALSE(t.chunks.empty());
    expect_reference_paths(t, "synth seed " + std::to_string(seed));
  }
}

TEST(GrainPathTest, DuplicatedUidAndOrphanChunkMatchTheOldBuilder) {
  Trace t;
  ASSERT_NO_FATAL_FAILURE(make_duplicated_uid_and_orphan_chunk_trace(t));
  // The duplicated task's two rows render one path; by_path finds the first.
  const std::vector<std::string> want = reference_paths(t);
  EXPECT_LT(std::set<std::string>(want.begin(), want.end()).size(),
            want.size());
  expect_reference_paths(t, "duplicated uid and orphan chunk");
}

}  // namespace
}  // namespace gg
