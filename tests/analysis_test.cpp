#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/par_for.hpp"
#include "common/prng.hpp"

#include "analysis/binpack.hpp"
#include "analysis/compare.hpp"
#include "analysis/problems.hpp"
#include "analysis/report.hpp"
#include "analysis/source_profile.hpp"
#include "analysis/timeline.hpp"
#include "export/grain_csv.hpp"
#include "export/json_summary.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"
#include "trace/salvage.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using front::Ctx;
using front::ForOpts;

struct SimRun {
  Trace trace;
  Analysis analysis;
};

SimRun analyze_sim(const sim::Program& p, int cores, bool memory = false) {
  sim::SimOptions o;
  o.num_cores = cores;
  o.memory_model = memory;
  Trace t = sim::simulate(p, o);
  Analysis a = analyze(t, Topology::opteron48());
  return SimRun{std::move(t), std::move(a)};
}

// ---------------------------------------------------------------------------
// Problem highlighting

TEST(ProblemsTest, DefaultsMatchPaper) {
  const ProblemThresholds t =
      ProblemThresholds::defaults(48, Topology::opteron48());
  EXPECT_DOUBLE_EQ(t.parallel_benefit_min, 1.0);
  EXPECT_DOUBLE_EQ(t.work_deviation_max, 2.0);
  EXPECT_DOUBLE_EQ(t.mem_util_min, 2.0);
  EXPECT_EQ(t.min_parallelism, 48);
  EXPECT_EQ(t.scatter_max, 16);  // same-socket distance; beyond = off-socket
}

TEST(ProblemsTest, TinyGrainsFlaggedForLowBenefit) {
  const sim::Program p = sim::capture_program("tiny", [](Ctx& ctx) {
    for (int i = 0; i < 20; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(10); });
    ctx.taskwait();
  });
  const SimRun r = analyze_sim(p, 4);
  const auto& v = r.analysis.problems[static_cast<size_t>(
      Problem::LowParallelBenefit)];
  EXPECT_EQ(v.flagged_count, 20u);
  EXPECT_DOUBLE_EQ(v.flagged_percent, 100.0);
  for (double s : v.severity) EXPECT_GT(s, 0.5);  // benefit << 1 -> severe
}

TEST(ProblemsTest, BigGrainsNotFlagged) {
  const sim::Program p = sim::capture_program("big", [](Ctx& ctx) {
    for (int i = 0; i < 20; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(50'000'000); });
    ctx.taskwait();
  });
  const SimRun r = analyze_sim(p, 4);
  const auto& v = r.analysis.problems[static_cast<size_t>(
      Problem::LowParallelBenefit)];
  EXPECT_EQ(v.flagged_count, 0u);
}

TEST(ProblemsTest, SeverityColorGradient) {
  EXPECT_EQ(severity_color(1.0), "#ff0000");
  EXPECT_EQ(severity_color(0.0), "#ffe000");
  const std::string mid = severity_color(0.5);
  EXPECT_EQ(mid.substr(0, 3), "#ff");
  EXPECT_EQ(dimmed_color(), "#d9d9d9");
}

TEST(ProblemsTest, LowParallelismUsesCoreCount) {
  // Serial chain on 48 cores: every grain has parallelism ~1 < 48.
  const sim::Program p = sim::capture_program("chain", [](Ctx& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(2'000'000); });
      ctx.taskwait();
    }
  });
  const SimRun r = analyze_sim(p, 48);
  const auto& v =
      r.analysis.problems[static_cast<size_t>(Problem::LowParallelism)];
  EXPECT_EQ(v.flagged_count, 8u);
}

// ---------------------------------------------------------------------------
// Source profile

TEST(SourceProfileTest, GroupsByDefinitionAndSorts) {
  const sim::Program p = sim::capture_program("mix", [](Ctx& ctx) {
    for (int i = 0; i < 30; ++i)
      ctx.spawn(GG_SRC_NAMED("app.c", 10, "many_small"),
                [](Ctx& c) { c.compute(100); });
    for (int i = 0; i < 3; ++i)
      ctx.spawn(GG_SRC_NAMED("app.c", 20, "few_big"),
                [](Ctx& c) { c.compute(80'000'000); });
    ctx.taskwait();
  });
  const SimRun r = analyze_sim(p, 4);
  ASSERT_EQ(r.analysis.sources.size(), 2u);
  // Sorted by creation count: many_small first.
  EXPECT_EQ(r.analysis.sources[0].source, "app.c:10(many_small)");
  EXPECT_EQ(r.analysis.sources[0].grain_count, 30u);
  EXPECT_GT(r.analysis.sources[0].low_benefit_percent, 99.0);
  EXPECT_EQ(r.analysis.sources[1].grain_count, 3u);
  EXPECT_GT(r.analysis.sources[1].work_share, 0.99);
  // Re-sort by work share flips the order.
  MetricsResult& m = const_cast<MetricsResult&>(r.analysis.metrics);
  const auto rows2 =
      source_profile(r.trace, r.analysis.grains, m, r.analysis.thresholds,
                     SourceSort::ByWorkShare);
  EXPECT_EQ(rows2[0].source, "app.c:20(few_big)");
}

// ---------------------------------------------------------------------------
// Bin packing

TEST(BinPackTest, ExactSmallCases) {
  EXPECT_EQ(min_bins({5, 5, 5, 5}, 10).bins, 2);
  EXPECT_EQ(min_bins({5, 5, 5, 5}, 10).exact, true);
  EXPECT_EQ(min_bins({6, 6, 6}, 10).bins, 3);
  EXPECT_EQ(min_bins({3, 3, 3, 3}, 12).bins, 1);
  EXPECT_EQ(min_bins({}, 10).bins, 0);
}

TEST(BinPackTest, BeatsNaiveFfdWhenExactHelps) {
  // FFD packs {6,5,5,4,4,4,2} into capacity 15 as [6,5,4][5,4,4,2] = 2 bins
  // already optimal; try a case where FFD needs 3 but optimal is 2? Classic:
  // items {4,4,4,3,3,3} cap 10: FFD -> [4,4][4,3,3][3] = 3 bins; optimal
  // [4,3,3][4,3]... also 3? Use known example: {7,6,3,2,2} cap 10:
  // FFD: [7,3][6,2,2] = 2, optimal 2. Verify lower bound logic instead.
  const auto r = min_bins({7, 6, 3, 2, 2}, 10);
  EXPECT_EQ(r.bins, 2);
  EXPECT_TRUE(r.exact);
  EXPECT_LE(r.max_bin_load, 10u);
}

TEST(BinPackTest, MinCoresForMakespan) {
  // 10 items of 10 with makespan 25: each core fits 2 (20), so 5 cores.
  std::vector<u64> items(10, 10);
  EXPECT_EQ(min_cores_for_makespan(items, 25), 5);
  // Makespan 100 fits everything on one core.
  EXPECT_EQ(min_cores_for_makespan(items, 100), 1);
}

TEST(BinPackTest, ZeroItemsIgnored) {
  EXPECT_EQ(min_bins({0, 0, 5}, 5).bins, 1);
}

TEST(BinPackTest, FreqmineStyleSkewedChunks) {
  // A few huge chunks and many small ones: the biggest chunk pins the
  // makespan and the rest packs into few cores — the paper's 48 -> 7 story.
  std::vector<u64> chunks;
  Xoshiro256 rng(7);
  for (int i = 0; i < 1292; ++i)
    chunks.push_back(static_cast<u64>(rng.pareto(1000.0, 1.2)));
  std::sort(chunks.begin(), chunks.end(), std::greater<>());
  const u64 makespan = chunks.front();  // LB >> 1 situation
  const int cores = min_cores_for_makespan(chunks, makespan);
  EXPECT_GE(cores, 2);
  EXPECT_LT(cores, 48);
}

// ---------------------------------------------------------------------------
// Timeline foil

TEST(TimelineTest, AccountsBusyOverheadIdle) {
  const sim::Program p = sim::capture_program("fan", [](Ctx& ctx) {
    for (int i = 0; i < 16; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(5'000'000); });
    ctx.taskwait();
  });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const TimelineView v = thread_timeline(t, 32);
  ASSERT_EQ(v.threads.size(), 4u);
  ASSERT_EQ(v.strips.size(), 4u);
  for (const auto& th : v.threads) {
    EXPECT_GT(th.busy, 0u);
    EXPECT_NEAR(th.busy_percent + th.overhead_percent + th.idle_percent,
                100.0, 1.0);
  }
  for (const auto& s : v.strips) {
    EXPECT_EQ(s.size(), 32u);
    EXPECT_NE(s.find('#'), std::string::npos);
  }
  EXPECT_GE(v.imbalance, 1.0);
}

TEST(TimelineTest, ImbalanceVisibleButUninformative) {
  // One huge task + tiny tasks: the timeline shows imbalance (the paper's
  // point: that is ALL it shows).
  const sim::Program p = sim::capture_program("imb", [](Ctx& ctx) {
    ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(100'000'000); });
    for (int i = 0; i < 8; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(500'000); });
    ctx.taskwait();
  });
  sim::SimOptions o;
  o.num_cores = 8;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const TimelineView v = thread_timeline(t);
  EXPECT_GT(v.imbalance, 3.0);
}

// ---------------------------------------------------------------------------
// Full pipeline + report

TEST(ReportTest, AnalyzeAndRender) {
  const sim::Program p = sim::capture_program("demo", [](Ctx& ctx) {
    for (int i = 0; i < 12; ++i)
      ctx.spawn(GG_SRC_NAMED("demo.c", 5, "work"),
                [i](Ctx& c) { c.compute(1'000'000 + 100'000 * i); });
    ctx.taskwait();
  });
  const SimRun r = analyze_sim(p, 8);
  const std::string report = render_report(r.trace, r.analysis);
  EXPECT_NE(report.find("demo"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("demo.c:5(work)"), std::string::npos);
  EXPECT_NE(report.find("low parallel benefit"), std::string::npos);
  EXPECT_EQ(r.analysis.grains.size(), 12u);
}

TEST(ReportTest, BaselineEnablesWorkDeviation) {
  sim::Capture cap;
  const auto region = cap.alloc_region("data", 128 << 20,
                                       front::PagePlacement::FirstTouch);
  sim::Program p = cap.run("dev", [&](Ctx& ctx) {
    for (int i = 0; i < 48; ++i) {
      ctx.spawn(GG_SRC, [&, i](Ctx& c) {
        c.compute(100'000);
        c.touch(region, static_cast<u64>(i) << 20, 1 << 20);
      });
    }
    ctx.taskwait();
  });
  sim::SimOptions o1;
  o1.num_cores = 1;
  const Trace t1 = sim::simulate(p, o1);
  const GrainTable base = GrainTable::build(t1);
  sim::SimOptions o48;
  o48.num_cores = 48;
  const Trace t48 = sim::simulate(p, o48);
  AnalysisOptions ao;
  ao.baseline = &base;
  const Analysis a = analyze(t48, Topology::opteron48(), ao);
  size_t with_dev = 0;
  for (const auto& m : a.metrics.per_grain)
    if (!std::isnan(m.work_deviation)) ++with_dev;
  EXPECT_EQ(with_dev, a.grains.size());
}

// ---------------------------------------------------------------------------
// Every output at every thread count

/// A double's exact bits, as text.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Everything one analysis prints or hands a caller, as bytes: the report,
/// the JSON summary, the grain CSV, every problem view's flags, severities
/// and counts, every source-profile row, and its comparison with itself.
std::string analysis_bytes(const Trace& t, const GrainTable& baseline,
                           int threads) {
  AnalysisOptions opts;
  opts.threads = threads;
  opts.metrics.threads = threads;
  opts.baseline = &baseline;
  const Analysis a = analyze(t, Topology::opteron48(), opts);
  std::ostringstream os;
  os << render_report(t, a);
  write_json_summary(os, t, a);
  write_grain_csv(os, t, a.grains, a.metrics);
  for (const ProblemView& v : a.problems) {
    os << to_string(v.problem) << ' ' << v.flagged_count << ' '
       << exact(v.flagged_percent) << '\n';
    for (size_t i = 0; i < v.flagged.size(); ++i)
      os << v.flagged[i] << exact(v.severity[i]) << ' ';
    os << v.flagged.size() << ' ' << v.severity.size() << '\n';
  }
  for (const SourceProfileRow& r : a.sources) {
    os << r.source << ' ' << r.grain_count << ' ' << r.total_exec << ' '
       << exact(r.work_share) << ' ' << r.median_exec << ' '
       << exact(r.median_parallel_benefit) << ' '
       << exact(r.low_benefit_percent) << ' '
       << exact(r.median_work_deviation) << ' ' << exact(r.inflated_percent)
       << ' ' << exact(r.poor_mem_util_percent) << '\n';
  }
  os << render_comparison(compare_runs(t, a, t, a));
  return os.str();
}

/// The analysis bytes at threads 2/4/8 equal those at 1. The row count is
/// large enough that every pass splits, and some unaligned block edge
/// would fall inside a 64-row word of a problem view.
void expect_identical_at_every_thread_count(const Trace& t,
                                            const std::string& what) {
  const GrainTable baseline = GrainTable::build(t);
  const size_t n = baseline.size();
  ASSERT_GE(n, kParForMinItems) << what;
  bool mid_word = false;
  for (const size_t blocks : {2u, 4u, 8u})
    for (size_t b = 1; b < blocks; ++b) mid_word |= n * b / blocks % 64 != 0;
  ASSERT_TRUE(mid_word) << what;
  const std::string serial = analysis_bytes(t, baseline, 1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_TRUE(analysis_bytes(t, baseline, threads) == serial)
        << what << ": outputs differ at " << threads << " threads";
  }
}

TEST(AnalysisThreadsTest, SynthTraceWithLoopsIsIdenticalAtEveryThreadCount) {
  SynthOptions so;
  so.seed = 17;
  so.grains = 30000;
  so.loop_fraction = 0.4;
  const Trace t = synth_trace(so);
  ASSERT_FALSE(t.chunks.empty());
  expect_identical_at_every_thread_count(t, "synth seed 17");
}

TEST(AnalysisThreadsTest, SalvagedCutWithDuplicateKeysIsIdentical) {
  SynthOptions so;
  so.seed = 31;
  so.workers = 4;
  so.grains = 30000;
  so.loop_fraction = 0.4;
  const std::string bytes = spool::spool_trace_bytes(synth_trace(so), 4096);
  spool::RecoverResult rr =
      spool::recover_spool_bytes(bytes.substr(0, bytes.size() * 3 / 5));
  ASSERT_TRUE(rr.usable);
  ASSERT_TRUE(rr.report.degraded());
  salvage_trace(rr.trace);
  ASSERT_TRUE(validate_trace(rr.trace).empty());
  Trace t = std::move(rr.trace);
  // Duplicate keys: a second record of every 16th forking task, so that
  // two records claim the same children, and of every 16th chunk.
  std::vector<TaskRec> extra_tasks;
  TaskId last = kNoTask;
  size_t forkers = 0;
  for (const FragmentRec& f : t.fragments) {
    if (f.task == kRootTask || f.task == last ||
        f.end_reason != FragmentEnd::Fork)
      continue;
    last = f.task;
    if (forkers++ % 16 == 0)
      extra_tasks.push_back(t.tasks[*t.task_index(f.task)]);
  }
  ASSERT_GT(extra_tasks.size(), 1u);
  t.tasks.insert(t.tasks.end(), extra_tasks.begin(), extra_tasks.end());
  for (size_t i = 0, n = t.chunks.size(); i < n; i += 16)
    t.chunks.push_back(t.chunks[i]);
  t.finalize();
  expect_identical_at_every_thread_count(t, "salvaged cut");
}

// ---------------------------------------------------------------------------
// Stage times rendered from phase spans

/// The spans of one `gganalyze --compare --graphml --csv --json` run, in the
/// order they end (the order the tracer records them): load, the primary
/// analyze() with its metric passes inside analysis.metrics, the compare
/// run's second analyze(), then the exports.
std::vector<obs::SpanRec> compare_run_spans() {
  std::vector<obs::SpanRec> spans;
  u64 now = 1'000'000'000;
  auto add = [&](const char* name, u64 ns) {
    spans.push_back(obs::SpanRec{name, 0, now, now + ns});
    now += ns;
  };
  auto analyze_run = [&](u64 scale) {
    add("analysis.graph", 2'000'000 * scale);
    add("analysis.grains", 3'000'000 * scale);
    const u64 metrics_start = now;
    add("metrics.benefit", 10'000 * scale);
    add("metrics.load_balance", 20'000 * scale);
    add("metrics.parallelism", 40'000 * scale);
    add("metrics.scatter", 80'000 * scale);
    add("metrics.critical_path", 160'000 * scale);
    now = metrics_start + 320'000 * scale;
    spans.push_back(obs::SpanRec{"analysis.metrics", 0, metrics_start, now});
    add("analysis.problems", 500'000 * scale);
  };
  add("gganalyze.load", 1'250'000);
  analyze_run(1);
  analyze_run(7);  // --compare: must not be added into the primary's stages
  add("export.graphml", 7'000'000);
  add("export.csv", 900'000);
  return spans;
}

TEST(TimingRenderTest, JsonTimingsAreExactFirstRunStagesAndExportsInOrder) {
  EXPECT_EQ(render_timings_json(compare_run_spans()),
            "  \"timings\": {\n"
            "    \"load_ns\": 1250000,\n"
            "    \"analysis\": {\"graph_ns\": 2000000, \"grains_ns\": 3000000, "
            "\"metrics_ns\": 320000, \"problems_ns\": 500000, "
            "\"total_ns\": 5820000},\n"
            "    \"metric_passes\": {\"benefit_ns\": 10000, "
            "\"load_balance_ns\": 20000, \"parallelism_ns\": 40000, "
            "\"scatter_ns\": 80000, \"critical_path_ns\": 160000},\n"
            "    \"exports\": ["
            "{\"name\": \"export.graphml\", \"wall_ns\": 7000000}, "
            "{\"name\": \"export.csv\", \"wall_ns\": 900000}]\n"
            "  }");
}

TEST(TimingRenderTest, TimingLinesAreExactFirstRunStagesAndExportsInOrder) {
  std::vector<obs::SpanRec> spans = compare_run_spans();
  spans.push_back(obs::SpanRec{"export.json", 0, 5'000'000'000, 5'000'070'000});
  EXPECT_EQ(render_timing(spans, 4096, 4),
            "[timing] input 4096 bytes\n"
            "[timing] load          1.250 ms (4 thread(s))\n"
            "[timing] graph         2.000 ms (4 thread(s))\n"
            "[timing] grains        3.000 ms (4 thread(s))\n"
            "[timing] metrics       0.320 ms (4 thread(s))\n"
            "[timing]   benefit            0.010 ms\n"
            "[timing]   load_balance       0.020 ms\n"
            "[timing]   parallelism        0.040 ms\n"
            "[timing]   scatter            0.080 ms\n"
            "[timing]   critical_path      0.160 ms\n"
            "[timing] problems      0.500 ms\n"
            "[timing] export        7.000 ms (export.graphml)\n"
            "[timing] export        0.900 ms (export.csv)\n"
            "[timing] export        0.070 ms (export.json)\n"
            "[timing] total        15.040 ms\n");
}

TEST(TimingRenderTest, MissingSpansReadAsZero) {
  EXPECT_EQ(obs::span_ns({}, "analysis.graph"), 0u);
  const std::string json = render_timings_json({});
  EXPECT_NE(json.find("\"total_ns\": 0}"), std::string::npos);
  EXPECT_NE(json.find("\"exports\": []"), std::string::npos);
}

}  // namespace
}  // namespace gg
