// OpenMP 4.5 taskloop tests (§6 future work, implemented): coverage,
// grainsize control, graph shape (tasks, not chunks), both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "analysis/report.hpp"
#include "graph/grain_graph.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/sim_engine.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using front::Ctx;

TEST(TaskloopTest, EveryIterationRunsOnceThreaded) {
  for (int workers : {1, 4}) {
    rts::Options o;
    o.num_workers = workers;
    rts::ThreadedEngine eng(o);
    std::vector<std::atomic<int>> hits(777);
    for (auto& h : hits) h.store(0);
    const Trace t = eng.run("taskloop", [&](Ctx& ctx) {
      ctx.taskloop(GG_SRC, 0, hits.size(), 16,
                   [&](u64 i, Ctx&) { hits[i].fetch_add(1); });
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    const auto errs = validate_trace(t);
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
  }
}

TEST(TaskloopTest, GrainsizeControlsTaskCount) {
  auto leaves_with_grain = [](u64 grain) {
    sim::SimEngine eng(sim::SimOptions{});
    const Trace t = eng.run("taskloop", [&](Ctx& ctx) {
      ctx.taskloop(GG_SRC, 0, 1024, grain,
                   [](u64, Ctx& c) { c.compute(1000); });
    });
    // Leaves are tasks with no children.
    size_t leaves = 0;
    for (const TaskRec& task : t.tasks) {
      if (task.uid == kRootTask) continue;
      bool has_child = false;
      for (const FragmentRec& f : t.fragments_span(task.uid)) {
        if (f.end_reason == FragmentEnd::Fork) has_child = true;
      }
      if (!has_child) ++leaves;
    }
    return leaves;
  };
  // Binary splitting: 1024/grain leaves for powers of two.
  EXPECT_EQ(leaves_with_grain(256), 4u);
  EXPECT_EQ(leaves_with_grain(64), 16u);
  EXPECT_EQ(leaves_with_grain(1024), 1u);
  EXPECT_EQ(leaves_with_grain(0), 1024u);  // grainsize 0 -> 1
}

TEST(TaskloopTest, ProducesTaskGrainsNotChunks) {
  sim::SimEngine eng(sim::SimOptions{});
  const Trace t = eng.run("taskloop", [&](Ctx& ctx) {
    ctx.taskloop(GG_SRC, 0, 256, 32, [](u64, Ctx& c) { c.compute(10000); });
  });
  EXPECT_TRUE(t.loops.empty());   // no parallel-for machinery
  EXPECT_TRUE(t.chunks.empty());  // grains are tasks
  EXPECT_GT(t.tasks.size(), 8u);
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  EXPECT_FALSE(g.nodes_of_kind(NodeKind::Fork).empty());
  EXPECT_TRUE(g.nodes_of_kind(NodeKind::Chunk).empty());
}

TEST(TaskloopTest, ImplicitTaskgroupJoinsBeforeReturn) {
  rts::Options o;
  o.num_workers = 4;
  rts::ThreadedEngine eng(o);
  std::atomic<long> sum{0};
  long observed = -1;
  eng.run("taskloop", [&](Ctx& ctx) {
    ctx.taskloop(GG_SRC, 1, 101, 8, [&](u64 i, Ctx&) {
      sum.fetch_add(static_cast<long>(i));
    });
    observed = sum.load();  // all 100 iterations must be done here
  });
  EXPECT_EQ(observed, 5050);
}

TEST(TaskloopTest, ScalesInTheSimulator) {
  auto makespan = [](int cores) {
    sim::SimOptions o;
    o.num_cores = cores;
    o.memory_model = false;
    sim::SimEngine eng(o);
    const Trace t = eng.run("taskloop", [&](Ctx& ctx) {
      ctx.taskloop(GG_SRC, 0, 480, 10,
                   [](u64, Ctx& c) { c.compute(200000); });
    });
    return t.makespan();
  };
  EXPECT_GT(makespan(1) / makespan(48), 20u);
}

TEST(TaskloopTest, TinyGrainsizeFlagsLowBenefit) {
  sim::SimOptions o;
  o.num_cores = 8;
  sim::SimEngine eng(o);
  const Trace t = eng.run("taskloop", [&](Ctx& ctx) {
    ctx.taskloop(GG_SRC, 0, 512, 1, [](u64, Ctx& c) { c.compute(40); });
  });
  const Analysis a = analyze(t, Topology::opteron48());
  EXPECT_GT(
      a.problems[static_cast<size_t>(Problem::LowParallelBenefit)]
          .flagged_percent,
      50.0);
}

}  // namespace
}  // namespace gg
