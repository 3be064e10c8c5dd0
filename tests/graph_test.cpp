#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "graph/reductions.hpp"
#include "graph/summarize.hpp"
#include "graph/task_walk.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

using front::Ctx;
using front::ForOpts;

// Fig. 3a program: task foo creates bar and baz, computes in between, and
// synchronizes with its children.
Trace foo_bar_baz_trace() {
  sim::Capture cap;
  sim::Program p = cap.run("foo", [](Ctx& ctx) {
    ctx.compute(1000);
    ctx.spawn(GG_SRC_NAMED("fig3.c", 2, "bar"),
              [](Ctx& c) { c.compute(5000); });
    ctx.compute(2000);
    ctx.spawn(GG_SRC_NAMED("fig3.c", 4, "baz"),
              [](Ctx& c) { c.compute(3000); });
    ctx.compute(500);
    ctx.taskwait();
    ctx.compute(100);
  });
  sim::SimOptions o;
  o.num_cores = 2;
  o.memory_model = false;
  return sim::simulate(p, o);
}

size_t count_kind(const GrainGraph& g, NodeKind k) {
  return g.nodes_of_kind(k).size();
}

size_t count_edges(const GrainGraph& g, EdgeKind k) {
  size_t n = 0;
  for (const GraphEdge& e : g.edges())
    if (e.kind == k) ++n;
  return n;
}

TEST(GrainGraphTest, Fig3StructureTasks) {
  const Trace t = foo_bar_baz_trace();
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  // Root: 4 fragments (fork, fork, join, end). bar/baz: 1 fragment each.
  EXPECT_EQ(count_kind(g, NodeKind::Fragment), 6u);
  EXPECT_EQ(count_kind(g, NodeKind::Fork), 2u);
  EXPECT_EQ(count_kind(g, NodeKind::Join), 1u);
  EXPECT_EQ(count_kind(g, NodeKind::Bookkeep), 0u);
  // Two creation edges (one per child), two join edges into the join node.
  EXPECT_EQ(count_edges(g, EdgeKind::Creation), 2u);
  EXPECT_EQ(count_edges(g, EdgeKind::Join), 2u);
}

TEST(GrainGraphTest, CreationEdgeTargetsChildFirstFragment) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  for (const GraphEdge& e : g.edges()) {
    if (e.kind != EdgeKind::Creation) continue;
    const GraphNode& from = g.nodes()[e.from];
    const GraphNode& to = g.nodes()[e.to];
    EXPECT_EQ(from.kind, NodeKind::Fork);
    EXPECT_EQ(to.kind, NodeKind::Fragment);
    EXPECT_EQ(to.seq, 0u);  // first fragment
    EXPECT_NE(to.task, from.task);
  }
}

TEST(GrainGraphTest, JoinEdgesComeFromChildLastFragments) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  const auto joins = g.nodes_of_kind(NodeKind::Join);
  ASSERT_EQ(joins.size(), 1u);
  size_t join_edges = 0;
  for (const GraphEdge& e : g.edges()) {
    if (e.to != joins[0] || e.kind != EdgeKind::Join) continue;
    ++join_edges;
    const GraphNode& from = g.nodes()[e.from];
    EXPECT_EQ(from.kind, NodeKind::Fragment);
    // Children bar/baz have a single fragment, which is also their last.
    EXPECT_NE(from.task, kRootTask);
  }
  EXPECT_EQ(join_edges, 2u);
}

TEST(GrainGraphTest, Fig3LoopStructure) {
  // Fig. 3b/g: a 20-iteration loop in chunks of 4 on two threads.
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Static;
    fo.chunk = 4;
    ctx.parallel_for(GG_SRC, 0, 20, fo, [](u64, Ctx& c) { c.compute(10000); });
  });
  sim::SimOptions o;
  o.num_cores = 2;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  // 5 chunks; each participating thread has chunks+1 bookkeeps.
  EXPECT_EQ(count_kind(g, NodeKind::Chunk), 5u);
  const size_t books = count_kind(g, NodeKind::Bookkeep);
  EXPECT_EQ(books, 7u);  // thread0: 3+1, thread1: 2+1
  // One loop join; chains end there with join edges.
  const auto joins = g.nodes_of_kind(NodeKind::Join);
  ASSERT_EQ(joins.size(), 1u);
  const auto into_join = [&](const GraphEdge& e) { return e.to == joins[0]; };
  EXPECT_EQ(std::count_if(g.edges().begin(), g.edges().end(), into_join),
            2);  // one per thread chain
  // Every chunk continues to a bookkeep.
  for (u32 c : g.nodes_of_kind(NodeKind::Chunk)) {
    ASSERT_EQ(g.out_edges(c).size(), 1u);
    const GraphEdge& e = g.edges()[g.out_edges(c)[0]];
    EXPECT_EQ(g.nodes()[e.to].kind, NodeKind::Bookkeep);
  }
}

TEST(GrainGraphTest, ValidGraphAcrossPoliciesAndCores) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(500);
    if (d == 0) return;
    const int kids = 1 + d % 3;
    for (int i = 0; i < kids; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    if (d % 2 == 0) ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("random_tree", [&](Ctx& ctx) { rec(ctx, 6); });
  for (int cores : {1, 5, 48}) {
    for (auto pol : {sim::SimPolicy::mir(), sim::SimPolicy::icc(),
                     sim::SimPolicy::mir_central()}) {
      sim::SimOptions o;
      o.num_cores = cores;
      o.policy = pol;
      o.memory_model = false;
      const Trace t = sim::simulate(p, o);
      ASSERT_TRUE(validate_trace(t).empty()) << pol.name << cores;
      const GrainGraph g = GrainGraph::build(t);
      const auto errs = validate_graph(g);
      EXPECT_TRUE(errs.empty())
          << pol.name << "/" << cores << ": " << (errs.empty() ? "" : errs[0]);
    }
  }
}

TEST(GrainGraphTest, GraphFromThreadedRuntime) {
  rts::Options o;
  o.num_workers = 3;
  rts::ThreadedEngine eng(o);
  std::function<void(Ctx&, int)> fib = [&fib](Ctx& ctx, int n) {
    if (n < 2) return;
    ctx.spawn(GG_SRC, [&fib, n](Ctx& c) { fib(c, n - 1); });
    ctx.spawn(GG_SRC, [&fib, n](Ctx& c) { fib(c, n - 2); });
    ctx.taskwait();
  };
  const Trace t = eng.run("fib", [&](Ctx& ctx) { fib(ctx, 10); });
  ASSERT_TRUE(validate_trace(t).empty());
  const GrainGraph g = GrainGraph::build(t);
  EXPECT_TRUE(validate_graph(g).empty());
  EXPECT_GT(g.node_count(), t.tasks.size());
}

TEST(GrainGraphTest, TopoOrderRespectsEdges) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  std::vector<u32> pos(g.node_count());
  for (u32 i = 0; i < g.topo_order().size(); ++i) pos[g.topo_order()[i]] = i;
  for (const GraphEdge& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

// ---------------------------------------------------------------------------
// Reductions

TEST(ReductionTest, FragmentReductionOnePerTask) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = true;
  ro.forks = false;
  ro.bookkeeps = false;
  const GrainGraph r = reduce_graph(g, ro);
  EXPECT_EQ(r.nodes_of_kind(NodeKind::Fragment).size(), 3u);  // root,bar,baz
  // Aggregated weights: the root group holds 4 members whose busy times sum.
  TimeNs root_busy_full = 0;
  for (u32 i : g.nodes_of_kind(NodeKind::Fragment)) {
    if (g.nodes()[i].task == kRootTask) root_busy_full += g.nodes()[i].busy;
  }
  bool found = false;
  for (u32 i : r.nodes_of_kind(NodeKind::Fragment)) {
    if (r.nodes()[i].task == kRootTask) {
      found = true;
      EXPECT_EQ(r.nodes()[i].group_size, 4u);
      EXPECT_EQ(r.nodes()[i].busy, root_busy_full);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ReductionTest, ForkReductionMergesForksBeforeJoin) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = false;
  ro.forks = true;
  ro.bookkeeps = false;
  const GrainGraph r = reduce_graph(g, ro);
  const auto forks = r.nodes_of_kind(NodeKind::Fork);
  ASSERT_EQ(forks.size(), 1u);  // both forks precede the same join
  EXPECT_EQ(r.nodes()[forks[0]].group_size, 2u);
  // The merged fork still has creation edges to both children.
  size_t creations = 0;
  for (u32 e : r.out_edges(forks[0])) {
    if (r.edges()[e].kind == EdgeKind::Creation) ++creations;
  }
  EXPECT_EQ(creations, 2u);
}

TEST(ReductionTest, BookkeepGroupedPerThread) {
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Dynamic;
    fo.chunk = 2;
    ctx.parallel_for(GG_SRC, 0, 40, fo, [](u64, Ctx& c) { c.compute(20000); });
  });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  ReductionOptions ro;
  ro.fragments = false;
  ro.forks = false;
  ro.bookkeeps = true;
  const GrainGraph r = reduce_graph(g, ro);
  // After grouping, at most one bookkeep node per participating thread.
  std::set<u16> threads;
  for (const ChunkRec& c : t.chunks) threads.insert(c.thread);
  EXPECT_EQ(r.nodes_of_kind(NodeKind::Bookkeep).size(), threads.size());
  EXPECT_LT(r.node_count(), g.node_count());
}

TEST(ReductionTest, FullReductionShrinksBigGraph) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(100);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 8); });
  sim::SimOptions o;
  o.num_cores = 8;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  const GrainGraph r = reduce_graph(g, ReductionOptions{});
  EXPECT_LT(r.node_count(), g.node_count() * 6 / 10);
  // Total busy time is conserved by reductions.
  TimeNs busy_g = 0, busy_r = 0;
  for (const GraphNode& n : g.nodes()) busy_g += n.busy;
  for (const GraphNode& n : r.nodes()) busy_r += n.busy;
  EXPECT_EQ(busy_g, busy_r);
}

// ---------------------------------------------------------------------------
// Grain table

TEST(GrainTableTest, PathsAreUniqueAndWellFormed) {
  const Trace t = foo_bar_baz_trace();
  const GrainTable gt = GrainTable::build(t);
  ASSERT_EQ(gt.size(), 2u);
  EXPECT_NE(gt.by_path("0.0"), nullptr);
  EXPECT_NE(gt.by_path("0.1"), nullptr);
  EXPECT_EQ(gt.by_path("0.2"), nullptr);
  EXPECT_EQ(gt.by_path("0.0")->parent, kRootTask);
}

TEST(GrainTableTest, PathsStableAcrossMachineSizes) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(1000);
    if (d == 0) return;
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 5); });
  sim::SimOptions o1, o48;
  o1.num_cores = 1;
  o48.num_cores = 48;
  o1.memory_model = o48.memory_model = false;
  const GrainTable a = GrainTable::build(sim::simulate(p, o1));
  const GrainTable b = GrainTable::build(sim::simulate(p, o48));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(b.by_path(a.path(i)), nullptr) << a.path(i);
  }
}

TEST(GrainTableTest, ChunkIdentifiersFollowPaperScheme) {
  sim::Capture cap;
  sim::Program p = cap.run("loop", [](Ctx& ctx) {
    ForOpts fo;
    fo.sched = ScheduleKind::Static;
    fo.chunk = 8;
    ctx.parallel_for(GG_SRC, 0, 32, fo, [](u64, Ctx& c) { c.compute(5000); });
  });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainTable gt = GrainTable::build(t);
  ASSERT_EQ(gt.size(), 4u);
  // Loop started by thread 0 with seq 0: chunk covering [0,8) is "L0.0:0-8".
  EXPECT_NE(gt.by_path("L0.0:0-8"), nullptr);
  EXPECT_NE(gt.by_path("L0.0:24-32"), nullptr);
}

TEST(GrainTableTest, ExecTimeSumsFragmentsAndCostsPopulated) {
  const Trace t = foo_bar_baz_trace();
  const GrainTable gt = GrainTable::build(t);
  for (const Grain& g : gt.grains()) {
    EXPECT_GT(g.exec_time, 0u);
    EXPECT_GT(g.creation_cost, 0u);  // sim charges task_create_cycles
    EXPECT_EQ(g.n_fragments, 1u);
    EXPECT_EQ(g.n_children, 0u);
  }
  // Root (excluded) spawned both grains; their sync shares split the join.
  const Grain* bar = gt.by_path("0.0");
  const Grain* baz = gt.by_path("0.1");
  ASSERT_NE(bar, nullptr);
  ASSERT_NE(baz, nullptr);
  EXPECT_EQ(bar->sync_cost, baz->sync_cost);
}

TEST(GrainTableTest, InlinedTasksAreStillGrains) {
  const sim::Program p = sim::capture_program("inline", [](Ctx& ctx) {
    for (int i = 0; i < 50; ++i)
      ctx.spawn(GG_SRC, [](Ctx& c) { c.compute(100); });
    ctx.taskwait();
  });
  sim::SimOptions o;
  o.num_cores = 1;
  o.policy = sim::SimPolicy::icc();
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainTable gt = GrainTable::build(t);
  EXPECT_EQ(gt.size(), 50u);
  size_t inlined = 0;
  for (const Grain& g : gt.grains())
    if (g.inlined) ++inlined;
  EXPECT_GT(inlined, 0u);
}

// ---------------------------------------------------------------------------
// Subtree summarization (§6)

TEST(SummarizeTest, CollapsesDeepTreeIntoBudget) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(1000);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 8); });
  sim::SimOptions o;
  o.num_cores = 8;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  ASSERT_GT(g.node_count(), 500u);

  const SummarizeResult s = summarize_graph(g, 200);
  EXPECT_LE(s.graph.node_count(), 200u + 50u);  // best-effort budget
  EXPECT_LT(s.graph.node_count(), g.node_count() / 4);
  EXPECT_GT(s.collapsed_subtrees, 0u);
  // Aggregate busy time is conserved.
  TimeNs busy_g = 0, busy_s = 0;
  for (const GraphNode& n : g.nodes()) busy_g += n.busy;
  for (const GraphNode& n : s.graph.nodes()) busy_s += n.busy;
  EXPECT_EQ(busy_g, busy_s);
  // Summary nodes carry member counts.
  u32 biggest_group = 0;
  for (const GraphNode& n : s.graph.nodes())
    biggest_group = std::max(biggest_group, n.group_size);
  EXPECT_GT(biggest_group, 10u);
}

TEST(SummarizeTest, SmallGraphPassesThrough) {
  const Trace t = foo_bar_baz_trace();
  const GrainGraph g = GrainGraph::build(t);
  const SummarizeResult s = summarize_graph(g, 1000);
  EXPECT_EQ(s.graph.node_count(), g.node_count());
  EXPECT_EQ(s.graph.edge_count(), g.edge_count());
  EXPECT_EQ(s.collapsed_subtrees, 0u);
}

TEST(SummarizeTest, DeeperBudgetKeepsMoreStructure) {
  std::function<void(Ctx&, int)> rec = [&rec](Ctx& ctx, int d) {
    ctx.compute(500);
    if (d == 0) return;
    for (int i = 0; i < 2; ++i)
      ctx.spawn(GG_SRC, [&rec, d](Ctx& c) { rec(c, d - 1); });
    ctx.taskwait();
  };
  const sim::Program p =
      sim::capture_program("tree", [&](Ctx& ctx) { rec(ctx, 7); });
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  const Trace t = sim::simulate(p, o);
  const GrainGraph g = GrainGraph::build(t);
  const SummarizeResult tight = summarize_graph(g, 60);
  const SummarizeResult loose = summarize_graph(g, 400);
  EXPECT_LT(tight.cut_depth, loose.cut_depth);
  EXPECT_LT(tight.graph.node_count(), loose.graph.node_count());
}

// ---------------------------------------------------------------------------
// Work cuts and the builds sharded by them

/// The 30k-grain synth trace the fast-path suite builds at scale: the root
/// holds about a third of the fragments and every loop.
Trace synth_30k(u64 seed) {
  SynthOptions so;
  so.seed = seed;
  so.grains = 30000;
  so.workers = 8;
  so.loop_fraction = 0.4;
  return synth_trace(so);
}

/// Requires `cuts` to be walk_cuts' shape for `threads`: ascending, from
/// the start to the end, each at a task boundary or right after a
/// Join-ending fragment of its task.
void expect_legal_cuts(const Trace& t, const std::vector<WalkPos>& cuts,
                       int threads) {
  ASSERT_EQ(cuts.size(), static_cast<size_t>(threads) + 1);
  EXPECT_TRUE(cuts.front() == (WalkPos{0, 0}));
  EXPECT_TRUE(cuts.back() == (WalkPos{t.tasks.size(), 0}));
  for (size_t s = 1; s < cuts.size(); ++s) {
    const WalkPos c = cuts[s];
    EXPECT_TRUE(cuts[s - 1] <= c) << "cut " << s << " at " << threads;
    if (c.frag == 0) continue;
    ASSERT_LT(c.task, t.tasks.size());
    const auto frags = t.fragments_span(t.tasks[c.task].uid);
    ASSERT_LT(c.frag, frags.size());
    EXPECT_EQ(frags[c.frag - 1].end_reason, FragmentEnd::Join)
        << "cut " << s << " at " << threads << " threads: task "
        << c.task << " fragment " << c.frag;
  }
}

TEST(WalkCutsTest, CutsAscendAtTaskBoundariesOrAfterJoins) {
  const Trace t = synth_30k(123);
  for (int threads = 1; threads <= 9; ++threads) {
    SCOPED_TRACE(threads);
    expect_legal_cuts(t, walk_cuts(t, threads), threads);
  }
  // The root (task position 0) holds a third of the fragments and all the
  // loops, so a 4-way cut splits its fragment stream.
  const std::vector<WalkPos> cuts = walk_cuts(t, 4);
  EXPECT_TRUE(std::any_of(cuts.begin(), cuts.end(), [](const WalkPos& c) {
    return c.task == 0 && c.frag > 0;
  }));
  // Shard s walks the fragments between its cuts: each of the four holds
  // some of them.
  for (size_t s = 0; s + 1 < cuts.size(); ++s)
    EXPECT_TRUE(cuts[s] < cuts[s + 1]) << "shard " << s << " is empty";
  // A trace below the parallel threshold is one shard at any thread count.
  const Trace small = foo_bar_baz_trace();
  EXPECT_EQ(walk_cuts(small, 4).size(), 2u);
}

/// Every node field, every edge, each node's out-edge ids and the
/// topological order.
std::string graph_bytes(const GrainGraph& g) {
  std::ostringstream os;
  for (const GraphNode& n : g.nodes()) {
    os << static_cast<int>(n.kind) << ' ' << n.task << ' ' << n.loop << ' '
       << n.start << ' ' << n.end << ' ' << n.busy << ' ' << n.seq << ' '
       << n.src << ' ' << n.group_size << ' ' << n.chunk << ' ' << n.thread
       << ' ' << n.core << '\n';
  }
  for (const GraphEdge& e : g.edges())
    os << e.from << ' ' << e.to << ' ' << static_cast<int>(e.kind) << '\n';
  for (u32 v = 0; v < g.node_count(); ++v) {
    for (const u32 e : g.out_edges(v)) os << e << ',';
    os << '\n';
  }
  for (const u32 v : g.topo_order()) os << v << ',';
  return os.str();
}

/// Every field of every grain row, the sync cost and path included.
std::string table_bytes(const GrainTable& table) {
  std::ostringstream os;
  for (size_t i = 0; i < table.size(); ++i) {
    const Grain& g = table.grains()[i];
    os << static_cast<int>(g.kind) << '|' << g.task << '|' << g.loop << '|'
       << g.iter_begin << '|' << g.iter_end << '|' << g.parent << '|'
       << g.first_start << '|' << g.last_end << '|' << g.exec_time << '|'
       << g.creation_cost << '|' << g.sync_cost << '|' << g.counters.compute
       << '|' << g.counters.stall << '|' << g.counters.cache_misses << '|'
       << g.counters.bytes_accessed << '|' << g.src << '|' << g.chunk_seq
       << '|' << g.n_fragments << '|' << g.n_children << '|' << g.parent_row
       << '|' << g.child_index << '|' << g.loop_seq << '|' << g.loop_thread
       << '|' << g.thread << '|' << g.core << '|' << g.inlined << '|'
       << table.path(i) << '\n';
  }
  return os.str();
}

/// Requires g's adjacency and topological order to be what one serial pass
/// gives: each node's out-edge ids in edge-id order, and Kahn's sort with
/// a LIFO stack that starts with the sources in ascending order.
void expect_serial_adjacency(const GrainGraph& g) {
  const size_t n = g.node_count();
  std::vector<std::vector<u32>> out(n);
  std::vector<u32> indeg(n, 0);
  for (u32 e = 0; e < g.edge_count(); ++e) {
    out[g.edges()[e].from].push_back(e);
    ++indeg[g.edges()[e].to];
  }
  for (u32 v = 0; v < n; ++v) {
    const auto got = g.out_edges(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), out[v].begin(),
                           out[v].end()))
        << "out-edges of node " << v;
  }
  std::vector<u32> topo, stack;
  for (u32 v = 0; v < n; ++v)
    if (indeg[v] == 0) stack.push_back(v);
  while (!stack.empty()) {
    const u32 v = stack.back();
    stack.pop_back();
    topo.push_back(v);
    for (const u32 e : out[v])
      if (--indeg[g.edges()[e].to] == 0) stack.push_back(g.edges()[e].to);
  }
  EXPECT_TRUE(topo == g.topo_order());
}

TEST(ShardedBuildTest, AdjacencyAndTopoOrderAreTheSerialPass) {
  // Three tasks that no fork created (a damaged trace's shape) add three
  // sources to the root's first fragment, in another node block than it.
  Trace t = synth_30k(123);
  const TaskId last = t.tasks.back().uid;
  for (TaskId uid = last + 1; uid <= last + 3; ++uid) {
    TaskRec r = t.tasks.back();
    r.uid = uid;
    r.parent = kRootTask;
    t.tasks.push_back(r);
    FragmentRec f;
    f.task = uid;
    f.start = 10;
    f.end = 20;
    t.fragments.push_back(f);
  }
  t.finalize();
  for (const int threads : {1, 3, 4}) {
    SCOPED_TRACE(threads);
    expect_serial_adjacency(GrainGraph::build(t, threads));
  }
}

/// The graph and grain table of `t` must be the 1-thread build's at every
/// thread count, uneven ones included.
void expect_serial_builds(const Trace& t) {
  const GrainGraph serial = GrainGraph::build(t, 1);
  expect_serial_adjacency(serial);
  const std::string graph1 = graph_bytes(serial);
  const std::string table1 = table_bytes(GrainTable::build(t, 1));
  for (const int threads : {2, 3, 4, 5, 7, 8}) {
    expect_legal_cuts(t, walk_cuts(t, threads), threads);
    EXPECT_EQ(graph1, graph_bytes(GrainGraph::build(t, threads)))
        << "graph differs at " << threads << " threads";
    EXPECT_EQ(table1, table_bytes(GrainTable::build(t, threads)))
        << "grain table differs at " << threads << " threads";
  }
}

TEST(ShardedBuildTest, RootThatJoinsOnlyAtItsEndMatchesSerial) {
  // The synth root alternates fork batches, each ending in a join, with
  // loops. Drop every root join but the last, so every child the root
  // forks is pending until then: inside the root's fragments no cut is
  // allowed before that join.
  Trace t = synth_30k(77);
  std::vector<FragmentRec> frags;
  u32 seq = 0;
  size_t last_join = 0;
  for (const FragmentRec& f : t.fragments)
    if (f.task == kRootTask && f.end_reason == FragmentEnd::Join)
      last_join = f.seq;
  for (FragmentRec f : t.fragments) {
    if (f.task == kRootTask) {
      if (f.end_reason == FragmentEnd::Join && f.seq != last_join) continue;
      if (f.end_reason == FragmentEnd::Join) f.end_ref = 0;
      f.seq = seq++;
    }
    frags.push_back(f);
  }
  t.fragments = std::move(frags);
  const JoinRec last = t.joins_span(kRootTask).back();
  std::erase_if(t.joins, [](const JoinRec& j) { return j.task == kRootTask; });
  t.joins.push_back(last);
  t.joins.back().seq = 0;
  t.finalize();
  ASSERT_TRUE(validate_trace(t).empty());
  const auto root = t.fragments_span(kRootTask);
  size_t joins = 0;
  for (const FragmentRec& f : root) joins += f.end_reason == FragmentEnd::Join;
  ASSERT_EQ(joins, 1u);

  for (const int threads : {2, 3, 4, 5, 7, 8}) {
    for (const WalkPos& c : walk_cuts(t, threads)) {
      if (c.task == 0 && c.frag > 0) {
        EXPECT_EQ(root[c.frag - 1].end_reason, FragmentEnd::Join)
            << threads << " threads";
      }
    }
  }
  expect_serial_builds(t);
}

TEST(ShardedBuildTest, DuplicatedUidAndOrphanRunMatchSerial) {
  // Damaged-trace shapes the builders must shard like the serial walk: the
  // root's record twice (each record walks the root's fragments; the
  // fragment nodes belong to the first), and a run of fragments whose uid
  // has no record, sorted between two tasks (the walk skips it). Task uids
  // are doubled to make room for the orphan's odd uid.
  Trace t = synth_30k(5);
  const auto twice = [](TaskId& uid) {
    if (uid != kNoTask) uid *= 2;
  };
  for (TaskRec& r : t.tasks) {
    twice(r.uid);
    twice(r.parent);
  }
  for (FragmentRec& f : t.fragments) {
    twice(f.task);
    if (f.end_reason == FragmentEnd::Fork) twice(f.end_ref);
  }
  for (JoinRec& j : t.joins) twice(j.task);
  for (LoopRec& l : t.loops) twice(l.enclosing_task);
  for (DependRec& d : t.depends) {
    twice(d.pred);
    twice(d.succ);
  }
  const TaskId orphan = t.tasks[t.tasks.size() / 2].uid + 1;
  for (u32 k = 0; k < 8000; ++k) {
    FragmentRec f;
    f.task = orphan;
    f.seq = k;
    f.start = 1000 + k;
    f.end = 1001 + k;
    f.end_reason = k % 3 == 0 ? FragmentEnd::Join : FragmentEnd::TaskEnd;
    t.fragments.push_back(f);
  }
  t.tasks.push_back(t.tasks.front());
  t.finalize();
  ASSERT_EQ(t.tasks[1].uid, kRootTask);

  // Some cut falls in the orphan run, and so starts at the task after it.
  const size_t after_orphan = static_cast<size_t>(
      std::upper_bound(t.tasks.begin(), t.tasks.end(), orphan,
                       [](TaskId v, const TaskRec& r) { return v < r.uid; }) -
      t.tasks.begin());
  bool cut_at_orphan = false;
  for (const int threads : {2, 3, 4, 5, 7, 8}) {
    for (const WalkPos& c : walk_cuts(t, threads))
      cut_at_orphan = cut_at_orphan || c == WalkPos{after_orphan, 0};
  }
  EXPECT_TRUE(cut_at_orphan);
  expect_serial_builds(t);
}

}  // namespace
}  // namespace gg
