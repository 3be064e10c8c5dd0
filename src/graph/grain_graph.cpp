#include "graph/grain_graph.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/uninit_vector.hpp"
#include "graph/task_walk.hpp"
#include "graph/thread_groups.hpp"
#include "obs/telemetry.hpp"

namespace gg {

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::Fragment: return "fragment";
    case NodeKind::Fork: return "fork";
    case NodeKind::Join: return "join";
    case NodeKind::Bookkeep: return "bookkeep";
    case NodeKind::Chunk: return "chunk";
  }
  return "?";
}

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Creation: return "creation";
    case EdgeKind::Join: return "join";
    case EdgeKind::Continuation: return "continuation";
    case EdgeKind::Dependence: return "dependence";
  }
  return "?";
}

u32 GrainGraph::add_node(GraphNode node) {
  if (node.busy == 0) node.busy = node.duration();
  nodes_.push_back(node);
  finalized_ = false;
  return static_cast<u32>(nodes_.size() - 1);
}

void GrainGraph::add_edge(u32 from, u32 to, EdgeKind kind) {
  GG_DCHECK(from < nodes_.size() && to < nodes_.size());
  edges_.emplace_back(from, to, kind);
  finalized_ = false;
}

std::span<const u32> GrainGraph::out_edges(u32 node) const {
  GG_CHECK(finalized_ && node < nodes_.size());
  return {out_edge_ids_.data() + out_offsets_[node],
          out_offsets_[node + 1] - out_offsets_[node]};
}

std::vector<u32> GrainGraph::nodes_of_kind(NodeKind kind) const {
  std::vector<u32> out;
  for (u32 i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == kind) out.push_back(i);
  }
  return out;
}

void GrainGraph::finalize_lenient() {
  finalize_impl(false, 1);
}

void GrainGraph::finalize() {
  finalize_impl(true, 1);
}

void GrainGraph::finalize_impl(bool require_dag, int threads) {
  const size_t n = nodes_.size();
  const size_t m = edges_.size();
  // CSR adjacency via a counting sort of the edge list, in parallel by node
  // range: the block that owns nodes [lo, hi) scans every edge, counting
  // its nodes' out-edges (and in-degrees); prefix sums over the blocks give
  // each block its first slot; then it scans the edges again, from the last
  // id down, and places its nodes' edge ids from the back of each node's
  // list. Each list comes out ascending, as the serial pass in edge-id
  // order produced, and out_offsets_ is its own cursor, so the sort needs
  // no array beyond the CSR's.
  out_offsets_.assign(n + 1, 0);
  out_edge_ids_.resize(m);
  UninitVector<u32> indeg(require_dag ? n : 0);
  const size_t nblocks = par_block_count(n, threads);
  std::vector<u32> block_base(nblocks + 1, 0);
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    const auto mine = [lo, hi](u32 v) { return v - lo < hi - lo; };
    if (require_dag) std::fill(indeg.begin() + lo, indeg.begin() + hi, 0u);
    u32 count = 0;
    for (const GraphEdge& e : edges_) {
      if (mine(e.from)) {
        ++out_offsets_[e.from];
        ++count;
      }
      if (require_dag && mine(e.to)) ++indeg[e.to];
    }
    block_base[b + 1] = count;
  });
  for (size_t b = 0; b < nblocks; ++b) block_base[b + 1] += block_base[b];
  // Kahn's initial stack, the nodes with no in-edges, in ascending order:
  // each block lists its own, and the lists concatenate in block order.
  std::vector<std::vector<u32>> sources(nblocks);
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    const auto mine = [lo, hi](u32 v) { return v - lo < hi - lo; };
    u32 end = block_base[b];  // one past each node's last slot
    for (size_t v = lo; v < hi; ++v) {
      end += out_offsets_[v];
      out_offsets_[v] = end;
    }
    for (size_t e = m; e-- > 0;) {
      const u32 from = edges_[e].from;
      if (mine(from)) out_edge_ids_[--out_offsets_[from]] = static_cast<u32>(e);
    }
    if (!require_dag) return;
    for (size_t v = lo; v < hi; ++v) {
      if (indeg[v] == 0) sources[b].push_back(static_cast<u32>(v));
    }
  });
  out_offsets_[n] = static_cast<u32>(m);
  topo_.clear();
  if (!require_dag) {
    finalized_ = true;
    return;
  }
  // Kahn topological sort; aborts on cycles (the graph must be a DAG).
  topo_.reserve(n);
  std::vector<u32> stack;
  for (const std::vector<u32>& s : sources)
    stack.insert(stack.end(), s.begin(), s.end());
  while (!stack.empty()) {
    const u32 v = stack.back();
    stack.pop_back();
    topo_.push_back(v);
    for (u32 k = out_offsets_[v]; k < out_offsets_[v + 1]; ++k) {
      const u32 w = edges_[out_edge_ids_[k]].to;
      if (--indeg[w] == 0) stack.push_back(w);
    }
  }
  GG_CHECK_MSG(topo_.size() == n, "grain graph contains a cycle");
  finalized_ = true;
}

namespace {

// --- sharded construction --------------------------------------------------
//
// The serial builder produced nodes in a rigid order: every fragment node in
// flat trace.fragments order, then per task (in uid order) the Fork / Join /
// Bookkeep / Chunk nodes its fragments demand, then at most one synthesized
// barrier join; edges in the same task-major order followed by the unjoined-
// children and dependence edges. That order is what every export, golden
// digest and topo result is pinned to — so the sharded build reproduces it
// exactly, and writes each node and edge once, into arrays sized once:
//
//   fragments  task-run-aligned blocks of the (task, seq)-sorted fragment
//              vector index each task's fragment run: its first node id (the
//              id the serial walk gave it), first record and length;
//   count      walk_cuts (graph/task_walk.hpp) cuts the task-major walk into
//              shards of about equal work, at task boundaries and right
//              after joins, where no forked child is pending; each shard
//              walks its part without writing, counting its nodes and edges;
//              prefix sums give every shard its node and edge bases, and the
//              epilogue's additions are counted too;
//   wire       the node and edge arrays are allocated at their final size;
//              each shard writes the fragment nodes of its part of the walk
//              straight into their slots and walks its part again, writing
//              its nodes and edges in place from its bases — cross-task
//              edges only ever point at fragment nodes, whose ids the
//              fragment index already knows;
//   epilogue   the barrier node and the unjoined-children and dependence
//              edges go into the slots reserved for them;
//   finalize   adjacency and topological order.
//
// Every phase partitions by a pure function of the trace and threads, and
// shards concatenate in walk order, so the result is bit-identical for
// every thread count; threads == 1 runs the same code as a single shard.

constexpr u32 kNoNode = 0xFFFFFFFFu;

/// One task's fragment nodes: first node id, first record in
/// trace.fragments, and length. Tasks without fragment nodes (no fragments,
/// or a later record of a duplicated uid) keep node == kNoNode.
struct FragRun {
  u32 node = kNoNode;
  u32 frag = 0;
  u32 count = 0;

  bool has() const { return node != kNoNode; }
  u32 last() const { return node + count - 1; }
};

/// The fragment phase's result, by task position in trace.tasks.
struct FragIndex {
  std::vector<FragRun> runs;
  u32 total = 0;  ///< F: number of fragment nodes
};

/// Indexes every non-orphan fragment run, in flat fragment order, exactly
/// like the serial task-by-task walk: a run whose task record is missing
/// (damaged traces) gets no nodes, and a duplicated uid's run belongs to its
/// first record, as Trace::task_index resolves it.
FragIndex index_fragments(const Trace& trace, int threads) {
  const auto& frags = trace.fragments;
  const auto& tasks = trace.tasks;
  FragIndex fi;
  fi.runs.resize(tasks.size());

  // Task-run-aligned block bounds: start from the even partition and advance
  // each boundary to the next task change, so every task's fragment run is
  // owned by exactly one block. Alignment depends only on (n, threads) and
  // the sorted fragment keys — never on timing.
  const size_t n = frags.size();
  size_t t = static_cast<size_t>(std::max(threads, 1));
  if (t > n) t = n == 0 ? 1 : n;
  std::vector<size_t> bounds(t + 1);
  for (size_t b = 0; b <= t; ++b) bounds[b] = n * b / t;
  for (size_t b = 1; b < t; ++b) {
    size_t x = std::max(bounds[b], bounds[b - 1]);
    while (x < n && x > 0 && frags[x].task == frags[x - 1].task) ++x;
    bounds[b] = x;
  }
  bounds[t] = n;

  // One forward walk per block over both uid-sorted vectors: block-local
  // node ids first, rebased onto the block's base below.
  std::vector<u32> kept(t, 0);
  std::vector<size_t> task_lo(t, 0), task_hi(t, 0);  // positions indexed
  par_for_shard(t, [&](size_t b) {
    const size_t lo = bounds[b], hi = bounds[b + 1];
    if (lo == hi) return;
    size_t pos = static_cast<size_t>(
        std::lower_bound(tasks.begin(), tasks.end(), frags[lo].task,
                         [](const TaskRec& r, TaskId v) { return r.uid < v; }) -
        tasks.begin());
    task_lo[b] = task_hi[b] = pos;
    u32 local = 0;
    for (size_t i = lo; i < hi;) {
      const TaskId uid = frags[i].task;
      size_t run = i;
      while (run < hi && frags[run].task == uid) ++run;
      while (pos < tasks.size() && tasks[pos].uid < uid) ++pos;
      if (pos < tasks.size() && tasks[pos].uid == uid) {
        fi.runs[pos] = FragRun{local, static_cast<u32>(i),
                               static_cast<u32>(run - i)};
        local += static_cast<u32>(run - i);
        task_hi[b] = pos + 1;
      }
      i = run;
    }
    kept[b] = local;
  });
  std::vector<u32> base(t + 1, 0);
  for (size_t b = 0; b < t; ++b) base[b + 1] = base[b] + kept[b];
  fi.total = base[t];
  par_for_shard(t, [&](size_t b) {
    for (size_t p = task_lo[b]; p < task_hi[b]; ++p) {
      if (fi.runs[p].has()) fi.runs[p].node += base[b];
    }
  });
  return fi;
}

/// Wires the shard [lo, hi) of the task-major walk in two passes over the
/// same code: a counting pass (no output arrays: node and edge counts,
/// unjoined children, whether the root joins) and, once the arrays are
/// sized, a writing pass that writes the shard's fragment nodes, and every
/// node and edge it wires in place from the shard's bases.
class ShardBuilder {
 public:
  ShardBuilder(const Trace& trace, const FragIndex& fi, WalkPos lo,
               WalkPos hi)
      : trace_(trace), fi_(fi), lo_(lo), hi_(hi) {}

  void count() { wire(); }

  void write(GraphNode* nodes, u32 node_base, GraphEdge* edges,
             size_t edge_base) {
    const u32 want_nodes = node_base + next_node_;
    const size_t want_edges = edge_base + next_edge_;
    nodes_ = nodes;
    edges_ = edges;
    next_node_ = node_base;
    next_edge_ = edge_base;
    write_fragments();
    wire();
    GG_CHECK(next_node_ == want_nodes && next_edge_ == want_edges);
  }

  u32 node_count() const { return next_node_; }  ///< after count()
  size_t edge_count() const { return next_edge_; }

  size_t unjoined_count = 0;  ///< children left unjoined (count())
  std::vector<u32> unjoined;  ///< their last fragment nodes (write())
  bool root_joins = false;    ///< the shard wires a root join (count())
  u32 root_join = kNoNode;    ///< the root's last join node (write())

 private:
  bool writing() const { return nodes_ != nullptr; }

  u32 add_node(const GraphNode& n) {
    if (writing()) {
      GraphNode& slot = nodes_[next_node_];
      slot = n;
      slot.busy = n.duration();
    }
    return next_node_++;
  }

  void add_edge(u32 from, u32 to, EdgeKind kind) {
    if (writing()) edges_[next_edge_] = GraphEdge(from, to, kind);
    ++next_edge_;
  }

  void wire() {
    for_each_walk_task(lo_, hi_, [&](size_t task_pos, size_t from, size_t to) {
      wire_task(task_pos, from, to);
    });
  }

  /// Writes the fragment nodes of the shard's part of the walk. A
  /// duplicated uid's nodes belong to its first record's run, so the later
  /// records write none.
  void write_fragments() {
    for_each_walk_task(lo_, hi_, [&](size_t task_pos, size_t from, size_t to) {
      const FragRun& run = fi_.runs[task_pos];
      if (!run.has()) return;
      const TaskRec& task = trace_.tasks[task_pos];
      for (u32 j = static_cast<u32>(from); j < std::min<size_t>(to, run.count);
           ++j) {
        const FragmentRec& f = trace_.fragments[run.frag + j];
        GraphNode& gn = nodes_[run.node + j];
        gn = GraphNode(NodeKind::Fragment);
        gn.task = task.uid;
        gn.seq = f.seq;
        gn.core = f.core;
        gn.thread = f.core;
        gn.start = f.start;
        gn.end = f.end;
        gn.src = task.src;
        gn.busy = gn.duration();
      }
    });
  }

  /// The fragment run of the task at position i: its own, or the first
  /// record's on a duplicated uid.
  const FragRun& run_of(size_t i) const {
    if (fi_.runs[i].has()) return fi_.runs[i];
    const auto idx = trace_.task_index(trace_.tasks[i].uid);
    return fi_.runs[idx.value_or(i)];
  }

  /// Wires fragments [from, to) of the task at position task_pos. A shard
  /// starts either at a task's first fragment or right after a join, so
  /// no child is pending when it starts.
  void wire_task(size_t task_pos, size_t from, size_t to) {
    const TaskRec& t = trace_.tasks[task_pos];
    const FragRun& run = run_of(task_pos);
    const std::span<const FragmentRec> frags =
        run.has() ? std::span<const FragmentRec>(
                        trace_.fragments.data() + run.frag, run.count)
                  : std::span<const FragmentRec>();
    pending_.clear();  // last fragments of children forked since the last join
    for (size_t i = from; i < std::min(to, frags.size()); ++i) {
      const FragmentRec& f = frags[i];
      const u32 fi = run.node + f.seq;
      const bool has_next = i + 1 < frags.size();
      const u32 next = has_next ? run.node + frags[i + 1].seq : kNoNode;
      switch (f.end_reason) {
        case FragmentEnd::Fork: {
          GraphNode fork(NodeKind::Fork);
          const FragRun* child_run = &run;  // any run while counting
          if (writing()) {
            const auto child_idx = trace_.task_index(f.end_ref);
            GG_CHECK(child_idx.has_value());
            const TaskRec& child = trace_.tasks[*child_idx];
            child_run = &fi_.runs[*child_idx];
            GG_CHECK(child_run->has());
            fork.task = t.uid;
            fork.seq = child.child_index;
            fork.core = child.create_core;
            fork.thread = child.create_core;
            fork.start = child.create_time;
            fork.end = child.create_time + child.creation_cost;
            fork.src = child.src;
          }
          const u32 nf = add_node(fork);
          add_edge(fi, nf, EdgeKind::Continuation);
          add_edge(nf, child_run->node, EdgeKind::Creation);
          if (has_next) add_edge(nf, next, EdgeKind::Continuation);
          pending_.push_back(child_run->last());
          break;
        }
        case FragmentEnd::Join: {
          GraphNode join(NodeKind::Join);
          if (writing()) {
            const JoinRec* jr =
                find_join(trace_.joins_span(t.uid), f.end_ref);
            GG_CHECK_MSG(jr != nullptr, "fragment references missing join");
            join.task = t.uid;
            join.seq = jr->seq;
            join.core = jr->core;
            join.thread = jr->core;
            join.start = jr->start;
            join.end = jr->end;
            join.src = t.src;
          }
          const u32 nj = add_node(join);
          add_edge(fi, nj, EdgeKind::Continuation);
          for (u32 c : pending_) add_edge(c, nj, EdgeKind::Join);
          pending_.clear();
          if (t.uid == kRootTask) {
            root_joins = true;
            if (writing()) root_join = nj;
          }
          if (has_next) add_edge(nj, next, EdgeKind::Continuation);
          break;
        }
        case FragmentEnd::Loop: {
          const u32 nlj = wire_loop(f.end_ref, fi);
          if (has_next) add_edge(nlj, next, EdgeKind::Continuation);
          break;
        }
        case FragmentEnd::TaskEnd: {
          if (writing()) {
            unjoined.insert(unjoined.end(), pending_.begin(), pending_.end());
          } else {
            unjoined_count += pending_.size();
          }
          pending_.clear();
          break;
        }
      }
    }
  }

  /// Wires one parallel for-loop: per-thread book-keeping/chunk chains
  /// hanging off the encountering fragment, all joining at the loop's join
  /// node. Returns the join node's id.
  u32 wire_loop(LoopId uid, u32 encountering_fragment) {
    const auto loop_idx = trace_.loop_index(uid);
    GG_CHECK(loop_idx.has_value());
    const LoopRec& loop = trace_.loops[*loop_idx];

    GraphNode join(NodeKind::Join);
    join.task = loop.enclosing_task;
    join.loop = uid;
    join.start = loop.end;
    join.end = loop.end;
    join.src = loop.src;
    const u32 nlj = add_node(join);

    // Per-thread chains: bookkeeps/chunks are (thread, seq)-sorted after
    // finalize(), so the per-thread groups are contiguous runs.
    bool any_thread = false;
    for_each_thread_pair(
        trace_.bookkeeps_span(uid), trace_.chunks_span(uid),
        [&](u16, std::span<const BookkeepRec> bs,
            std::span<const ChunkRec> cs) {
          any_thread = true;
          u32 prev = encountering_fragment;
          EdgeKind next_kind = EdgeKind::Creation;
          size_t chunk_i = 0;
          for (const BookkeepRec& b : bs) {
            GraphNode bk(NodeKind::Bookkeep);
            bk.loop = uid;
            bk.thread = b.thread;
            bk.core = b.core;
            bk.seq = b.seq_on_thread;
            bk.start = b.start;
            bk.end = b.end;
            bk.src = loop.src;
            const u32 nb = add_node(bk);
            add_edge(prev, nb, next_kind);
            next_kind = EdgeKind::Continuation;
            prev = nb;
            if (b.got_chunk && chunk_i < cs.size()) {
              const ChunkRec& c = cs[chunk_i++];
              GraphNode ch(NodeKind::Chunk);
              ch.loop = uid;
              ch.thread = c.thread;
              ch.core = c.core;
              ch.seq = c.seq_on_thread;
              ch.start = c.start;
              ch.end = c.end;
              ch.src = loop.src;
              ch.chunk = static_cast<u32>(&c - trace_.chunks.data());
              const u32 nc = add_node(ch);
              add_edge(prev, nc, EdgeKind::Continuation);
              prev = nc;
            }
          }
          // The chain's final node synchronizes at the loop join.
          add_edge(prev, nlj, EdgeKind::Join);
        });
    if (!any_thread) {
      // Empty loop: the fragment continues straight to the join.
      add_edge(encountering_fragment, nlj, EdgeKind::Continuation);
    }
    return nlj;
  }

  const Trace& trace_;
  const FragIndex& fi_;
  WalkPos lo_, hi_;
  GraphNode* nodes_ = nullptr;
  GraphEdge* edges_ = nullptr;
  u32 next_node_ = 0;
  size_t next_edge_ = 0;
  std::vector<u32> pending_;
};

}  // namespace

GrainGraph GrainGraph::build(const Trace& trace, int threads) {
  GG_CHECK_MSG(trace.finalized(), "build requires a finalized trace");
  GrainGraph g;

  obs::PhaseSpan fragments_span("graph.fragments");
  const FragIndex fi = index_fragments(trace, threads);
  const u32 F = fi.total;
  fragments_span.end();

  obs::PhaseSpan count_span("graph.count");
  const std::vector<WalkPos> cuts = walk_cuts(trace, threads);
  const size_t nshards = cuts.size() - 1;
  std::vector<ShardBuilder> shards;
  shards.reserve(nshards);
  for (size_t s = 0; s < nshards; ++s)
    shards.emplace_back(trace, fi, cuts[s], cuts[s + 1]);
  par_for_shard(nshards, [&](size_t s) { shards[s].count(); });
  // Shard bases, then everything the epilogue adds, so that both arrays are
  // allocated once, at their final size. Unjoined children synchronize at
  // the region's implicit barrier: the root's last join (the join Trace's
  // implicit_barrier names), synthesized when the root never joins.
  std::vector<u32> node_base(nshards + 1, F);
  std::vector<size_t> edge_base(nshards + 1, 0);
  size_t nunjoined = 0;
  bool root_joins = false;
  for (size_t s = 0; s < nshards; ++s) {
    const ShardBuilder& sb = shards[s];
    node_base[s + 1] = node_base[s] + sb.node_count();
    edge_base[s + 1] = edge_base[s] + sb.edge_count();
    nunjoined += sb.unjoined_count;
    root_joins = root_joins || sb.root_joins;
  }
  const auto run_of_uid = [&](TaskId uid) -> const FragRun* {
    const auto idx = trace.task_index(uid);
    return idx.has_value() && fi.runs[*idx].has() ? &fi.runs[*idx] : nullptr;
  };
  const bool synth_barrier = nunjoined > 0 && !root_joins;
  const FragRun* root_run = synth_barrier ? run_of_uid(kRootTask) : nullptr;
  // OpenMP 4.0 task dependences (§6 future work, implemented): the
  // predecessor's last fragment happens-before the successor's first.
  std::vector<GraphEdge> depend_edges;
  for (const DependRec& d : trace.depends) {
    const FragRun* pred = run_of_uid(d.pred);
    const FragRun* succ = run_of_uid(d.succ);
    if (pred == nullptr || succ == nullptr) continue;
    depend_edges.emplace_back(pred->last(), succ->node, EdgeKind::Dependence);
  }
  count_span.end();

  obs::PhaseSpan wire_span("graph.wire");
  g.nodes_.resize(node_base[nshards] + (synth_barrier ? 1u : 0u));
  g.edges_.resize(edge_base[nshards] + (root_run != nullptr ? 1 : 0) +
                  nunjoined + depend_edges.size());
  // Every node is written once, in place, by the shard whose part of the
  // walk it belongs to.
  par_for_shard(nshards, [&](size_t s) {
    shards[s].write(g.nodes_.data(), node_base[s], g.edges_.data(),
                    edge_base[s]);
  });
  wire_span.end();

  obs::PhaseSpan epilogue_span("graph.epilogue");
  size_t e = edge_base[nshards];
  u32 barrier = kNoNode;
  for (const ShardBuilder& sb : shards) {
    if (sb.root_join != kNoNode) barrier = sb.root_join;
  }
  if (synth_barrier) {
    barrier = node_base[nshards];
    GraphNode& join = g.nodes_[barrier];
    join = GraphNode(NodeKind::Join);
    join.task = kRootTask;
    join.start = trace.meta.region_end;
    join.end = trace.meta.region_end;
    if (root_run != nullptr) {
      g.edges_[e++] =
          GraphEdge(root_run->last(), barrier, EdgeKind::Continuation);
    }
  }
  for (const ShardBuilder& sb : shards) {
    for (u32 c : sb.unjoined)
      g.edges_[e++] = GraphEdge(c, barrier, EdgeKind::Join);
  }
  GG_CHECK(e + depend_edges.size() == g.edges_.size());
  std::copy(depend_edges.begin(), depend_edges.end(), g.edges_.begin() + e);
  epilogue_span.end();

  obs::PhaseSpan finalize_span("graph.finalize");
  g.finalize_impl(true, threads);
  return g;
}

std::pair<u64, u64> chunk_iterations(const Trace& trace, const GraphNode& n) {
  if (n.kind != NodeKind::Chunk || n.chunk >= trace.chunks.size())
    return {0, 0};
  const ChunkRec& c = trace.chunks[n.chunk];
  return {c.iter_begin, c.iter_end};
}

std::vector<std::string> validate_graph(const GrainGraph& g) {
  std::vector<std::string> errs;
  auto report = [&](const std::string& s) { errs.push_back(s); };

  const auto& nodes = g.nodes();
  const auto& edges = g.edges();
  std::vector<u32> join_in(nodes.size(), 0);
  for (const GraphEdge& e : edges) {
    if (e.kind == EdgeKind::Join) ++join_in[e.to];
  }
  for (u32 i = 0; i < nodes.size(); ++i) {
    const GraphNode& n = nodes[i];
    size_t creation_out = 0;
    for (u32 e : g.out_edges(i)) {
      if (edges[e].kind == EdgeKind::Creation) ++creation_out;
    }
    switch (n.kind) {
      case NodeKind::Fork:
        if (creation_out != 1)
          report("fork node " + std::to_string(i) +
                 " has creation out-degree != 1");
        break;
      case NodeKind::Join: {
        // Root implicit barrier and loop joins of empty loops may be
        // childless; all other joins synchronize at least one child.
        const bool childless_ok = n.task == kRootTask || n.loop != 0;
        if (join_in[i] == 0 && !childless_ok)
          report("join node " + std::to_string(i) + " has no join in-edges");
        break;
      }
      case NodeKind::Chunk: {
        // Chunk nodes always continue to a book-keeping node.
        bool ok = false;
        for (u32 e : g.out_edges(i)) {
          const GraphNode& to = nodes[edges[e].to];
          if (edges[e].kind == EdgeKind::Continuation &&
              to.kind == NodeKind::Bookkeep) {
            ok = true;
          }
          if (edges[e].kind == EdgeKind::Join && to.kind == NodeKind::Join) {
            ok = true;  // reduced graphs may join directly
          }
        }
        if (!ok && !g.out_edges(i).empty()) {
          report("chunk node " + std::to_string(i) +
                 " does not continue to book-keeping or join");
        }
        break;
      }
      default:
        break;
    }
    if (n.end < n.start)
      report("node " + std::to_string(i) + " has negative duration");
  }
  // Continuation edges stay within one task context (fragment -> fork/join
  // of the same task), or within one loop chain.
  for (const GraphEdge& e : edges) {
    if (e.kind != EdgeKind::Continuation) continue;
    const GraphNode& a = nodes[e.from];
    const GraphNode& b = nodes[e.to];
    const bool task_side =
        a.task != kNoTask && b.task != kNoTask && a.task == b.task;
    const bool loop_side = a.loop != 0 || b.loop != 0;
    if (!task_side && !loop_side) {
      report("continuation edge crosses task contexts (" +
             std::to_string(e.from) + " -> " + std::to_string(e.to) + ")");
    }
  }
  return errs;
}

}  // namespace gg
