// The grain graph (paper §3.1).
//
// A directed acyclic graph capturing the order of creation and
// synchronization between grains. Five node kinds — fragment, fork, join,
// book-keeping, chunk — and three control-flow edge kinds — creation
// (fork -> first fragment of the child, green in the paper), join (last
// fragment of a synchronizing child -> join node, orange), and continuation
// (fragment -> fork/join within the same context, black).
//
// Connection constraints enforced by the builder and checked by
// validate_graph():
//  * a fork node connects to exactly one child first-fragment;
//  * at least one fragment connects to every join node (the root's implicit
//    barrier join may be childless);
//  * continuation edges only connect fragments to fork/join nodes of the
//    same task context;
//  * book-keeping nodes are followed by a chunk node when iterations remain
//    and continue to the loop's join node otherwise; chunk nodes always
//    continue to a book-keeping node.
//
// For a deterministic task-based program with fixed input the graph is
// independent of machine size and scheduling; for for-loop programs its
// shape depends on the profiled thread count (§3.1).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace gg {

enum class NodeKind : u8 { Fragment, Fork, Join, Bookkeep, Chunk };
enum class EdgeKind : u8 { Creation, Join, Continuation, Dependence };

const char* to_string(NodeKind k);
const char* to_string(EdgeKind k);

/// One node of the grain graph, in 64 bytes. A node keeps what the exports,
/// metrics and reductions read, and nothing a record holds only for other
/// consumers: a chunk node names its ChunkRec by index instead of copying
/// the iteration range, and per-node counters are not kept (grains read
/// them from the records).
///
/// The default constructor leaves every field unset, so the builder can size
/// the node array once and write each node in place, in parallel, without a
/// serial zero-fill first. Build nodes with GraphNode(kind), which sets
/// every field.
struct GraphNode {
  static constexpr u32 kNoChunk = 0xFFFFFFFFu;

  GraphNode() {}
  explicit GraphNode(NodeKind k)
      : task(kNoTask), loop(0), start(0), end(0), busy(0), seq(0), src(0),
        group_size(1), chunk(kNoChunk), thread(0), core(0), kind(k) {}

  TaskId task;      ///< owning task context (Fragment/Fork/Join)
  LoopId loop;      ///< owning loop (Bookkeep/Chunk/loop Join)
  TimeNs start;
  TimeNs end;
  TimeNs busy;      ///< summed member durations (== duration() before
                    ///< reduction; aggregated weight afterwards)
  u32 seq;          ///< fragment seq / join seq / chunk seq-on-thread
  StrId src;
  u32 group_size;   ///< members represented after reduction
  u32 chunk;        ///< Chunk: index of its record in trace.chunks
  u16 thread;       ///< executing thread (Bookkeep/Chunk)
  u16 core;
  NodeKind kind;

  TimeNs duration() const { return end - start; }
};
static_assert(sizeof(GraphNode) <= 64, "GraphNode must stay within 64 bytes");

/// An edge; like GraphNode, default construction leaves it unset.
struct GraphEdge {
  GraphEdge() {}
  GraphEdge(u32 f, u32 t, EdgeKind k) : from(f), to(t), kind(k) {}

  u32 from;
  u32 to;
  EdgeKind kind;
};

class GrainGraph {
 public:
  /// Builds the grain graph from a finalized, valid trace.
  ///
  /// Node ids: every fragment node first, in (task, seq) order; then, task
  /// by task in uid order, the fork / join / book-keeping / chunk nodes its
  /// fragments demand; then at most one synthesized barrier join. Edges
  /// follow the same task order, then the unjoined-children and dependence
  /// edges.
  ///
  /// `threads` shards the construction, in five phases, each a phase span
  /// inside the caller's: "graph.fragments" indexes each task's fragment
  /// nodes; "graph.count" cuts the task-major walk into shards of about
  /// equal work (walk_cuts, graph/task_walk.hpp) and walks each without
  /// writing, to size every shard's output and the epilogue's;
  /// "graph.wire" allocates the node and edge arrays once, at their final
  /// size, and each shard writes its fragment nodes and the nodes and edges
  /// it wires in place; "graph.epilogue" writes the barrier node and the
  /// unjoined and dependence edges into the slots reserved for them; and
  /// "graph.finalize" builds adjacency in parallel by node range, then the
  /// topological order. Every phase partitions by a pure function of the
  /// trace and threads, so the graph (ids, edge order, topological order,
  /// every export) is bit-identical for every thread count.
  static GrainGraph build(const Trace& trace, int threads = 1);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const std::vector<GraphEdge>& edges() const { return edges_; }

  /// Outgoing edge indices of a node (a view into the CSR adjacency
  /// arrays; valid until the next finalize()).
  std::span<const u32> out_edges(u32 node) const;

  /// All node indices of a given kind.
  std::vector<u32> nodes_of_kind(NodeKind kind) const;

  /// Topological order, from finalize()'s Kahn sort (which aborts on a
  /// cycle). Node ids are not in topological order: fragment nodes take the
  /// lowest ids, so a fork's creation edge points at a lower id. Empty
  /// after finalize_lenient().
  const std::vector<u32>& topo_order() const { return topo_; }

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }

  /// Builder-side mutation API (used by build() and by reductions).
  u32 add_node(GraphNode node);
  void add_edge(u32 from, u32 to, EdgeKind kind);
  /// Recomputes adjacency and the topological order; aborts on cycles.
  /// Must be called after mutation before queries.
  void finalize();
  /// finalize() without the DAG requirement — reduced graphs may contain
  /// join-back cycles. topo_order() is empty afterwards.
  void finalize_lenient();

 private:
  /// finalize() or finalize_lenient(), building the adjacency and the
  /// initial Kahn stack with up to `threads` threads; the result is the
  /// same for every thread count.
  void finalize_impl(bool require_dag, int threads);

  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  // CSR adjacency: edge ids of node v live at [offsets[v], offsets[v+1]),
  // in ascending edge-id order (matching the old per-node push_back order).
  std::vector<u32> out_offsets_, out_edge_ids_;
  std::vector<u32> topo_;
  bool finalized_ = false;
};

/// The iteration range [begin, end) of a chunk node's record in `trace`;
/// {0, 0} for a node that names no record of it.
std::pair<u64, u64> chunk_iterations(const Trace& trace, const GraphNode& n);

/// Structural invariant check; returns human-readable violations (empty ==
/// valid). See the header comment for the constraint list.
std::vector<std::string> validate_graph(const GrainGraph& g);

}  // namespace gg
