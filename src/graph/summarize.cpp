#include "graph/summarize.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"

namespace gg {

namespace {

/// Merges node weights into an accumulating summary node.
void fold_into(GraphNode& summary, const GraphNode& n) {
  summary.start = std::min(summary.start, n.start);
  summary.end = std::max(summary.end, n.end);
  summary.busy += n.busy;
  summary.group_size += n.group_size;
}

}  // namespace

SummarizeResult summarize_graph(const GrainGraph& g, size_t max_nodes) {
  SummarizeResult res;
  const auto& nodes = g.nodes();
  const auto& edges = g.edges();
  if (nodes.size() <= max_nodes || max_nodes == 0) {
    // Copy through unchanged.
    for (const GraphNode& n : nodes) res.graph.add_node(n);
    for (const GraphEdge& e : edges) res.graph.add_edge(e.from, e.to, e.kind);
    res.graph.finalize_lenient();
    res.cut_depth = ~size_t{0};
    return res;
  }

  // Task hierarchy from creation edges (fork node's task = parent; the
  // creation target's task = child).
  std::unordered_map<TaskId, TaskId> parent;
  for (const GraphEdge& e : edges) {
    if (e.kind != EdgeKind::Creation) continue;
    const GraphNode& from = nodes[e.from];
    const GraphNode& to = nodes[e.to];
    if (from.kind == NodeKind::Fork && to.kind == NodeKind::Fragment) {
      parent[to.task] = from.task;
    }
  }
  std::unordered_map<TaskId, size_t> depth;
  std::function<size_t(TaskId)> depth_of = [&](TaskId t) -> size_t {
    auto it = depth.find(t);
    if (it != depth.end()) return it->second;
    auto p = parent.find(t);
    const size_t d = p == parent.end() ? 0 : depth_of(p->second) + 1;
    depth.emplace(t, d);
    return d;
  };
  size_t max_depth = 0;
  std::unordered_map<TaskId, size_t> nodes_per_task;
  for (const GraphNode& n : nodes) {
    if (n.task == kNoTask) continue;
    max_depth = std::max(max_depth, depth_of(n.task));
    nodes_per_task[n.task]++;
  }

  /// Ancestor of `t` at depth `cut` (or t itself when shallower).
  auto anchor_at = [&](TaskId t, size_t cut) {
    TaskId a = t;
    size_t d = depth_of(t);
    while (d > cut) {
      a = parent.at(a);
      --d;
    }
    return a;
  };

  // Deepest cut whose result fits the budget: nodes of tasks shallower than
  // the cut survive; each subtree rooted at the cut becomes one node.
  size_t chosen = 1;
  for (size_t cut = max_depth; cut >= 1; --cut) {
    size_t kept = 0;
    std::unordered_set<TaskId> roots;
    for (const auto& [task, count] : nodes_per_task) {
      if (depth_of(task) < cut) {
        kept += count;
      } else {
        roots.insert(anchor_at(task, cut));
      }
    }
    // Non-task nodes (loop book-keeping/chunks) always survive.
    kept += nodes.size();
    for (const auto& [task, count] : nodes_per_task) kept -= count;
    if (kept + roots.size() <= max_nodes || cut == 1) {
      chosen = cut;
      res.collapsed_subtrees = roots.size();
      break;
    }
  }
  res.cut_depth = chosen;

  // Build the summarized graph.
  std::vector<i64> summary_of(nodes.size(), -1);  // node -> summary index
  std::map<TaskId, u32> summaries;                // subtree root -> staged idx
  std::vector<GraphNode> staged;
  std::vector<u32> remap(nodes.size());
  for (u32 i = 0; i < nodes.size(); ++i) {
    const GraphNode& n = nodes[i];
    if (n.task == kNoTask || depth_of(n.task) < chosen) continue;
    const TaskId root = anchor_at(n.task, chosen);
    auto it = summaries.find(root);
    if (it == summaries.end()) {
      GraphNode s(NodeKind::Fragment);
      s.task = root;
      s.src = n.src;
      s.start = n.start;
      s.end = n.end;
      s.busy = 0;
      s.group_size = 0;
      const u32 si = static_cast<u32>(staged.size());
      staged.push_back(s);
      it = summaries.emplace(root, si).first;
    }
    fold_into(staged[it->second], n);
    summary_of[i] = it->second;
  }
  std::vector<u32> staged_new(staged.size());
  for (u32 si = 0; si < staged.size(); ++si)
    staged_new[si] = res.graph.add_node(staged[si]);
  for (u32 i = 0; i < nodes.size(); ++i) {
    remap[i] = summary_of[i] >= 0
                   ? staged_new[static_cast<size_t>(summary_of[i])]
                   : res.graph.add_node(nodes[i]);
  }
  std::unordered_set<u64> seen;
  for (const GraphEdge& e : edges) {
    const u32 a = remap[e.from];
    const u32 b = remap[e.to];
    if (a == b) continue;
    const u64 sig = (static_cast<u64>(a) << 34) ^ (static_cast<u64>(b) << 2) ^
                    static_cast<u64>(e.kind);
    if (!seen.insert(sig).second) continue;
    res.graph.add_edge(a, b, e.kind);
  }
  res.graph.finalize_lenient();
  return res;
}

}  // namespace gg
