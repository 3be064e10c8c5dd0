#include "graph/reductions.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"

namespace gg {

namespace {

/// Merges `src` into the accumulated group node `dst`.
void merge_into(GraphNode& dst, const GraphNode& src) {
  dst.start = std::min(dst.start, src.start);
  dst.end = std::max(dst.end, src.end);
  dst.seq = std::min(dst.seq, src.seq);
  dst.busy += src.busy;
  dst.group_size += src.group_size;
}

}  // namespace

GrainGraph reduce_graph(const GrainGraph& g, const ReductionOptions& opts) {
  const auto& nodes = g.nodes();
  const auto& edges = g.edges();

  // Fork grouping key: forks of one task created between the same pair of
  // joins group together. Rank each fork by the number of same-task joins
  // that start no later than it (event times within a task are ordered).
  std::map<TaskId, std::vector<TimeNs>> join_starts;
  if (opts.forks) {
    for (const GraphNode& n : nodes) {
      if (n.kind == NodeKind::Join && n.task != kNoTask && n.loop == 0)
        join_starts[n.task].push_back(n.start);
    }
    for (auto& [task, starts] : join_starts)
      std::sort(starts.begin(), starts.end());
  }

  // Group key per node; empty string = keep as an individual node.
  auto key_of = [&](const GraphNode& n) -> std::string {
    switch (n.kind) {
      case NodeKind::Fragment:
        if (opts.fragments)
          return "f:" + std::to_string(n.task);
        return {};
      case NodeKind::Fork:
        if (opts.forks) {
          const auto& starts = join_starts[n.task];
          const size_t rank = static_cast<size_t>(
              std::upper_bound(starts.begin(), starts.end(), n.start) -
              starts.begin());
          return "k:" + std::to_string(n.task) + ":" + std::to_string(rank);
        }
        return {};
      case NodeKind::Bookkeep:
        if (opts.bookkeeps)
          return "b:" + std::to_string(n.loop) + ":" + std::to_string(n.thread);
        return {};
      default:
        return {};
    }
  };

  GrainGraph out;
  std::vector<u32> remap(nodes.size());
  std::unordered_map<std::string, u32> reps;
  std::vector<GraphNode> merged;  // staged nodes for group representatives

  // Stage nodes: individual nodes are added directly; grouped nodes are
  // accumulated first so their aggregate weights are complete before adding.
  std::vector<std::pair<bool, u32>> staging(nodes.size());  // (grouped, idx)
  for (u32 i = 0; i < nodes.size(); ++i) {
    const std::string key = key_of(nodes[i]);
    if (key.empty()) {
      staging[i] = {false, i};
      continue;
    }
    auto it = reps.find(key);
    if (it == reps.end()) {
      const u32 mi = static_cast<u32>(merged.size());
      merged.push_back(nodes[i]);
      reps.emplace(key, mi);
      staging[i] = {true, mi};
    } else {
      merge_into(merged[it->second], nodes[i]);
      staging[i] = {true, it->second};
    }
  }
  // Emit: merged nodes first, then singles, building the remap table.
  std::vector<u32> merged_new_index(merged.size());
  for (u32 mi = 0; mi < merged.size(); ++mi)
    merged_new_index[mi] = out.add_node(merged[mi]);
  for (u32 i = 0; i < nodes.size(); ++i) {
    const auto [grouped, idx] = staging[i];
    remap[i] = grouped ? merged_new_index[idx] : out.add_node(nodes[i]);
  }

  // Edges: drop self-edges, coalesce duplicates of the same kind.
  std::unordered_set<u64> seen;
  for (const GraphEdge& e : edges) {
    const u32 a = remap[e.from];
    const u32 b = remap[e.to];
    if (a == b) continue;
    const u64 sig = (static_cast<u64>(a) << 34) ^ (static_cast<u64>(b) << 2) ^
                    static_cast<u64>(e.kind);
    if (!seen.insert(sig).second) continue;
    out.add_edge(a, b, e.kind);
  }
  out.finalize_lenient();
  return out;
}

}  // namespace gg
