#include "metrics/critical_path.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace gg {

CriticalPath critical_path(const GrainGraph& g) {
  CriticalPath cp;
  const auto& nodes = g.nodes();
  const auto& edges = g.edges();
  const auto& topo = g.topo_order();
  GG_CHECK_MSG(topo.size() == nodes.size(),
               "critical path requires a finalized DAG (unreduced graph)");
  if (nodes.empty()) return cp;

  std::vector<TimeNs> dist(nodes.size(), 0);
  std::vector<i64> pred(nodes.size(), -1);
  // Join nodes span the time the parent *waits*, which overlaps the very
  // children whose paths flow into the join — weighting them would double
  // count. The elapsed time of synchronization is carried by the longest
  // incoming child path; the join itself contributes no work.
  auto weight = [&](u32 v) -> TimeNs {
    return nodes[v].kind == NodeKind::Join ? 0 : nodes[v].busy;
  };
  for (u32 v : topo) {
    dist[v] += weight(v);
    for (u32 e : g.out_edges(v)) {
      const u32 w = edges[e].to;
      if (dist[v] > dist[w]) {
        dist[w] = dist[v];
        pred[w] = static_cast<i64>(v);
      }
    }
  }
  u32 sink = 0;
  for (u32 i = 1; i < nodes.size(); ++i) {
    if (dist[i] > dist[sink]) sink = i;
  }
  cp.length = dist[sink];
  for (i64 v = static_cast<i64>(sink); v >= 0; v = pred[static_cast<size_t>(v)])
    cp.nodes.push_back(static_cast<u32>(v));
  std::reverse(cp.nodes.begin(), cp.nodes.end());
  return cp;
}

}  // namespace gg
