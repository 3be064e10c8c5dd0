// Graph reductions (paper §3.1, Fig. 3d-e,h): node groupings that shrink the
// graph for fast rendering. Grouped nodes retain the aggregate weights of
// their members: summed busy time, spanning interval, group_size = member
// count. Nodes carry no counters to sum (grains read them from the records),
// and chunk nodes, which name their record, are never grouped.
//
// Reduced graphs are for export/visualization only — join-back edges into a
// merged task node make them cyclic in general, so they are finalized
// without the DAG check. All metric derivations use the unreduced graph
// (the paper computes load balance "in the unreduced graph").
#pragma once

#include "graph/grain_graph.hpp"

namespace gg {

struct ReductionOptions {
  bool fragments = true;  ///< combine all fragments of a task (Fig. 3d)
  bool forks = true;      ///< combine fork nodes before every join (Fig. 3e)
  bool bookkeeps = true;  ///< group book-keeping nodes per thread (Fig. 3h)
};

/// Applies the selected reductions and returns the (possibly cyclic)
/// reduced graph. Parallel edges of equal kind are coalesced; self-edges
/// created by merging are dropped.
GrainGraph reduce_graph(const GrainGraph& g, const ReductionOptions& opts);

}  // namespace gg
