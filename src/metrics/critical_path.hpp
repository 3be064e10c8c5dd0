// Critical path of the grain graph: the longest node-weighted path through
// the DAG. The paper colors nodes and edges on the critical path red — it
// is the first filter for selecting optimization candidates (§5 notes no
// OpenMP thread-timeline tool highlights it).
#pragma once

#include <vector>

#include "graph/grain_graph.hpp"

namespace gg {

struct CriticalPath {
  TimeNs length = 0;           ///< summed busy time along the path
  std::vector<u32> nodes;      ///< node indices, source to sink
};

/// Computes the critical path of an (unreduced, acyclic) grain graph using
/// node busy-times as weights.
CriticalPath critical_path(const GrainGraph& g);

}  // namespace gg
