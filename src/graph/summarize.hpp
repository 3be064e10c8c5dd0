// Subtree summarization (§6): "Large graphs have long rendering times...
// We have encouraging results from early experiments with collapsing
// collections of nodes and replacing them with a single summary node."
//
// Collapses every task subtree rooted at a chosen depth into one summary
// node (summed busy time, spanning interval, member count; nodes carry no
// counters to sum), picking the
// deepest cut that still fits the node budget — so the viewer keeps the
// most top-of-graph structure possible.
#pragma once

#include "graph/grain_graph.hpp"

namespace gg {

struct SummarizeResult {
  GrainGraph graph;     ///< finalized leniently (summary edges can cycle)
  size_t cut_depth = 0; ///< task depth at which subtrees were collapsed
  size_t collapsed_subtrees = 0;
};

/// Summarizes `g` down to at most ~`max_nodes` nodes (best effort: the
/// minimum is one summary node per depth-1 subtree plus the root's own
/// nodes). Returns the input unchanged when it already fits.
SummarizeResult summarize_graph(const GrainGraph& g, size_t max_nodes);

}  // namespace gg
