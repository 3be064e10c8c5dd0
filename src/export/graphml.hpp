// GraphML export (paper §4.2: "The grain graph is stored as a GRAPHML file
// that is viewable on off-the-shelf, large-scale graph viewers such as yEd
// and Cytoscape").
//
// Visual encoding follows §3.1: grains are rectangles with length linearly
// scaled to execution time; fork nodes are green, join nodes orange,
// book-keeping turquoise; problem views color flagged grains with a
// red-to-yellow severity gradient and dim the rest; critical-path nodes get
// a red border. Output includes yEd's <y:ShapeNode> extension (yEd renders
// shapes/colors directly) alongside plain data keys (Cytoscape reads those).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "analysis/problems.hpp"
#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"

namespace gg {

struct GraphMlOptions {
  /// Color grains by this problem view (red-to-yellow severity; others are
  /// dimmed). nullopt = color by node kind only.
  std::optional<Problem> view;
};

/// Writes the graph, titled with the program name. `grains` and `metrics`
/// may be null when exporting a reduced graph for structure only (no
/// problem view / critical path then); with metrics, critical-path nodes
/// get a red border.
void write_graphml(std::ostream& os, const GrainGraph& graph,
                   const Trace& trace, const GrainTable* grains,
                   const MetricsResult* metrics, const GraphMlOptions& opts);

bool write_graphml_file(const std::string& path, const GrainGraph& graph,
                        const Trace& trace, const GrainTable* grains,
                        const MetricsResult* metrics,
                        const GraphMlOptions& opts);

}  // namespace gg
