// Graphviz DOT export — a quick-look alternative to GraphML for small
// graphs (paper figures 2/3-scale examples render well with `dot -Tsvg`).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/grain_graph.hpp"
#include "trace/trace.hpp"

namespace gg {

/// Writes the graph, titled with the program name; each node is labelled
/// with its source location and, for fragments and chunks, its time.
void write_dot(std::ostream& os, const GrainGraph& graph, const Trace& trace);

bool write_dot_file(const std::string& path, const GrainGraph& graph,
                    const Trace& trace);

}  // namespace gg
