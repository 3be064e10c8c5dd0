#include "export/dot.hpp"

#include <fstream>
#include <ostream>

#include "common/strings.hpp"

namespace gg {

namespace {

std::string dot_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const GrainGraph& graph, const Trace& trace) {
  os << "digraph \"" << dot_escape(trace.meta.program)
     << "\" {\n  rankdir=TB;\n  node [fontsize=9];\n";
  const auto& nodes = graph.nodes();
  for (u32 i = 0; i < nodes.size(); ++i) {
    const GraphNode& n = nodes[i];
    std::string shape = "box", color = "lightblue";
    switch (n.kind) {
      case NodeKind::Fork: shape = "circle"; color = "green"; break;
      case NodeKind::Join: shape = "circle"; color = "orange"; break;
      case NodeKind::Bookkeep: shape = "box"; color = "turquoise"; break;
      case NodeKind::Chunk: shape = "box"; color = "palegreen"; break;
      case NodeKind::Fragment: break;
    }
    std::string label{trace.strings.get(n.src)};
    if (n.kind == NodeKind::Chunk) {
      const auto [begin, end] = chunk_iterations(trace, n);
      label += "\\n[" + std::to_string(begin) + "," + std::to_string(end) +
               ")";
    }
    if (n.kind == NodeKind::Fragment || n.kind == NodeKind::Chunk)
      label += "\\n" + strings::human_time(n.busy);
    if (n.group_size > 1) label += " x" + std::to_string(n.group_size);
    os << "  n" << i << " [shape=" << shape << ", style=filled, fillcolor=\""
       << color << "\", label=\"" << dot_escape(label) << "\"];\n";
  }
  for (const GraphEdge& e : graph.edges()) {
    const char* color = e.kind == EdgeKind::Creation     ? "green"
                        : e.kind == EdgeKind::Join       ? "orange"
                        : e.kind == EdgeKind::Dependence ? "purple"
                                                         : "black";
    os << "  n" << e.from << " -> n" << e.to << " [color=" << color
       << (e.kind == EdgeKind::Dependence ? ", style=dashed" : "") << "];\n";
  }
  os << "}\n";
}

bool write_dot_file(const std::string& path, const GrainGraph& graph,
                    const Trace& trace) {
  std::ofstream os(path);
  if (!os) return false;
  write_dot(os, graph, trace);
  return static_cast<bool>(os);
}

}  // namespace gg
