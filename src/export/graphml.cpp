#include "export/graphml.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "common/bufwriter.hpp"
#include "common/strings.hpp"

namespace gg {

namespace {

struct NodeStyle {
  std::string fill;
  std::string border = "#000000";
  std::string shape = "rectangle";
  double width = 12, height = 14;
};

std::string kind_color(NodeKind k) {
  switch (k) {
    case NodeKind::Fragment: return "#9dc6e0";  // light blue
    case NodeKind::Fork: return "#66bb66";      // green
    case NodeKind::Join: return "#ff9933";      // orange
    case NodeKind::Bookkeep: return "#40e0d0";  // turquoise
    case NodeKind::Chunk: return "#77cc77";     // green rectangle
  }
  return "#cccccc";
}

}  // namespace

void write_graphml(std::ostream& os, const GrainGraph& graph,
                   const Trace& trace, const GrainTable* grains,
                   const MetricsResult* metrics, const GraphMlOptions& opts) {
  const auto& nodes = graph.nodes();
  const auto& edges = graph.edges();

  // Map graph nodes to grain-table rows (problem-view coloring and the
  // critical-path border), by position in the trace.
  auto grain_index = [&](const GraphNode& n) -> std::optional<size_t> {
    if (grains == nullptr) return std::nullopt;
    return grains->row_of(trace, n);
  };

  // Problem view (optional).
  std::optional<ProblemView> view;
  if (opts.view.has_value() && grains != nullptr && metrics != nullptr) {
    const ProblemThresholds th = ProblemThresholds::defaults(
        trace.meta.num_workers, Topology::opteron48());
    view = evaluate_problem(*opts.view, *grains, *metrics, th);
  }

  // Layout: depth = longest path from a source (in edges), column = running
  // index within the depth level.
  std::vector<u32> depth(nodes.size(), 0);
  const bool has_topo = graph.topo_order().size() == nodes.size();
  u32 max_depth = 0;
  if (has_topo) {
    for (u32 v : graph.topo_order()) {
      for (u32 e : graph.out_edges(v)) {
        depth[edges[e].to] = std::max(depth[edges[e].to], depth[v] + 1);
      }
    }
    for (u32 d : depth) max_depth = std::max(max_depth, d);
  }
  std::vector<u32> col_at_depth(static_cast<size_t>(max_depth) + 1, 0);

  BufWriter buf(1 << 20);
  buf << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\"\n"
      << "         xmlns:y=\"http://www.yworks.com/xml/graphml\">\n"
      << "  <key id=\"d0\" for=\"node\" yfiles.type=\"nodegraphics\"/>\n"
      << "  <key id=\"d1\" for=\"edge\" yfiles.type=\"edgegraphics\"/>\n"
      << "  <key id=\"kind\" for=\"node\" attr.name=\"kind\" attr.type=\"string\"/>\n"
      << "  <key id=\"src\" for=\"node\" attr.name=\"source\" attr.type=\"string\"/>\n"
      << "  <key id=\"exec\" for=\"node\" attr.name=\"exec_ns\" attr.type=\"long\"/>\n"
      << "  <key id=\"grp\" for=\"node\" attr.name=\"group_size\" attr.type=\"int\"/>\n"
      << "  <key id=\"ekind\" for=\"edge\" attr.name=\"kind\" attr.type=\"string\"/>\n"
      << "  <graph id=\"" << strings::xml_escape(
             opts.title.empty() ? trace.meta.program : opts.title)
      << "\" edgedefault=\"directed\">\n";

  for (u32 i = 0; i < nodes.size(); ++i) {
    const GraphNode& n = nodes[i];
    NodeStyle style;
    style.fill = kind_color(n.kind);
    if (view.has_value()) {
      const auto gi = grain_index(n);
      if (gi.has_value()) {
        style.fill = view->flagged[*gi] ? severity_color(view->severity[*gi])
                                        : dimmed_color();
      } else {
        style.fill = dimmed_color();
      }
    }
    bool on_cp = false;
    if (opts.mark_critical_path && metrics != nullptr) {
      const auto gi = grain_index(n);
      if (gi.has_value()) on_cp = metrics->per_grain[*gi].on_critical_path;
    }
    if (on_cp) style.border = "#ff0000";
    // Rectangle length linearly scaled to execution time, log-compressed
    // beyond 100 px so huge grains stay on screen.
    const double ms = static_cast<double>(n.busy) / 1e6;
    double len = opts.px_per_ms * ms;
    if (len > 100.0) len = 100.0 + 40.0 * std::log2(len / 100.0);
    style.width = std::max(6.0, len);
    if (n.kind == NodeKind::Fork || n.kind == NodeKind::Join) {
      style.shape = "ellipse";
      style.width = 10;
      style.height = 10;
    }
    const double x = 30.0 * col_at_depth[depth[i]]++;
    const double y = 40.0 * depth[i];

    std::string label;
    if (n.kind == NodeKind::Fragment || n.kind == NodeKind::Chunk) {
      label = std::string(trace.strings.get(n.src));
      if (n.kind == NodeKind::Chunk) {
        const auto [begin, end] = chunk_iterations(trace, n);
        label += " [";
        label += std::to_string(begin);
        label += ',';
        label += std::to_string(end);
        label += ')';
      }
      if (n.group_size > 1) {
        label += " x";
        label += std::to_string(n.group_size);
      }
    }

    buf << "    <node id=\"n" << i << "\">\n"
        << "      <data key=\"kind\">" << to_string(n.kind) << "</data>\n"
        << "      <data key=\"src\">"
        << strings::xml_escape(trace.strings.get(n.src)) << "</data>\n"
        << "      <data key=\"exec\">" << n.busy << "</data>\n"
        << "      <data key=\"grp\">" << n.group_size << "</data>\n"
        << "      <data key=\"d0\"><y:ShapeNode>"
        << "<y:Geometry height=\"" << style.height << "\" width=\""
        << style.width << "\" x=\"" << x << "\" y=\"" << y << "\"/>"
        << "<y:Fill color=\"" << style.fill << "\" transparent=\"false\"/>"
        << "<y:BorderStyle color=\"" << style.border
        << "\" type=\"line\" width=\"" << (on_cp ? 2.0 : 1.0) << "\"/>"
        << "<y:NodeLabel visible=\"" << (label.empty() ? "false" : "true")
        << "\">" << strings::xml_escape(label) << "</y:NodeLabel>"
        << "<y:Shape type=\"" << style.shape << "\"/>"
        << "</y:ShapeNode></data>\n"
        << "    </node>\n";
  }

  for (u32 e = 0; e < edges.size(); ++e) {
    const GraphEdge& ed = edges[e];
    const char* color = ed.kind == EdgeKind::Creation     ? "#008000"
                        : ed.kind == EdgeKind::Join       ? "#ff8000"
                        : ed.kind == EdgeKind::Dependence ? "#8000ff"
                                                          : "#000000";
    const char* style =
        ed.kind == EdgeKind::Dependence ? "dashed" : "line";
    buf << "    <edge id=\"e" << e << "\" source=\"n" << ed.from
        << "\" target=\"n" << ed.to << "\">\n"
        << "      <data key=\"ekind\">" << to_string(ed.kind) << "</data>\n"
        << "      <data key=\"d1\"><y:PolyLineEdge><y:LineStyle color=\""
        << color << "\" type=\"" << style << "\" width=\"1.0\"/>"
        << "<y:Arrows source=\"none\" target=\"standard\"/>"
        << "</y:PolyLineEdge></data>\n"
        << "    </edge>\n";
  }
  buf << "  </graph>\n</graphml>\n";
  buf.write_to(os);
}

bool write_graphml_file(const std::string& path, const GrainGraph& graph,
                        const Trace& trace, const GrainTable* grains,
                        const MetricsResult* metrics,
                        const GraphMlOptions& opts) {
  std::ofstream os(path);
  if (!os) return false;
  write_graphml(os, graph, trace, grains, metrics, opts);
  return static_cast<bool>(os);
}

}  // namespace gg
