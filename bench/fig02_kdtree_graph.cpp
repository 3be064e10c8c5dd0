// Figure 2: grain graph of 376.kdtree for a small input (tree size 200,
// radius 10, cutoff 2) "containing 740 grains. Performance is lost due to
// many grains created by recursing to a large depth despite providing 2 as
// cutoff. The cutoff has no effect."
//
// Prints the grain count and the recursion-depth distribution for the buggy
// and fixed program, demonstrating the structural anomaly the graph makes
// visible, and exports the buggy graph to GraphML/DOT for viewing.
#include <algorithm>
#include <cstdio>
#include <map>

#include "apps/kdtree.hpp"
#include "export/dot.hpp"
#include "export/graphml.hpp"
#include "support/bench_support.hpp"

int main() {
  using namespace gg;
  using namespace gg::bench;

  print_header("Figure 2 — kdtree grain graph, small input",
               "740 grains; deep recursion; the cutoff (2) has no effect");

  auto run_case = [&](bool fixed) {
    const sim::Program prog =
        capture_app("376.kdtree", [&](front::Engine& e) {
          apps::KdtreeParams p;
          p.num_points = 200;
          p.cutoff = 2;
          p.sweep_cutoff = 4;
          p.fixed = fixed;
          return apps::kdtree_program(e, p);
        });
    return analyze48(prog, sim::SimPolicy::mir(), 48);
  };

  const BenchAnalysis buggy = run_case(false);
  const BenchAnalysis ok = run_case(true);

  auto depth_histogram = [](const GrainTable& grains) {
    std::map<size_t, size_t> hist;  // path depth -> count
    for (size_t i = 0; i < grains.size(); ++i) {
      const std::string path = grains.path(i);
      hist[static_cast<size_t>(std::count(path.begin(), path.end(), '.'))]++;
    }
    return hist;
  };

  std::printf("buggy (cutoff 2, no depth increment): %zu grains\n",
              buggy.analysis.grains.size());
  std::printf("fixed (depth increment, sweep cutoff 4): %zu grains\n\n",
              ok.analysis.grains.size());
  std::printf("recursion-depth histogram (depth: grains)\n");
  const auto bh = depth_histogram(buggy.analysis.grains);
  const auto fh = depth_histogram(ok.analysis.grains);
  const size_t max_depth = std::max(bh.rbegin()->first, fh.rbegin()->first);
  for (size_t d = 1; d <= max_depth; ++d) {
    const auto b = bh.count(d) ? bh.at(d) : 0;
    const auto f = fh.count(d) ? fh.at(d) : 0;
    std::printf("  depth %2zu: buggy %4zu   fixed %4zu%s\n", d, b, f,
                d > 2 && b > 0 ? "   <- beyond the cutoff!" : "");
  }
  std::printf("\nThe buggy graph recurses to depth %zu despite cutoff 2 — the "
              "structural anomaly Figure 2 shows at a glance.\n",
              bh.rbegin()->first);

  const std::string dir = out_dir();
  GraphMlOptions gopts;
  write_graphml_file(dir + "/fig02_kdtree_buggy.graphml", buggy.analysis.graph,
                     buggy.trace, &buggy.analysis.grains,
                     &buggy.analysis.metrics, gopts);
  write_dot_file(dir + "/fig02_kdtree_buggy.dot", buggy.analysis.graph,
                 buggy.trace);
  std::printf("exported: %s/fig02_kdtree_buggy.{graphml,dot}\n", dir.c_str());
  return 0;
}
