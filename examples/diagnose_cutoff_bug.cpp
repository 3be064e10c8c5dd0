// Scenario (paper §2): a task program scales badly and existing tools only
// say "load is balanced". Use the grain graph to find the structural
// anomaly — a cutoff that has no effect — fix it, and verify the win.
//
// Walks the exact 376.kdtree debugging session: the graph's depth profile
// shows recursion far beyond the configured cutoff; inspecting sweeptree
// reveals the missing depth increment; the fix shrinks the grain count by
// orders of magnitude and restores scalability.
#include <algorithm>
#include <cstdio>

#include "analysis/recommend.hpp"
#include "analysis/report.hpp"
#include "apps/kdtree.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"

using namespace gg;

namespace {

struct RunResult {
  Trace trace;
  Analysis analysis;
  TimeNs t1 = 0;
};

RunResult run_kdtree(bool fixed) {
  sim::Capture cap;
  sim::CaptureRegionEngine eng(cap);
  apps::KdtreeParams p;
  p.num_points = 8000;
  p.cutoff = 2;
  p.sweep_cutoff = 9;
  p.fixed = fixed;
  const sim::Program prog =
      cap.run("376.kdtree", apps::kdtree_program(eng, p));
  sim::SimOptions o;  // the paper's 48-core machine
  RunResult r;
  r.trace = sim::simulate(prog, o);
  r.analysis = analyze(r.trace, Topology::opteron48());
  sim::SimOptions o1 = o;
  o1.num_cores = 1;
  r.t1 = sim::simulate(prog, o1).makespan();
  return r;
}

size_t max_depth(const GrainTable& grains) {
  size_t depth = 0;
  for (size_t i = 0; i < grains.size(); ++i) {
    const std::string path = grains.path(i);
    depth = std::max(depth, static_cast<size_t>(
                                std::count(path.begin(), path.end(), '.')));
  }
  return depth;
}

}  // namespace

int main() {
  std::printf("== step 1: the program is slow; what does the graph say? ==\n");
  const RunResult buggy = run_kdtree(false);
  std::printf("grains: %zu, recursion depth: %zu — but the cutoff is 2!\n",
              buggy.analysis.grains.size(), max_depth(buggy.analysis.grains));
  std::printf("low parallel benefit: %.1f%% of grains\n",
              buggy.analysis
                  .problems[static_cast<size_t>(Problem::LowParallelBenefit)]
                  .flagged_percent);
  std::printf("%s", render_recommendations(
                        recommend(buggy.trace, buggy.analysis)).c_str());
  std::printf("=> the cutoff has no effect: kdnode::sweeptree() recurses "
              "without incrementing depth (the bug that escaped SPEC QA for "
              "three years)\n\n");

  std::printf("== step 2: fix the depth increment, separate the sweep "
              "cutoff ==\n");
  const RunResult fixed = run_kdtree(true);
  std::printf("grains: %zu, recursion depth: %zu (bounded by the sweep "
              "cutoff)\n",
              fixed.analysis.grains.size(), max_depth(fixed.analysis.grains));

  std::printf("\n== step 3: verify the win on the 48-core machine ==\n");
  const double speedup_before = static_cast<double>(buggy.t1) /
                                static_cast<double>(buggy.trace.makespan());
  const double speedup_after = static_cast<double>(fixed.t1) /
                               static_cast<double>(fixed.trace.makespan());
  std::printf("48-core makespan: %.2fms -> %.2fms; self-relative speedup "
              "%.1f -> %.1f\n",
              static_cast<double>(buggy.trace.makespan()) / 1e6,
              static_cast<double>(fixed.trace.makespan()) / 1e6,
              speedup_before, speedup_after);
  return 0;
}
