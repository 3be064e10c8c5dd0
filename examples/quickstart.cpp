// Quickstart: write an OpenMP-style task program against gg::front, run it
// on the real threaded runtime, build the grain graph, derive the paper's
// metrics, print the analysis report, and export the graph for yEd.
//
//   $ ./examples/quickstart
//
// The program itself is a toy divide-and-conquer sum with one deliberately
// tiny task definition, so the low-parallel-benefit highlight has something
// to find.
#include <cstdio>
#include <numeric>
#include <vector>

#include "analysis/report.hpp"
#include "export/graphml.hpp"
#include "rts/threaded_engine.hpp"
#include "trace/serialize.hpp"

using namespace gg;
using front::Ctx;

namespace {

long sum_range(Ctx& ctx, const std::vector<long>& data, size_t lo, size_t hi) {
  if (hi - lo <= 1024) {
    return std::accumulate(data.begin() + static_cast<std::ptrdiff_t>(lo),
                           data.begin() + static_cast<std::ptrdiff_t>(hi),
                           0L);
  }
  const size_t mid = (lo + hi) / 2;
  long left = 0, right = 0;
  ctx.spawn(GG_SRC, [&, lo, mid](Ctx& c) { left = sum_range(c, data, lo, mid); });
  ctx.spawn(GG_SRC, [&, mid, hi](Ctx& c) { right = sum_range(c, data, mid, hi); });
  ctx.taskwait();
  return left + right;
}

}  // namespace

int main() {
  // 1. Run a task program on the threaded runtime with profiling on.
  std::vector<long> data(1 << 18);
  std::iota(data.begin(), data.end(), 0L);

  rts::Options opts;
  opts.num_workers = 2;
  rts::ThreadedEngine engine(opts);
  long result = 0;
  const Trace trace = engine.run("quickstart", [&](Ctx& ctx) {
    result = sum_range(ctx, data, 0, data.size());
    // A deliberately tiny task: watch the parallel-benefit view flag it.
    for (int i = 0; i < 16; ++i) {
      ctx.spawn(GG_SRC_NAMED("quickstart.cpp", 99, "tiny"), [](Ctx&) {});
    }
    ctx.taskwait();
  });
  std::printf("sum = %ld (expected %ld)\n", result,
              (long)data.size() * ((long)data.size() - 1) / 2);

  // 2. Analyze: grain graph -> grain table -> metrics -> problem views.
  const Analysis analysis = analyze(trace, Topology::generic4());
  std::printf("%s", render_report(trace, analysis).c_str());

  // 3. Export the annotated graph (open in yEd / Cytoscape) and the raw
  //    trace (reload later with load_trace_file_ex).
  GraphMlOptions gopts;
  gopts.view = Problem::LowParallelBenefit;
  write_graphml_file("quickstart.graphml", analysis.graph, trace,
                     &analysis.grains, &analysis.metrics, gopts);
  save_trace_file(trace, "quickstart.ggtrace");
  std::printf("wrote quickstart.graphml (low-parallel-benefit view) and "
              "quickstart.ggtrace\n");
  return 0;
}
