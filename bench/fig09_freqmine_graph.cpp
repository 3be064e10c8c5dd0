// Figure 9: "Grain graph of Freqmine with evaluation input contains 6985
// grains. (a) The large magenta grains from for-loop in
// FP_tree::FP_growth_first() give bad load balance of 35.5. (b) Most grains
// are too small and provide poor parallel benefit... Poor parallel benefit
// also seen in other loops."
#include <cstdio>

#include "apps/freqmine.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "export/graphml.hpp"
#include "support/bench_support.hpp"

int main() {
  using namespace gg;
  using namespace gg::bench;

  print_header("Figure 9 — Freqmine grain graph",
               "6985 grains; FPGF loop load balance 35.5; most grains too "
               "small (poor parallel benefit), in other loops too");

  const sim::Program prog = capture_app("freqmine", [&](front::Engine& e) {
    apps::FreqmineParams p;
    return apps::freqmine_program(e, p);
  });
  const BenchAnalysis b = analyze48(prog, sim::SimPolicy::mir(), 48);

  std::printf("grains: %zu (paper: 6985)\n", b.analysis.grains.size());
  Table t("per-loop view");
  t.set_header({"loop (source)", "chunks", "load balance", "low benefit %"});
  for (const LoopRec& loop : b.trace.loops) {
    const auto chunks = b.trace.chunks_span(loop.uid);
    size_t low = 0, idx = 0;
    const auto& view = b.analysis.problems[static_cast<size_t>(
        Problem::LowParallelBenefit)];
    for (size_t i = 0; i < b.analysis.grains.size(); ++i) {
      const Grain& g = b.analysis.grains.grains()[i];
      if (g.kind == GrainKind::Chunk && g.loop == loop.uid) {
        ++idx;
        if (view.flagged[i]) ++low;
      }
    }
    t.add_row({std::string(b.trace.strings.get(loop.src)),
               std::to_string(chunks.size()),
               strings::trim_double(
                   b.analysis.metrics.loop_load_balance.at(loop.uid), 2),
               strings::trim_double(
                   idx == 0 ? 0.0 : 100.0 * static_cast<double>(low) / idx,
                   1)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf("(paper: FPGF's second instance takes ~70%% of execution time "
              "and balances at 35.5 on 48 cores)\n");

  const std::string dir = out_dir();
  GraphMlOptions gopts;
  gopts.view = Problem::LowParallelBenefit;
  write_graphml_file(dir + "/fig09_freqmine_benefit.graphml", b.analysis.graph,
                     b.trace, &b.analysis.grains, &b.analysis.metrics, gopts);
  std::printf("exported: %s/fig09_freqmine_benefit.graphml\n", dir.c_str());
  return 0;
}
