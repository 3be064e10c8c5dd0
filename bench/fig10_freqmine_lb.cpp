// Figure 10 + the §4.3.4 resolution: "Load balance of second instance of
// loop FPGF which contains 1292 chunks of disproportionate size. Load
// balance is 35.5 on 48 cores and improves to 1.06 on 7 cores." The 7 comes
// from a bin-packer computing the minimum cores that retain the makespan.
#include <cstdio>

#include "analysis/binpack.hpp"
#include "apps/freqmine.hpp"
#include "common/strings.hpp"
#include "support/bench_support.hpp"

int main() {
  using namespace gg;
  using namespace gg::bench;

  print_header("Figure 10 — FPGF load balance and the bin-packed team size",
               "1292 chunks of disproportionate size; LB 35.5 @48 cores -> "
               "1.06 @7 cores (bin-packer says 7 cores suffice)");

  auto run_with_team = [&](int team) {
    const sim::Program prog = capture_app("freqmine", [&](front::Engine& e) {
      apps::FreqmineParams p;
      p.fpgf_threads = team;
      return apps::freqmine_program(e, p);
    });
    return run48(prog, sim::SimPolicy::mir(), 48);
  };

  const Trace full = run_with_team(0);
  const LoopRec& fpgf = full.loops[1];  // the 2nd instance
  const auto chunks = full.chunks_span(fpgf.uid);
  std::printf("FPGF (2nd loop instance): %zu chunks (paper: 1292)\n",
              chunks.size());
  const double lb48 = loop_load_balance(full, fpgf);
  std::printf("load balance on 48 cores: %.2f (paper: 35.5)\n", lb48);

  // Bin-pack the chunk durations against the loop's makespan.
  std::vector<u64> durations;
  TimeNs loop_span = fpgf.end - fpgf.start;
  for (const ChunkRec& c : chunks) durations.push_back(c.end - c.start);
  const BinPackResult pack = min_bins(durations, loop_span);
  std::printf("bin-packer: minimum cores retaining the %.2fms makespan = %d "
              "(%s; paper: 7)\n",
              static_cast<double>(loop_span) / 1e6, pack.bins,
              pack.exact ? "proven optimal" : "FFD bound");

  const Trace trimmed = run_with_team(pack.bins);
  const LoopRec& fpgf7 = trimmed.loops[1];
  const double lb7 = loop_load_balance(trimmed, fpgf7);
  std::printf("load balance with num_threads(%d): %.2f (paper: 1.06)\n",
              pack.bins, lb7);
  std::printf("FPGF loop time: 48-core %.2fms vs %d-core %.2fms "
              "(paper: 7 cores retain the makespan)\n",
              static_cast<double>(fpgf.end - fpgf.start) / 1e6, pack.bins,
              static_cast<double>(fpgf7.end - fpgf7.start) / 1e6);
  return 0;
}
