// Scenario (paper §4.3.4): a dynamically scheduled loop is irreparably
// imbalanced — a few iterations dwarf the rest. Instead of fighting the
// imbalance, trim resources: bin-pack the observed chunk durations to find
// the smallest team that retains the makespan, then set num_threads.
//
// This is the Freqmine FPGF workflow, with our bin-packer replacing the
// paper's Gecode model.
#include <cstdio>
#include <vector>

#include "analysis/binpack.hpp"
#include "apps/freqmine.hpp"
#include "metrics/metrics.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"

using namespace gg;

namespace {

Trace run_freqmine(int fpgf_threads) {
  sim::Capture cap;
  sim::CaptureRegionEngine eng(cap);
  apps::FreqmineParams p;
  p.fpgf_threads = fpgf_threads;
  const sim::Program prog =
      cap.run("freqmine", apps::freqmine_program(eng, p));
  sim::SimOptions o;  // 48 cores
  return sim::simulate(prog, o);
}

}  // namespace

int main() {
  std::printf("== step 1: profile the loop on the full machine ==\n");
  const Trace full = run_freqmine(0);
  const LoopRec& fpgf = full.loops[1];  // the dominant FPGF instance
  const auto chunks = full.chunks_span(fpgf.uid);
  std::printf("FPGF: %zu chunks, load balance %.1f on 48 cores — a few "
              "single-iteration chunks dwarf the rest\n",
              chunks.size(), loop_load_balance(full, fpgf));

  std::printf("\n== step 2: bin-pack chunk durations against the observed "
              "makespan ==\n");
  std::vector<u64> durations;
  for (const ChunkRec& c : chunks) durations.push_back(c.end - c.start);
  const TimeNs span = fpgf.end - fpgf.start;
  const BinPackResult pack = min_bins(durations, span);
  std::printf("minimum cores that fit every chunk under the %.2fms makespan: "
              "%d (%s)\n",
              static_cast<double>(span) / 1e6, pack.bins,
              pack.exact ? "proven optimal" : "FFD bound");

  std::printf("\n== step 3: set num_threads(%d) on the loop and re-measure "
              "==\n", pack.bins);
  const Trace trimmed = run_freqmine(pack.bins);
  const LoopRec& fpgf2 = trimmed.loops[1];
  std::printf("load balance: %.2f; loop time %.2fms (was %.2fms on 48 "
              "cores) — %d cores freed for other work\n",
              loop_load_balance(trimmed, fpgf2),
              static_cast<double>(fpgf2.end - fpgf2.start) / 1e6,
              static_cast<double>(span) / 1e6, 48 - pack.bins);
  return 0;
}
