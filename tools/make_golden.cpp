// Regenerates the golden trace corpus under tests/golden/.
//
// Each corpus entry is one deterministic simulator run of a generated
// program, saved in both serialization formats and as a GGSPOOL1 spool,
// plus a .expect summary (metrics totals, canonical structural signature
// and one digest per export; golden_summary.hpp). The simulator's
// virtual clock makes the traces byte-stable across machines, so the files
// are committed and golden_trace_test simply diffs against them.
//
// Usage: make_golden <output-dir>
// Run it only when the trace format or the corpus definition changes, and
// commit the result together with the change that caused it.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/genprog.hpp"
#include "golden_summary.hpp"
#include "sim/sim_engine.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"

namespace {

using namespace gg;

/// Spool epoch size of the committed .ggspool files: small enough that
/// every worker's records span several epoch frames. Must stay in sync with
/// golden_trace_test.cpp.
constexpr u64 kGoldenEpochBytes = 256;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

  struct Entry {
    const char* name;
    u64 seed;
    sim::SimPolicy policy;
    int cores;
    bool memory;
  };
  const Entry entries[] = {
      // Task-heavy program on the default runtime model.
      {"tasks_mir4", 8, sim::SimPolicy::mir(), 4, true},
      // Loop-only program under the locked-queue model.
      {"loops_gcc2", 4, sim::SimPolicy::gcc(), 2, false},
      // The oracle's exact-tier configuration.
      {"exact_zero1", 5, sim::SimPolicy::zero_overhead(), 1, false},
  };

  for (const Entry& e : entries) {
    const check::ProgramSpec spec = check::generate_program(e.seed);
    sim::SimOptions so;
    so.num_cores = e.cores;
    so.policy = e.policy;
    so.memory_model = e.memory;
    sim::SimEngine eng(so);
    const Trace t = check::run_spec(spec, eng);

    const std::string base = dir + "/" + e.name;
    if (!save_trace_file(t, base + ".ggtrace") ||
        !save_trace_file(t, base + ".ggbin")) {
      std::fprintf(stderr, "failed to write %s.{ggtrace,ggbin}\n",
                   base.c_str());
      return 1;
    }
    std::ofstream spool(base + ".ggspool", std::ios::binary);
    spool << spool::spool_trace_bytes(t, kGoldenEpochBytes);
    if (!spool) {
      std::fprintf(stderr, "failed to write %s.ggspool\n", base.c_str());
      return 1;
    }
    std::ofstream expect(base + ".expect");
    expect << golden::summary(t) << "\n";
    if (!expect) {
      std::fprintf(stderr, "failed to write %s.expect\n", base.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu tasks, %zu fragments)\n", base.c_str(),
                t.tasks.size(), t.fragments.size());
  }
  return 0;
}
