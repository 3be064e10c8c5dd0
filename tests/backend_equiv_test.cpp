// Cross-scheduler trace equivalence: the scheduler a run is executed on —
// work stealing over Chase-Lev deques or the central queue — must be
// invisible in the analysis. For every program — the golden-corpus seeds
// plus GG_BACKEND_PROGRAMS generated ones (default 8; the deep tier runs
// 50) — the threaded engine executes under a deterministic controller
// schedule once per scheduler, and every run must produce the same
// canonical structural signature as the serial reference elaborator.
// Wall-clock timings legitimately differ between runs; the signature is the
// schedule-independent structure (task tree, fragments, joins, chunk
// decompositions), so equality here is the precise sense in which analysis
// output is identical regardless of scheduler.
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/genprog.hpp"
#include "common/prng.hpp"
#include "check/schedule.hpp"
#include "check/serial_ref.hpp"
#include "check/signature.hpp"
#include "rts/threaded_engine.hpp"
#include "support/test_support.hpp"
#include "topology/topology.hpp"

namespace gg {
namespace {

using check::ProgramSpec;
using check::ScheduleController;
using check::ScheduleOptions;
using check::Strategy;

int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const int parsed = std::atoi(v);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

std::string serial_signature(const ProgramSpec& spec, int team) {
  check::SerialRefOptions opts;
  opts.topology = Topology::opteron48();
  opts.team_size = team;
  check::SerialRefEngine eng(opts);
  return check::canonical_signature(run_spec(spec, eng));
}

/// One threaded-engine run on `scheduler`, fully serialized by a controller
/// built from `sopts`; returns the canonical structural signature.
std::string scheduler_signature(const ProgramSpec& spec,
                                const ScheduleOptions& sopts,
                                rts::SchedulerKind scheduler) {
  ScheduleController ctrl(sopts);
  rts::Options ropts;
  ropts.num_workers = sopts.num_threads;
  ropts.scheduler = scheduler;
  ctrl.install();
  Trace trace;
  {
    rts::ThreadedEngine eng(ropts);
    trace = run_spec(spec, eng);
  }
  ctrl.uninstall();
  return check::canonical_signature(trace);
}

void expect_schedulers_equivalent(const ProgramSpec& spec, int workers,
                                  u64 schedule_seed) {
  const std::string ref = serial_signature(spec, workers);
  ASSERT_FALSE(ref.empty());
  for (const rts::SchedulerKind scheduler :
       {rts::SchedulerKind::WorkStealing, rts::SchedulerKind::CentralQueue}) {
    ScheduleOptions sopts;
    sopts.strategy = Strategy::RandomWalk;
    sopts.seed = schedule_seed;
    sopts.num_threads = workers;
    const std::string got = scheduler_signature(spec, sopts, scheduler);
    EXPECT_EQ(got, ref)
        << spec.name() << " on "
        << (scheduler == rts::SchedulerKind::WorkStealing ? "ws" : "central")
        << " diverged from the serial reference; first diff: "
        << check::first_signature_diff(ref, got);
  }
}

TEST(SchedulerEquivalenceTest, SeededProgramsAgreeAcrossSchedulers) {
  const int programs = env_int("GG_BACKEND_PROGRAMS", 8);
  const u64 base = test::test_seed();
  GG_SEED_TRACE(base);
  for (int i = 0; i < programs; ++i) {
    const ProgramSpec spec =
        check::generate_program(base + static_cast<u64>(i));
    const int workers = 2 + i % 2;
    expect_schedulers_equivalent(
        spec, workers,
        mix64(base ^ (0x9e3779b97f4a7c15ull * static_cast<u64>(i + 1))));
  }
}

TEST(SchedulerEquivalenceTest, GoldenCorpusSeedsAgreeAcrossSchedulers) {
  // The same programs the committed golden corpus was generated from
  // (tools/make_golden.cpp), at the corpus team sizes. Additionally pins
  // the serial reference to the committed .expect signature, so a scheduler
  // bug and a signature-definition drift are distinguishable.
  struct Entry {
    const char* name;
    u64 seed;
    int workers;
  };
  const Entry entries[] = {
      {"tasks_mir4", 8, 4},
      {"loops_gcc2", 4, 2},
      {"exact_zero1", 5, 1},
  };
  for (const Entry& e : entries) {
    const ProgramSpec spec = check::generate_program(e.seed);
    const std::string ref = serial_signature(spec, e.workers);

    std::ifstream in(std::string(GG_GOLDEN_DIR) + "/" + e.name + ".expect");
    ASSERT_TRUE(in.good()) << e.name << ".expect missing from the corpus";
    std::ostringstream committed;
    committed << in.rdbuf();
    EXPECT_NE(committed.str().find(ref), std::string::npos)
        << e.name << ": serial-reference signature not found in the "
        << "committed .expect — corpus and generator have drifted";

    expect_schedulers_equivalent(spec, e.workers, 0x5eedull + e.seed);
  }
}

}  // namespace
}  // namespace gg
