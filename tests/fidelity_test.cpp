// Acceptance tests pinning the paper-reproduction claims (EXPERIMENTS.md).
// These are deliberately coarse (shape, not absolute values): they protect
// the calibration of the simulator's policy/memory models — if a model
// change breaks a paper story, it fails here before anyone re-reads bench
// output.
#include <gtest/gtest.h>

#include "analysis/binpack.hpp"
#include "analysis/report.hpp"
#include "apps/blackscholes.hpp"
#include "apps/fft.hpp"
#include "apps/freqmine.hpp"
#include "apps/kdtree.hpp"
#include "apps/sort.hpp"
#include "apps/sparselu.hpp"
#include "apps/strassen.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"

namespace gg {
namespace {

using front::Ctx;

sim::Program capture(const char* name,
                     const std::function<front::TaskFn(front::Engine&)>& make) {
  sim::Capture cap;
  sim::CaptureRegionEngine eng(cap);
  return cap.run(name, make(eng));
}

TimeNs makespan48(const sim::Program& p,
                  sim::SimPolicy pol = sim::SimPolicy::mir(),
                  int cores = 48) {
  sim::SimOptions o;
  o.policy = pol;
  o.num_cores = cores;
  return sim::simulate(p, o).makespan();
}

// ---- §2: the kdtree cutoff bug ---------------------------------------------

TEST(FidelityTest, KdtreeFixHelpsEveryRuntimeAndIccResistsTheBug) {
  auto cap = [](bool fixed) {
    return capture("kdtree", [&](front::Engine& e) {
      apps::KdtreeParams p;
      p.num_points = 8000;
      p.fixed = fixed;
      return apps::kdtree_program(e, p);
    });
  };
  const sim::Program before = cap(false);
  const sim::Program after = cap(true);
  for (auto pol : {sim::SimPolicy::gcc(), sim::SimPolicy::icc(),
                   sim::SimPolicy::mir()}) {
    EXPECT_LT(makespan48(after, pol), makespan48(before, pol)) << pol.name;
  }
  // GCC (locked task queue) suffers far more from the bug than ICC
  // (internal cutoff): the paper's §2 cross-runtime observation.
  const double gcc_pain =
      static_cast<double>(makespan48(before, sim::SimPolicy::gcc())) /
      static_cast<double>(makespan48(after, sim::SimPolicy::gcc()));
  const double icc_pain =
      static_cast<double>(makespan48(before, sim::SimPolicy::icc())) /
      static_cast<double>(makespan48(after, sim::SimPolicy::icc()));
  EXPECT_GT(gcc_pain, 2.0 * icc_pain);
}

// ---- §4.3.1: Sort -----------------------------------------------------------

TEST(FidelityTest, SortRoundRobinReducesInflationAndMakespan) {
  auto analyzed = [](front::PagePlacement placement) {
    sim::Capture cap;
    sim::CaptureRegionEngine ce(cap);
    apps::SortParams p;
    p.num_elements = 1 << 19;
    p.quick_cutoff = 1 << 13;
    p.merge_cutoff = 1 << 13;
    p.placement = placement;
    const sim::Program prog = cap.run("sort", apps::sort_program(ce, p));
    sim::SimOptions o1;
    o1.num_cores = 1;
    static GrainTable baselines[2];
    GrainTable& baseline =
        baselines[placement == front::PagePlacement::RoundRobin ? 1 : 0];
    baseline = GrainTable::build(sim::simulate(prog, o1));
    sim::SimOptions o;
    const Trace t = sim::simulate(prog, o);
    AnalysisOptions ao;
    ao.baseline = &baseline;
    ProblemThresholds th =
        ProblemThresholds::defaults(48, Topology::opteron48());
    th.work_deviation_max = 1.2;
    ao.thresholds = th;
    return std::make_pair(
        t.makespan(),
        analyze(t, Topology::opteron48(), ao)
            .problems[static_cast<size_t>(Problem::WorkInflation)]
            .flagged_percent);
  };
  const auto [t_ft, inflated_ft] = analyzed(front::PagePlacement::FirstTouch);
  const auto [t_rr, inflated_rr] = analyzed(front::PagePlacement::RoundRobin);
  EXPECT_LT(t_rr, t_ft);                        // performance improves
  EXPECT_LT(inflated_rr, inflated_ft * 0.85);   // inflation share drops
  EXPECT_GT(inflated_ft, 30.0);                 // it was widespread before
}

// ---- §4.3.2: botsspar -------------------------------------------------------

TEST(FidelityTest, BotssparInterchangeRemovesBmodInflation) {
  auto median_bmod_dev = [](bool interchange) {
    sim::Capture cap;
    sim::CaptureRegionEngine ce(cap);
    apps::SparseLuParams p;
    p.blocks = 12;
    p.block_size = 24;
    p.interchange = interchange;
    const sim::Program prog =
        cap.run("botsspar", apps::sparselu_program(ce, p));
    sim::SimOptions o1;
    o1.num_cores = 1;
    static GrainTable baselines[2];
    GrainTable& baseline = baselines[interchange ? 1 : 0];
    baseline = GrainTable::build(sim::simulate(prog, o1));
    sim::SimOptions o;
    const Trace t = sim::simulate(prog, o);
    AnalysisOptions ao;
    ao.baseline = &baseline;
    const Analysis a = analyze(t, Topology::opteron48(), ao);
    for (const SourceProfileRow& r : a.sources) {
      if (r.source.find("bmod") != std::string::npos)
        return r.median_work_deviation;
    }
    return -1.0;
  };
  const double before = median_bmod_dev(false);
  const double after = median_bmod_dev(true);
  ASSERT_GT(before, 0.0);
  ASSERT_GT(after, 0.0);
  EXPECT_GT(before, 2.0);          // flagged at the default threshold
  EXPECT_LT(after, before / 2.0);  // the fix collapses bmod's inflation
}

// ---- §4.3.3: FFT -------------------------------------------------------------

TEST(FidelityTest, FftCutoffCollapsesGrainCountAndHelpsAbsolutely) {
  auto cap = [](u64 cutoff) {
    return capture("fft", [&](front::Engine& e) {
      apps::FftParams p;
      p.num_samples = 1 << 14;
      p.spawn_cutoff = cutoff;
      return apps::fft_program(e, p);
    });
  };
  const sim::Program before = cap(2);
  const sim::Program after = cap(1 << 7);
  EXPECT_GT(before.task_count(), 20 * after.task_count());
  EXPECT_LT(makespan48(after), makespan48(before));
}

// ---- §4.3.4: Freqmine ---------------------------------------------------------

TEST(FidelityTest, FreqmineBinPackerSaysSevenCores) {
  // MIR on all 48 opteron48 cores, as in fig10_freqmine_lb.
  auto simulate_fpgf_team = [](int team) {
    apps::FreqmineParams p;
    p.fpgf_threads = team;
    sim::SimOptions o;
    o.topology = Topology::opteron48();
    o.num_cores = 48;
    o.policy = sim::SimPolicy::mir();
    return sim::simulate(capture("freqmine", [&](front::Engine& e) {
                           return apps::freqmine_program(e, p);
                         }),
                         o);
  };
  const Trace t = simulate_fpgf_team(0);
  ASSERT_EQ(t.loops.size(), 3u);
  const LoopRec& fpgf = t.loops[1];
  EXPECT_EQ(t.chunks_span(fpgf.uid).size(), 1292u);  // the paper's count
  EXPECT_GT(loop_load_balance(t, fpgf), 5.0);      // irreparably imbalanced
  std::vector<u64> durations;
  for (const ChunkRec& c : t.chunks_span(fpgf.uid))
    durations.push_back(c.end - c.start);
  EXPECT_EQ(min_cores_for_makespan(durations, fpgf.end - fpgf.start), 7);

  // Re-run with num_threads(7) on FPGF. The paper's 7-core loop keeps the
  // 48-core time (±2 %); here it runs 25 % longer (EXPERIMENTS.md, Fig. 10).
  const Trace t7 = simulate_fpgf_team(7);
  ASSERT_EQ(t7.loops.size(), 3u);
  const LoopRec& fpgf7 = t7.loops[1];
  const double ratio = static_cast<double>(fpgf7.end - fpgf7.start) /
                       static_cast<double>(fpgf.end - fpgf.start);
  EXPECT_NEAR(ratio, 1.25, 0.02);
}

// ---- §4.3.5: Strassen ----------------------------------------------------------

TEST(FidelityTest, StrassenGrainCountsMatchPaper) {
  auto grain_count = [](bool hard_cutoff, u64 sc) {
    sim::Capture cap;
    sim::CaptureRegionEngine ce(cap);
    apps::StrassenParams p;
    p.matrix_size = 2048;
    p.sc = sc;
    p.hard_coded_cutoff = hard_cutoff;
    return cap.run("strassen", apps::strassen_program(ce, p)).task_count();
  };
  // Paper: "limited to 58 grains" with the bug, 2801 without (sc=128).
  EXPECT_EQ(grain_count(true, 128), 56u);
  EXPECT_EQ(grain_count(true, 64), 56u);  // SC has no effect: the bug
  EXPECT_EQ(grain_count(false, 128), 2800u);
}

// ---- §4.3.6: blackscholes -------------------------------------------------------

TEST(FidelityTest, BlackscholesChunksAreMemoryBoundButBalanced) {
  sim::Capture cap;
  sim::CaptureRegionEngine ce(cap);
  apps::BlackscholesParams p;
  p.num_options = 50000;
  p.sched = ScheduleKind::Dynamic;
  p.chunk = 64;
  const sim::Program prog =
      cap.run("blackscholes", apps::blackscholes_program(ce, p));
  sim::SimOptions o;
  const Trace t = sim::simulate(prog, o);
  const Analysis a = analyze(t, Topology::opteron48());
  EXPECT_GT(a.problems[static_cast<size_t>(Problem::PoorMemUtil)]
                .flagged_percent,
            65.0);  // ">65% of chunks"
  EXPECT_LT(a.metrics.loop_load_balance.begin()->second, 2.0);  // balanced
}

}  // namespace
}  // namespace gg
