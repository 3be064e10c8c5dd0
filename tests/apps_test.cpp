#include <gtest/gtest.h>

#include <cmath>

#include "apps/blackscholes.hpp"
#include "apps/fft.hpp"
#include "apps/fib.hpp"
#include "apps/floorplan.hpp"
#include "apps/freqmine.hpp"
#include "apps/health.hpp"
#include "apps/kdtree.hpp"
#include "apps/nqueens.hpp"
#include "apps/others.hpp"
#include "apps/sort.hpp"
#include "apps/sparselu.hpp"
#include "apps/strassen.hpp"
#include "apps/uts.hpp"
#include "common/prng.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/sim_engine.hpp"
#include "trace/validate.hpp"

namespace gg::apps {
namespace {

sim::SimOptions quick_sim(int cores = 8) {
  sim::SimOptions o;
  o.num_cores = cores;
  return o;
}

// ---------------------------------------------------------------------------
// kdtree

TEST(KdtreeTest, BuggyCutoffCreatesTaskPerNode) {
  KdtreeParams p;
  p.num_points = 2000;
  p.fixed = false;
  sim::SimEngine eng(quick_sim());
  long neighbors = 0;
  const Trace t = eng.run("kdtree", kdtree_program(eng, p, &neighbors));
  EXPECT_TRUE(validate_trace(t).empty());
  // The bug: despite cutoff 2, ~one task per tree node.
  EXPECT_GT(t.tasks.size(), static_cast<size_t>(p.num_points) / 2);
  EXPECT_GT(neighbors, 0);
}

TEST(KdtreeTest, FixedCutoffBoundsTasks) {
  KdtreeParams p;
  p.num_points = 2000;
  p.fixed = true;
  p.sweep_cutoff = 6;
  sim::SimEngine eng(quick_sim());
  long neighbors = 0;
  const Trace t = eng.run("kdtree", kdtree_program(eng, p, &neighbors));
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_LT(t.tasks.size(), 1u << 8);  // ~2^(cutoff+1)
  EXPECT_GT(neighbors, 0);
}

TEST(KdtreeTest, NeighborCountIndependentOfCutoffFix) {
  long buggy = 0, fixed = 0;
  {
    KdtreeParams p;
    p.num_points = 800;
    sim::SimEngine eng(quick_sim());
    eng.run("kdtree", kdtree_program(eng, p, &buggy));
  }
  {
    KdtreeParams p;
    p.num_points = 800;
    p.fixed = true;
    sim::SimEngine eng(quick_sim());
    eng.run("kdtree", kdtree_program(eng, p, &fixed));
  }
  EXPECT_EQ(buggy, fixed);
  EXPECT_GT(buggy, 800);  // every point is at least its own neighbor
}

// ---------------------------------------------------------------------------
// sort

TEST(SortTest, SortsCorrectly) {
  SortParams p;
  p.num_elements = 1 << 15;
  p.quick_cutoff = 1 << 11;
  p.merge_cutoff = 1 << 11;
  sim::SimEngine eng(quick_sim());
  bool ok = false;
  const Trace t = eng.run("sort", sort_program(eng, p, &ok));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_GT(t.tasks.size(), 20u);
}

TEST(SortTest, LowerCutoffsCreateMoreGrains) {
  auto grains_with_cutoff = [](u64 cutoff) {
    SortParams p;
    p.num_elements = 1 << 15;
    p.quick_cutoff = cutoff;
    p.merge_cutoff = cutoff;
    sim::SimEngine eng(quick_sim());
    bool ok = false;
    const Trace t = eng.run("sort", sort_program(eng, p, &ok));
    EXPECT_TRUE(ok);
    return t.grain_count();
  };
  EXPECT_GT(grains_with_cutoff(1 << 9), 10 * grains_with_cutoff(1 << 13));
}

TEST(SortTest, RunsOnThreadedEngine) {
  SortParams p;
  p.num_elements = 1 << 13;
  p.quick_cutoff = 1 << 10;
  p.merge_cutoff = 1 << 10;
  rts::Options o;
  o.num_workers = 4;
  rts::ThreadedEngine eng(o);
  bool ok = false;
  const Trace t = eng.run("sort", sort_program(eng, p, &ok));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(validate_trace(t).empty());
}

// ---------------------------------------------------------------------------
// sparselu

TEST(SparseLuTest, InterchangePreservesResult) {
  double plain = 0.0, fixed = 0.0;
  {
    SparseLuParams p;
    p.blocks = 6;
    p.block_size = 16;
    sim::SimEngine eng(quick_sim());
    eng.run("sparselu", sparselu_program(eng, p, &plain));
  }
  {
    SparseLuParams p;
    p.blocks = 6;
    p.block_size = 16;
    p.interchange = true;
    sim::SimEngine eng(quick_sim());
    eng.run("sparselu", sparselu_program(eng, p, &fixed));
  }
  EXPECT_NEAR(plain, fixed, std::abs(plain) * 1e-3 + 1e-6);
  EXPECT_NE(plain, 0.0);
}

TEST(SparseLuTest, PhaseStructure) {
  SparseLuParams p;
  p.blocks = 10;
  p.block_size = 8;
  p.density = 0.6;
  sim::SimEngine eng(quick_sim());
  const Trace t = eng.run("sparselu", sparselu_program(eng, p));
  EXPECT_TRUE(validate_trace(t).empty());
  // Two joins per outer iteration (fwd/bdiv barrier + bmod barrier), except
  // iterations with no spawned work near the end.
  EXPECT_GE(t.joins_span(kRootTask).size(), static_cast<size_t>(p.blocks));
  // bmod dominates the task mix.
  size_t bmod = 0;
  for (const TaskRec& task : t.tasks) {
    if (t.strings.get(task.src).find("bmod") != std::string::npos) ++bmod;
  }
  EXPECT_GT(bmod, t.tasks.size() / 2);
}

// ---------------------------------------------------------------------------
// fft

TEST(FftTest, ParsevalHolds) {
  FftParams p;
  p.num_samples = 1 << 10;
  p.spawn_cutoff = 1 << 7;
  sim::SimEngine eng(quick_sim());
  double energy = 0.0;
  const Trace t = eng.run("fft", fft_program(eng, p, &energy));
  EXPECT_TRUE(validate_trace(t).empty());
  // Parseval: sum |X|^2 == N * sum |x|^2; inputs are U(-0.5,0.5)^2 pairs,
  // so expected time-domain energy ~ N/6 per component * 2.
  const double expected = static_cast<double>(p.num_samples) *
                          static_cast<double>(p.num_samples) / 6.0;
  EXPECT_NEAR(energy / expected, 1.0, 0.1);
}

TEST(FftTest, CutoffShrinksGrainCount) {
  auto grains = [](u64 cutoff) {
    FftParams p;
    p.num_samples = 1 << 12;
    p.spawn_cutoff = cutoff;
    sim::SimEngine eng(quick_sim());
    const Trace t = eng.run("fft", fft_program(eng, p));
    return t.grain_count();
  };
  const size_t unopt = grains(2);
  const size_t opt = grains(1 << 9);
  EXPECT_GT(unopt, 20 * opt);
}

// ---------------------------------------------------------------------------
// strassen

TEST(StrassenTest, ReferenceMatchesNaive) {
  constexpr u64 n = 32;
  std::vector<double> a(n * n), b(n * n), c_str(n * n), c_naive(n * n, 0.0);
  Xoshiro256 rng(5);
  for (auto& v : a) v = rng.uniform01() - 0.5;
  for (auto& v : b) v = rng.uniform01() - 0.5;
  strassen_multiply_reference(a.data(), b.data(), c_str.data(), n, 8);
  for (u64 i = 0; i < n; ++i)
    for (u64 k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      for (u64 j = 0; j < n; ++j) c_naive[i * n + j] += aik * b[k * n + j];
    }
  for (u64 i = 0; i < n * n; ++i) EXPECT_NEAR(c_str[i], c_naive[i], 1e-9);
}

TEST(StrassenTest, HardCodedCutoffCapsGrainsAt58Shape) {
  StrassenParams p;
  p.matrix_size = 2048;
  p.sc = 128;
  p.hard_coded_cutoff = true;
  sim::SimEngine eng(quick_sim());
  const Trace t = eng.run("strassen", strassen_program(eng, p));
  EXPECT_TRUE(validate_trace(t).empty());
  // 7 + 49 = 56 tasks + root: the paper's "graph is limited to 58 grains".
  EXPECT_EQ(t.grain_count(), 56u);
}

TEST(StrassenTest, DisablingHardCutoffExposesParallelism) {
  StrassenParams p;
  p.matrix_size = 2048;
  p.sc = 256;
  p.hard_coded_cutoff = false;
  sim::SimEngine eng(quick_sim());
  const Trace t = eng.run("strassen", strassen_program(eng, p));
  // 7 + 49 + 343 = 399 tasks at sc=256; paper's 2801 uses sc=128:
  EXPECT_EQ(t.grain_count(), 399u);
  StrassenParams p2 = p;
  p2.sc = 128;
  sim::SimEngine eng2(quick_sim());
  const Trace t2 = eng2.run("strassen", strassen_program(eng2, p2));
  EXPECT_EQ(t2.grain_count(), 2800u);  // 7 + 49 + 343 + 2401
}

// ---------------------------------------------------------------------------
// freqmine

TEST(FreqmineTest, SecondLoopHas1292Chunks) {
  FreqmineParams p;
  p.num_transactions = 4000;
  sim::SimEngine eng(quick_sim(48));
  long patterns = 0;
  const Trace t = eng.run("freqmine", freqmine_program(eng, p, &patterns));
  EXPECT_TRUE(validate_trace(t).empty());
  ASSERT_EQ(t.loops.size(), 3u);
  const LoopRec& fpgf = t.loops[1];
  EXPECT_EQ(t.chunks_span(fpgf.uid).size(), 1292u);  // chunk size 1
  EXPECT_GT(patterns, 0);
}

TEST(FreqmineTest, NumThreadsLimitsTeam) {
  FreqmineParams p;
  p.num_transactions = 2000;
  p.fpgf_threads = 7;
  sim::SimEngine eng(quick_sim(48));
  const Trace t = eng.run("freqmine", freqmine_program(eng, p));
  ASSERT_EQ(t.loops.size(), 3u);
  EXPECT_EQ(t.loops[1].num_threads, 7);
  for (const ChunkRec& c : t.chunks_span(t.loops[1].uid))
    EXPECT_LT(c.thread, 7);
}

TEST(FreqmineTest, DeterministicPatternCount) {
  long a = 0, b = 0;
  for (long* out : {&a, &b}) {
    FreqmineParams p;
    p.num_transactions = 1500;
    sim::SimEngine eng(quick_sim());
    eng.run("freqmine", freqmine_program(eng, p, out));
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

// ---------------------------------------------------------------------------
// small programs

TEST(FibTest, ComputesFib) {
  FibParams p;
  p.n = 20;
  p.cutoff = 6;
  sim::SimEngine eng(quick_sim());
  u64 result = 0;
  const Trace t = eng.run("fib", fib_program(eng, p, &result));
  EXPECT_EQ(result, 6765u);
  EXPECT_TRUE(validate_trace(t).empty());
}

TEST(NQueensTest, CountsSolutions) {
  NQueensParams p;
  p.n = 8;
  p.cutoff = 3;
  sim::SimEngine eng(quick_sim());
  long solutions = 0;
  const Trace t = eng.run("nqueens", nqueens_program(eng, p, &solutions));
  EXPECT_EQ(solutions, 92);
  EXPECT_TRUE(validate_trace(t).empty());
}

TEST(NQueensTest, CorrectOnThreadedEngine) {
  NQueensParams p;
  p.n = 8;
  p.cutoff = 3;
  rts::Options o;
  o.num_workers = 4;
  rts::ThreadedEngine eng(o);
  long solutions = 0;
  const Trace t = eng.run("nqueens", nqueens_program(eng, p, &solutions));
  EXPECT_EQ(solutions, 92);
  EXPECT_TRUE(validate_trace(t).empty());
}

TEST(UtsTest, DeterministicUnbalancedTree) {
  UtsParams p;
  p.root_children = 16;
  p.max_depth = 8;
  long a = 0, b = 0;
  {
    sim::SimEngine eng(quick_sim());
    eng.run("uts", uts_program(eng, p, &a));
  }
  {
    sim::SimEngine eng(quick_sim());
    eng.run("uts", uts_program(eng, p, &b));
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 16);
}

TEST(UtsTest, CutoffReducesTaskCount) {
  UtsParams p;
  p.root_children = 16;
  p.max_depth = 10;
  size_t unopt = 0, opt = 0;
  {
    sim::SimEngine eng(quick_sim());
    unopt = eng.run("uts", uts_program(eng, p)).tasks.size();
  }
  {
    UtsParams p2 = p;
    p2.cutoff = 3;
    sim::SimEngine eng(quick_sim());
    opt = eng.run("uts", uts_program(eng, p2)).tasks.size();
  }
  EXPECT_GT(unopt, 2 * opt);
}

TEST(BlackscholesTest, PricesArePositiveAndDeterministic) {
  BlackscholesParams p;
  p.num_options = 5000;
  double s1 = 0.0, s2 = 0.0;
  {
    sim::SimEngine eng(quick_sim());
    const Trace t =
        eng.run("blackscholes", blackscholes_program(eng, p, &s1));
    EXPECT_TRUE(validate_trace(t).empty());
    EXPECT_EQ(t.loops.size(), 1u);
  }
  {
    sim::SimEngine eng(quick_sim());
    eng.run("blackscholes", blackscholes_program(eng, p, &s2));
  }
  EXPECT_GT(s1, 0.0);
  EXPECT_DOUBLE_EQ(s1, s2);
}

TEST(FloorplanTest, ShapeChangesWithSeedButOptimumDoesNot) {
  long best1 = 0, best2 = 0;
  size_t tasks1 = 0, tasks2 = 0;
  {
    FloorplanParams p;
    p.cutoff = p.num_cells;  // tasks everywhere: the explored tree IS the
                             // task tree, as in BOTS floorplan
    p.shape_seed = 1;
    sim::SimEngine eng(quick_sim());
    const Trace t = eng.run("floorplan", floorplan_program(eng, p, &best1));
    tasks1 = t.tasks.size();
  }
  {
    FloorplanParams p;
    p.cutoff = p.num_cells;
    p.shape_seed = 12345;
    sim::SimEngine eng(quick_sim());
    const Trace t = eng.run("floorplan", floorplan_program(eng, p, &best2));
    tasks2 = t.tasks.size();
  }
  EXPECT_EQ(best1, best2);   // optimum is order-independent
  EXPECT_NE(tasks1, tasks2); // executed tree is not (§4.3.6 Floorplan)
}

TEST(HealthTest, DeterministicTreatmentAndPerLevelStructure) {
  apps::HealthParams p;
  p.levels = 4;
  p.branching = 2;
  p.timesteps = 6;
  long a = 0, b = 0;
  {
    sim::SimEngine eng(quick_sim());
    const Trace t = eng.run("health", apps::health_program(eng, p, &a));
    EXPECT_TRUE(validate_trace(t).empty());
    // Per timestep: every non-root village is one task.
    const size_t villages = (1u << 4) - 1;  // full binary tree of 4 levels
    EXPECT_EQ(t.tasks.size(), 1 + p.timesteps * (villages - 1));
    // The hierarchy produces one taskwait (join) per interior village per
    // step plus the root's.
    EXPECT_GT(t.joins.size(), static_cast<size_t>(p.timesteps));
  }
  {
    sim::SimEngine eng(quick_sim());
    eng.run("health", apps::health_program(eng, p, &b));
  }
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

TEST(HealthTest, RunsOnThreadedEngine) {
  apps::HealthParams p;
  p.levels = 3;
  p.timesteps = 4;
  rts::Options o;
  o.num_workers = 4;
  rts::ThreadedEngine eng(o);
  long treated = 0;
  const Trace t = eng.run("health", apps::health_program(eng, p, &treated));
  EXPECT_GT(treated, 0);
  EXPECT_TRUE(validate_trace(t).empty());
}

TEST(OthersTest, BotsalgnHealthy) {
  BotsalgnParams p;
  p.num_sequences = 40;
  p.seq_len = 64;
  sim::SimEngine eng(quick_sim());
  long score = 0;
  const Trace t = eng.run("botsalgn", botsalgn_program(eng, p, &score));
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.tasks.size(), 40u);  // root + 39 alignments
  EXPECT_NE(score, 0);
}

TEST(OthersTest, ImagickLoopsPresent) {
  ImagickParams p;
  p.rows = 64;
  p.columns = 128;
  sim::SimEngine eng(quick_sim());
  double sum = 0.0;
  const Trace t = eng.run("imagick", imagick_program(eng, p, &sum));
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.loops.size(), 7u);
  EXPECT_GT(sum, 0.0);
}

TEST(OthersTest, SmithwaTwoBlocks) {
  SmithwaParams p;
  p.matrix_dim = 64;
  sim::SimEngine eng(quick_sim());
  long best = 0;
  const Trace t = eng.run("smithwa", smithwa_program(eng, p, &best));
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.loops.size(), 2u);
  EXPECT_GT(best, 0);
}

TEST(OthersTest, BodytrackFramesAndLoops) {
  BodytrackParams p;
  p.frames = 2;
  p.particles = 64;
  p.image_rows = 32;
  sim::SimEngine eng(quick_sim());
  double lh = 0.0;
  const Trace t = eng.run("bodytrack", bodytrack_program(eng, p, &lh));
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(t.loops.size(), 6u);  // 3 loops x 2 frames
  EXPECT_GT(lh, 0.0);
}

}  // namespace
}  // namespace gg::apps
