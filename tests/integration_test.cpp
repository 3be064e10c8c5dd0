// Cross-module integration tests: app -> engine -> trace -> (serialize) ->
// graph -> metrics -> analysis -> export, and threaded-vs-simulated
// structural equality.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "analysis/report.hpp"
#include "apps/fib.hpp"
#include "apps/nqueens.hpp"
#include "apps/sort.hpp"
#include "apps/sparselu.hpp"
#include "export/graphml.hpp"
#include "export/grain_csv.hpp"
#include "export/json_summary.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/capture.hpp"
#include "sim/sim_engine.hpp"
#include "trace/serialize.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

/// Strict and unvalidated: the round trips compare records, not structure.
constexpr LoadOptions kStrictRaw{LoadMode::Strict, false};

using front::Ctx;

std::set<std::string> path_set(const Trace& t) {
  std::set<std::string> out;
  const GrainTable table = GrainTable::build(t);
  for (size_t i = 0; i < table.size(); ++i) out.insert(table.path(i));
  return out;
}

// The defining property of grain graphs (§3.1): for a deterministic task
// program, the structure is independent of the runtime, machine size, and
// scheduling. The REAL threaded runtime and the simulator must produce
// identical grain-id sets.
TEST(IntegrationTest, ThreadedAndSimulatedRunsShareGrainIds) {
  auto make_fib = [](front::Engine& e) {
    apps::FibParams p;
    p.n = 16;
    p.cutoff = 6;
    return apps::fib_program(e, p);
  };
  rts::Options ro;
  ro.num_workers = 3;
  rts::ThreadedEngine threaded(ro);
  const Trace t_real = threaded.run("fib", make_fib(threaded));

  sim::SimOptions so;
  so.num_cores = 48;
  sim::SimEngine simulated(so);
  const Trace t_sim = simulated.run("fib", make_fib(simulated));

  EXPECT_TRUE(validate_trace(t_real).empty());
  EXPECT_TRUE(validate_trace(t_sim).empty());
  EXPECT_EQ(path_set(t_real), path_set(t_sim));
}

TEST(IntegrationTest, GrainIdsStableAcrossSchedulersAndCores) {
  auto make = [](front::Engine& e) {
    apps::NQueensParams p;
    p.n = 7;
    p.cutoff = 3;
    return apps::nqueens_program(e, p);
  };
  std::set<std::string> reference;
  bool first = true;
  for (auto pol : {sim::SimPolicy::mir(), sim::SimPolicy::gcc(),
                   sim::SimPolicy::icc(), sim::SimPolicy::mir_central()}) {
    for (int cores : {1, 13, 48}) {
      sim::SimOptions o;
      o.policy = pol;
      o.num_cores = cores;
      sim::SimEngine eng(o);
      const Trace t = eng.run("nqueens", make(eng));
      const auto paths = path_set(t);
      if (first) {
        reference = paths;
        first = false;
      } else {
        EXPECT_EQ(paths, reference) << pol.name << "/" << cores;
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(IntegrationTest, TextAndBinarySerializationAgree) {
  sim::SimOptions o;
  o.num_cores = 8;
  sim::SimEngine eng(o);
  apps::SortParams p;
  p.num_elements = 1 << 14;
  p.quick_cutoff = 1 << 11;
  p.merge_cutoff = 1 << 11;
  const Trace original = eng.run("sort", apps::sort_program(eng, p));

  std::stringstream text, binary;
  save_trace(original, text);
  save_trace_binary(original, binary);
  const LoadResult from_text = load_trace_ex(text, kStrictRaw);
  const LoadResult from_binary = load_trace_binary_ex(binary, kStrictRaw);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_binary.ok());

  // Both round trips re-serialize to identical text.
  std::stringstream a, b, c;
  save_trace(original, a);
  save_trace(*from_text.trace, b);
  save_trace(*from_binary.trace, c);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str(), c.str());
}

TEST(IntegrationTest, BinaryRejectsGarbageAndTruncation) {
  std::stringstream bad("not a binary trace at all");
  EXPECT_FALSE(load_trace_binary_ex(bad, kStrictRaw).ok());

  sim::SimOptions o;
  o.num_cores = 2;
  sim::SimEngine eng(o);
  apps::FibParams p;
  p.n = 8;
  p.cutoff = 4;
  const Trace t = eng.run("fib", apps::fib_program(eng, p));
  std::stringstream full;
  save_trace_binary(t, full);
  const std::string bytes = full.str();
  for (size_t cut : {size_t{3}, bytes.size() / 2, bytes.size() - 4}) {
    std::stringstream truncated(bytes.substr(0, cut));
    const LoadResult lr = load_trace_binary_ex(truncated, kStrictRaw);
    EXPECT_FALSE(lr.ok()) << cut;
    ASSERT_NE(lr.first_error(), nullptr) << cut;
    EXPECT_FALSE(lr.first_error()->message.empty());
  }
}

TEST(IntegrationTest, FileRoundTripByExtension) {
  sim::SimOptions o;
  o.num_cores = 4;
  sim::SimEngine eng(o);
  apps::FibParams p;
  p.n = 10;
  p.cutoff = 4;
  const Trace t = eng.run("fib", apps::fib_program(eng, p));
  for (const char* path : {"/tmp/gg_it.ggtrace", "/tmp/gg_it.ggbin"}) {
    ASSERT_TRUE(save_trace_file(t, path));
    const LoadResult loaded = load_trace_file_ex(path, kStrictRaw);
    ASSERT_TRUE(loaded.ok()) << loaded.describe();
    EXPECT_EQ(loaded.trace->tasks.size(), t.tasks.size());
    EXPECT_EQ(loaded.trace->makespan(), t.makespan());
  }
}

TEST(IntegrationTest, AnalysisSurvivesSerializationRoundTrip) {
  sim::SimOptions o;
  o.num_cores = 16;
  sim::SimEngine eng(o);
  apps::SparseLuParams p;
  p.blocks = 6;
  p.block_size = 8;
  const Trace t = eng.run("sparselu", apps::sparselu_program(eng, p));
  std::stringstream ss;
  save_trace_binary(t, ss);
  const LoadResult loaded = load_trace_binary_ex(ss, kStrictRaw);
  ASSERT_TRUE(loaded.ok());

  const Analysis a1 = analyze(t, Topology::opteron48());
  const Analysis a2 = analyze(*loaded.trace, Topology::opteron48());
  EXPECT_EQ(a1.grains.size(), a2.grains.size());
  EXPECT_EQ(a1.metrics.critical_path_time, a2.metrics.critical_path_time);
  for (size_t i = 0; i < kProblemCount; ++i) {
    EXPECT_EQ(a1.problems[i].flagged_count, a2.problems[i].flagged_count) << i;
  }
}

TEST(IntegrationTest, ExportsProduceParsableOutput) {
  sim::SimOptions o;
  o.num_cores = 4;
  sim::SimEngine eng(o);
  apps::FibParams p;
  p.n = 10;
  p.cutoff = 5;
  const Trace t = eng.run("fib", apps::fib_program(eng, p));
  const Analysis a = analyze(t, Topology::generic4());

  std::ostringstream json;
  write_json_summary(json, t, a);
  const std::string js = json.str();
  // Structural sanity: balanced braces/brackets, expected keys.
  long depth = 0;
  for (char c : js) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(js.find("\"critical_path_ns\""), std::string::npos);
  EXPECT_NE(js.find("\"low parallel benefit\""), std::string::npos);

  std::ostringstream csv;
  write_grain_csv(csv, t, a.grains, a.metrics);
  size_t lines = 0;
  for (char c : csv.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, a.grains.size() + 1);
}

TEST(IntegrationTest, ReportMentionsEverySourceLocation) {
  sim::SimOptions o;
  o.num_cores = 8;
  sim::SimEngine eng(o);
  const Trace t = eng.run("multi_src", [](Ctx& ctx) {
    ctx.spawn(GG_SRC_NAMED("a.c", 1, "alpha"), [](Ctx& c) { c.compute(1000); });
    ctx.spawn(GG_SRC_NAMED("b.c", 2, "beta"), [](Ctx& c) { c.compute(2000); });
    ctx.taskwait();
  });
  const Analysis a = analyze(t, Topology::generic4());
  const std::string report = render_report(t, a);
  EXPECT_NE(report.find("a.c:1(alpha)"), std::string::npos);
  EXPECT_NE(report.find("b.c:2(beta)"), std::string::npos);
}

}  // namespace
}  // namespace gg
