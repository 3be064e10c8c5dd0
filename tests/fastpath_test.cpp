// Fast-path equivalence suite: every codec must hand back the trace it was
// given, and the parallel metric passes must be drop-in replacements. A
// save then load through text, .ggbin or a spool must return the in-memory
// trace record for record, and every analysis output (report, GraphML, CSV,
// JSON summary) must be byte-identical to the original's with serial
// metrics — on the committed golden corpus, on a sweep of generator-seeded
// traces, and across --threads settings.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "export/grain_csv.hpp"
#include "export/graphml.hpp"
#include "export/json_summary.hpp"
#include "trace/fast_parse.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

#ifndef GG_GOLDEN_DIR
#error "GG_GOLDEN_DIR must point at the committed corpus"
#endif

namespace gg {
namespace {

/// Every deterministic analysis output of one trace as a single byte
/// string. Any codec- or thread-count-dependent behavior shows up as a
/// byte diff here.
std::string analysis_bytes(const Trace& trace, int threads) {
  AnalysisOptions opts;
  opts.threads = threads;
  opts.metrics.threads = threads;
  const Analysis a = analyze(trace, Topology::generic4(), opts);
  std::ostringstream os;
  os << render_report(trace, a);
  write_graphml(os, a.graph, trace, &a.grains, &a.metrics, GraphMlOptions{});
  write_grain_csv(os, trace, a.grains, a.metrics);
  write_json_summary(os, trace, a);
  return os.str();
}

/// Requires `got` to hold exactly `want`'s metadata, strings and records.
void expect_same_trace(const Trace& want, const Trace& got,
                       const std::string& what) {
  const TraceMeta& a = want.meta;
  const TraceMeta& b = got.meta;
  EXPECT_EQ(a.program, b.program) << what;
  EXPECT_EQ(a.runtime, b.runtime) << what;
  EXPECT_EQ(a.topology, b.topology) << what;
  EXPECT_EQ(a.num_workers, b.num_workers) << what;
  EXPECT_EQ(a.num_cores, b.num_cores) << what;
  EXPECT_EQ(a.ghz, b.ghz) << what;
  EXPECT_EQ(a.region_start, b.region_start) << what;
  EXPECT_EQ(a.region_end, b.region_end) << what;
  EXPECT_EQ(a.notes, b.notes) << what;
  EXPECT_EQ(a.profiled, b.profiled) << what;
  EXPECT_EQ(a.trace_buffer_bytes, b.trace_buffer_bytes) << what;
  EXPECT_EQ(a.clock_source, b.clock_source) << what;
  EXPECT_EQ(want.strings.all(), got.strings.all()) << what;
  EXPECT_TRUE(want.tasks == got.tasks) << what << ": tasks";
  EXPECT_TRUE(want.fragments == got.fragments) << what << ": fragments";
  EXPECT_TRUE(want.joins == got.joins) << what << ": joins";
  EXPECT_TRUE(want.loops == got.loops) << what << ": loops";
  EXPECT_TRUE(want.chunks == got.chunks) << what << ": chunks";
  EXPECT_TRUE(want.bookkeeps == got.bookkeeps) << what << ": bookkeeps";
  EXPECT_TRUE(want.depends == got.depends) << what << ": depends";
  EXPECT_TRUE(want.worker_stats == got.worker_stats)
      << what << ": worker stats";
}

enum class Codec { Text, Binary, Spool };
constexpr Codec kCodecs[] = {Codec::Text, Codec::Binary, Codec::Spool};

const char* name_of(Codec c) {
  switch (c) {
    case Codec::Text: return "text";
    case Codec::Binary: return "binary";
    case Codec::Spool: return "spool";
  }
  return "?";
}

/// Spool recovery of `bytes`, which must be a clean, complete spool.
Trace recover_clean(const std::string& bytes, const std::string& what) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  EXPECT_TRUE(rr.usable && !rr.report.partial() &&
              rr.report.frames_corrupt == 0)
      << what << ": " << rr.report.summary();
  return std::move(rr.trace);
}

/// Saves `t` with one codec and loads it back (strict, parallel decode).
Trace round_trip(const Trace& t, Codec codec) {
  if (codec == Codec::Spool) {
    return recover_clean(spool::spool_trace_bytes(t, /*epoch_bytes=*/4096),
                         "spool round trip");
  }
  std::ostringstream os;
  LoadOptions lo;
  lo.mode = LoadMode::Strict;
  lo.threads = 0;
  LoadResult lr;
  if (codec == Codec::Text) {
    save_trace(t, os);
    std::istringstream is(os.str());
    lr = load_trace_ex(is, lo);
  } else {
    save_trace_binary(t, os);
    std::istringstream is(os.str());
    lr = load_trace_binary_ex(is, lo);
  }
  EXPECT_TRUE(lr.usable()) << name_of(codec) << ": " << lr.describe();
  return lr.trace.value_or(Trace{});
}

Trace load_file(const std::string& path) {
  LoadOptions lo;
  lo.mode = LoadMode::Strict;
  LoadResult lr = load_trace_file_ex(path, lo);
  EXPECT_TRUE(lr.usable()) << path << ": " << lr.describe();
  return lr.trace.value_or(Trace{});
}

std::string read_file(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(read_file_contents(path, bytes)) << path;
  return bytes;
}

class GoldenFastPathTest : public ::testing::TestWithParam<const char*> {};

// The committed .ggtrace is the in-memory reference: the committed .ggbin
// and .ggspool hold the same trace, every codec hands it back unchanged,
// and the full output matches the reference's serial output at every
// thread setting.
TEST_P(GoldenFastPathTest, CodecsReturnTheInMemoryTrace) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  const Trace reference = load_file(base + ".ggtrace");
  const std::string expected = analysis_bytes(reference, /*threads=*/1);
  EXPECT_EQ(expected, analysis_bytes(reference, /*threads=*/0));

  expect_same_trace(reference, load_file(base + ".ggbin"), "committed .ggbin");
  expect_same_trace(reference,
                    recover_clean(read_file(base + ".ggspool"), base),
                    "committed .ggspool");
  for (const Codec codec : kCodecs) {
    const Trace back = round_trip(reference, codec);
    expect_same_trace(reference, back, name_of(codec));
    EXPECT_EQ(expected, analysis_bytes(back, /*threads=*/0))
        << name_of(codec);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenFastPathTest,
                         ::testing::Values("tasks_mir4", "loops_gcc2",
                                           "exact_zero1"));

// 50 generator-seeded traces through every codec: each load must return the
// original record for record, and the full analysis output must match the
// original's.
TEST(FastPathSweepTest, FiftySeededTracesAgree) {
  for (u64 seed = 1; seed <= 50; ++seed) {
    SynthOptions sopts;
    sopts.seed = seed;
    sopts.grains = 300 + (seed % 7) * 100;
    sopts.workers = 2 + static_cast<int>(seed % 7);
    sopts.loop_fraction = (seed % 3) * 0.3;
    const Trace trace = synth_trace(sopts);
    ASSERT_TRUE(validate_trace_structured(trace).violations.empty())
        << "seed " << seed;
    const std::string expected = analysis_bytes(trace, /*threads=*/1);
    for (const Codec codec : kCodecs) {
      const std::string what =
          std::string(name_of(codec)) + " seed " + std::to_string(seed);
      const Trace back = round_trip(trace, codec);
      expect_same_trace(trace, back, what);
      ASSERT_EQ(expected, analysis_bytes(back, /*threads=*/0)) << what;
    }
  }
}

// The parallel metric passes (and, via analysis_bytes, the sharded graph
// and grain-table builders) must be bit-deterministic: any thread count
// (serial, small, large, auto) yields identical bytes.
TEST(FastPathThreadsTest, ThreadCountNeverChangesOutput) {
  SynthOptions sopts;
  sopts.seed = 99;
  sopts.grains = 5000;
  sopts.workers = 8;
  const Trace trace = synth_trace(sopts);
  const std::string serial = analysis_bytes(trace, /*threads=*/1);
  EXPECT_EQ(serial, analysis_bytes(trace, /*threads=*/0));
  EXPECT_EQ(serial, analysis_bytes(trace, /*threads=*/4));
  EXPECT_EQ(serial, analysis_bytes(trace, /*threads=*/8));
  // And across repeated runs at the same setting.
  EXPECT_EQ(analysis_bytes(trace, 0), analysis_bytes(trace, 0));
}

// The sharded graph build and grain derivation at a size where the shards
// genuinely run in parallel (well past the serial-fallback threshold): node
// ids, edge order, topological order, and every grain row must be the exact
// serial result for every thread count, odd ones included, since the work
// cuts move with the thread count (and several fall inside the root task's
// fragments). The trace round-trips through the binary format so the
// parallel section decoder is in the loop too.
TEST(FastPathThreadsTest, ShardedBuildersDeterministicAtScale) {
  SynthOptions sopts;
  sopts.seed = 123;
  sopts.grains = 30000;
  sopts.workers = 8;
  sopts.loop_fraction = 0.4;
  const Trace synthesized = synth_trace(sopts);
  std::ostringstream bin;
  save_trace_binary(synthesized, bin);

  // Parallel binary decode: identical trace for every load thread count.
  std::string serial_trace_bytes;
  for (const int threads : {1, 2, 4, 8}) {
    LoadOptions lo;
    lo.mode = LoadMode::Strict;
    lo.threads = threads;
    std::istringstream is(bin.str());
    const LoadResult lr = load_trace_binary_ex(is, lo);
    ASSERT_TRUE(lr.usable()) << "threads " << threads << ": "
                             << lr.describe();
    std::ostringstream rt;
    save_trace_binary(*lr.trace, rt);
    if (threads == 1) {
      serial_trace_bytes = rt.str();
    } else {
      EXPECT_EQ(serial_trace_bytes, rt.str()) << "threads " << threads;
    }
  }

  // GGSPOOL1 round trip. 8 workers' epochs interleave in the stream, so
  // recovery's finalize really sorts. At every thread count the recovered
  // trace and the report must equal the 1-thread recovery, for the clean
  // spool (which must also give back the original trace) and a torn copy.
  const std::string spooled = spool::spool_trace_bytes(synthesized, 16 * 1024);
  const std::string torn = spooled.substr(0, spooled.size() * 2 / 3);
  for (const std::string* bytes : {&spooled, &torn}) {
    const char* what = bytes == &spooled ? "clean spool" : "torn spool";
    std::string want_trace, want_report;
    for (const int threads : {1, 2, 4, 8}) {
      const spool::RecoverResult rr =
          spool::recover_spool_bytes(*bytes, threads);
      ASSERT_TRUE(rr.usable) << what << ", threads " << threads << ": "
                             << rr.report.summary();
      std::ostringstream rt;
      save_trace_binary(rr.trace, rt);
      std::string report = rr.report.summary();
      for (const std::string& d : rr.report.diagnostics) report += "\n" + d;
      if (threads == 1) {
        want_trace = rt.str();
        want_report = report;
      } else {
        EXPECT_EQ(want_trace, rt.str()) << what << ", threads " << threads;
        EXPECT_EQ(want_report, report) << what << ", threads " << threads;
      }
    }
    if (bytes == &spooled) {
      EXPECT_EQ(serial_trace_bytes, want_trace);
    } else {
      EXPECT_NE(want_report.find("frame"), std::string::npos) << want_report;
    }
  }

  // Sharded builders: structural identity against the serial build.
  const GrainGraph g1 = GrainGraph::build(synthesized, /*threads=*/1);
  const GrainTable t1 = GrainTable::build(synthesized, /*threads=*/1);
  auto graph_bytes = [&](const GrainGraph& g) {
    std::ostringstream os;
    write_graphml(os, g, synthesized, nullptr, nullptr, GraphMlOptions{});
    for (const u32 n : g.topo_order()) os << n << ',';
    return os.str();
  };
  auto table_bytes = [&](const GrainTable& t) {
    std::ostringstream os;
    for (size_t i = 0; i < t.size(); ++i) {
      const Grain& g = t.grains()[i];
      os << static_cast<int>(g.kind) << '|' << g.task << '|' << g.loop << '|'
         << g.thread << '|' << g.chunk_seq << '|' << t.path(i) << '|' << g.src
         << '|' << g.parent << '|' << g.first_start << '|' << g.last_end
         << '|' << g.exec_time << '|' << g.core << '|' << g.n_fragments
         << '|' << g.n_children << '|' << g.inlined << '|' << g.creation_cost
         << '|' << g.sync_cost << '\n';
    }
    return os.str();
  };
  const std::string g_serial = graph_bytes(g1);
  const std::string t_serial = table_bytes(t1);
  for (const int threads : {2, 3, 4, 5, 7, 8}) {
    EXPECT_EQ(g_serial, graph_bytes(GrainGraph::build(synthesized, threads)))
        << "graph differs at " << threads << " threads";
    EXPECT_EQ(t_serial, table_bytes(GrainTable::build(synthesized, threads)))
        << "grain table differs at " << threads << " threads";
  }
}

}  // namespace
}  // namespace gg
