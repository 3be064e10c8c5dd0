// Self-telemetry layer tests: deterministic histogram merges across thread
// counts, Prometheus exposition grammar, the binary 'T'-frame payload codec,
// spool round-trips (live monitoring, crash recovery of the last snapshot,
// corrupt-frame degradation), and the compiled-in-but-off contract — a null
// registry must leave engine output bit-identical.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "front/front.hpp"
#include "graph/grain_graph.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sim/capture.hpp"
#include "sim/des.hpp"
#include "sim/program.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"

namespace gg {
namespace {

using front::Ctx;

// ---------------------------------------------------------------------------
// Counters / histograms

TEST(ObsCounterTest, ShardedAddsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (u64 i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsHistogramTest, BucketBoundaries) {
  obs::Histogram h;
  h.observe(0);    // bucket 0: exactly {0}
  h.observe(1);    // bucket 1: [1, 1]
  h.observe(2);    // bucket 2: [2, 3]
  h.observe(3);    // bucket 2
  h.observe(4);    // bucket 3: [4, 7]
  h.observe(255);  // bucket 8: [128, 255]
  const obs::HistogramSnapshot s = h.snapshot_values();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 255);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 255u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 2u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.counts[8], 1u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(8), 255u);
}

/// The same multiset of observations must merge to the same snapshot no
/// matter how many threads (and which shards) recorded it.
TEST(ObsHistogramTest, MergeDeterministicAcrossThreadCounts) {
  std::vector<u64> values;
  u64 x = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x >> (x % 50));
  }
  obs::HistogramSnapshot reference;
  {
    obs::Histogram h;
    for (u64 v : values) h.observe(v);
    reference = h.snapshot_values();
  }
  for (int nthreads : {2, 4, 8}) {
    obs::Histogram h;
    std::vector<std::thread> threads;
    const size_t chunk = values.size() / static_cast<size_t>(nthreads);
    for (int t = 0; t < nthreads; ++t) {
      const size_t lo = static_cast<size_t>(t) * chunk;
      const size_t hi =
          t == nthreads - 1 ? values.size() : lo + chunk;
      threads.emplace_back([&h, &values, lo, hi] {
        for (size_t i = lo; i < hi; ++i) h.observe(values[i]);
      });
    }
    for (auto& t : threads) t.join();
    const obs::HistogramSnapshot s = h.snapshot_values();
    EXPECT_EQ(s.count, reference.count) << nthreads << " threads";
    EXPECT_EQ(s.sum, reference.sum) << nthreads << " threads";
    EXPECT_EQ(s.min, reference.min) << nthreads << " threads";
    EXPECT_EQ(s.max, reference.max) << nthreads << " threads";
    EXPECT_EQ(s.counts, reference.counts) << nthreads << " threads";
  }
}

TEST(ObsRegistryTest, InstancesAreIsolated) {
  obs::Registry a, b;
  a.counter("x")->add(3);
  b.counter("x")->add(5);
  a.gauge("g")->set(1.5);
  EXPECT_EQ(a.snapshot().counters.at("x"), 3u);
  EXPECT_EQ(b.snapshot().counters.at("x"), 5u);
  EXPECT_EQ(b.snapshot().gauges.count("g"), 0u);
  // Same name, same handle (call sites cache pointers).
  EXPECT_EQ(a.counter("x"), a.counter("x"));
}

// ---------------------------------------------------------------------------
// Exposition formats

obs::MetricsSnapshot sample_snapshot() {
  obs::Registry reg;
  reg.counter("engine.tasks_executed")->add(42);
  reg.counter("spool.frames_written")->add(7);
  reg.gauge("engine.progress")->set(123.0);
  reg.gauge("engine.worker.0.heartbeat")->set(9.0);
  obs::Histogram* h = reg.histogram("engine.task_latency_ns");
  for (u64 v : {0ULL, 5ULL, 1000ULL, 70000ULL, 70001ULL}) h->observe(v);
  obs::MetricsSnapshot s = reg.snapshot();
  s.ts_ns = 123456789;
  return s;
}

TEST(ObsExpositionTest, PrometheusGrammar) {
  const std::string text = obs::render_prometheus(sample_snapshot());
  std::istringstream is(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0)
      continue;
    // Sample line: metric_name[{labels}] value
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    for (char ch : name_part.substr(0, name_part.find('{'))) {
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_')
          << line;
    }
    EXPECT_EQ(name_part.rfind("gg_", 0), 0u) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  // Histogram series must be present, cumulative, and capped by +Inf.
  EXPECT_NE(text.find("gg_engine_task_latency_ns_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("gg_engine_task_latency_ns_count 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gg_engine_tasks_executed counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gg_engine_progress gauge"), std::string::npos);
}

TEST(ObsExpositionTest, JsonRendersEveryMetric) {
  const std::string json = obs::render_json(sample_snapshot());
  EXPECT_NE(json.find("\"engine.tasks_executed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"engine.progress\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.task_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"ts_ns\":123456789"), std::string::npos);
}

TEST(ObsPayloadTest, RoundTripsExactly) {
  const obs::MetricsSnapshot in = sample_snapshot();
  const std::string payload = obs::encode_telemetry_payload(in);
  obs::MetricsSnapshot out;
  ASSERT_TRUE(obs::decode_telemetry_payload(payload, &out));
  EXPECT_EQ(out.ts_ns, in.ts_ns);
  EXPECT_EQ(out.counters, in.counters);
  EXPECT_EQ(out.gauges, in.gauges);
  ASSERT_EQ(out.histograms.size(), in.histograms.size());
  for (const auto& [name, h] : in.histograms) {
    ASSERT_EQ(out.histograms.count(name), 1u);
    const obs::HistogramSnapshot& o = out.histograms.at(name);
    EXPECT_EQ(o.count, h.count);
    EXPECT_EQ(o.sum, h.sum);
    EXPECT_EQ(o.min, h.min);
    EXPECT_EQ(o.max, h.max);
    EXPECT_EQ(o.counts, h.counts);
  }
}

TEST(ObsPayloadTest, DecodeRejectsDamage) {
  const std::string payload =
      obs::encode_telemetry_payload(sample_snapshot());
  obs::MetricsSnapshot out;
  EXPECT_FALSE(obs::decode_telemetry_payload("", &out));
  EXPECT_FALSE(obs::decode_telemetry_payload(
      payload.substr(0, payload.size() / 2), &out));
  std::string bad_version = payload;
  bad_version[0] = 9;
  EXPECT_FALSE(obs::decode_telemetry_payload(bad_version, &out));
}

// ---------------------------------------------------------------------------
// Spans

TEST(ObsSpanTest, ChromeExportContainsSpans) {
  obs::SpanTracer tracer;
  tracer.record("analysis.graph", 0, 1000, 5000);
  tracer.record("metrics.scatter", 1, 2000, 3000);
  std::ostringstream os;
  obs::write_chrome_spans(os, tracer.spans());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("analysis.graph"), std::string::npos);
  EXPECT_NE(json.find("metrics.scatter"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsSpanTest, PhaseSpanIsInertWithoutContext) {
  obs::install(nullptr);
  { obs::PhaseSpan span("should.not.record"); }
  obs::Telemetry telem;
  obs::install(&telem);
  { obs::PhaseSpan span("should.record"); }
  obs::install(nullptr);
  ASSERT_EQ(telem.tracer.spans().size(), 1u);
  EXPECT_EQ(telem.tracer.spans()[0].name, "should.record");
}

TEST(ObsSpanTest, SpoolRecoveryPhasesNestInTheCallersSpan) {
  SynthOptions so;
  so.seed = 5;
  so.grains = 2000;
  const std::string bytes =
      spool::spool_trace_bytes(synth_trace(so), 4 * 1024);
  obs::Telemetry telem;
  obs::install(&telem);
  bool usable = false;
  {
    obs::PhaseSpan caller("caller.load");
    usable = spool::recover_spool_bytes(bytes, 2).usable;
  }
  obs::install(nullptr);
  EXPECT_TRUE(usable);
  // A span is recorded when it ends: the phases in order, then the caller.
  const std::vector<obs::SpanRec> spans = telem.tracer.spans();
  const std::vector<std::string> want = {"spool.walk", "spool.verify",
                                         "spool.apply", "spool.place",
                                         "spool.finalize", "caller.load"};
  ASSERT_EQ(spans.size(), want.size());
  const obs::SpanRec& caller = spans.back();
  u64 prev_end = caller.start_ns;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].name, want[i]);
    if (i + 1 == want.size()) break;
    EXPECT_GE(spans[i].start_ns, prev_end) << spans[i].name;
    EXPECT_LE(spans[i].end_ns, caller.end_ns) << spans[i].name;
    prev_end = spans[i].end_ns;
  }
}

TEST(ObsSpanTest, GraphBuildPhasesNestInTheCallersSpan) {
  SynthOptions so;
  so.seed = 5;
  so.grains = 2000;
  const Trace trace = synth_trace(so);
  obs::Telemetry telem;
  obs::install(&telem);
  size_t nodes = 0;
  {
    obs::PhaseSpan caller("caller.graph");
    nodes = GrainGraph::build(trace, 2).node_count();
  }
  obs::install(nullptr);
  EXPECT_GT(nodes, 0u);
  // Each phase once, in order, inside the caller's span.
  const std::vector<obs::SpanRec> spans = telem.tracer.spans();
  const std::vector<std::string> want = {
      "graph.fragments", "graph.count",    "graph.wire",
      "graph.epilogue",  "graph.finalize", "caller.graph"};
  ASSERT_EQ(spans.size(), want.size());
  const obs::SpanRec& caller = spans.back();
  u64 prev_end = caller.start_ns;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].name, want[i]);
    if (i + 1 == want.size()) break;
    EXPECT_GE(spans[i].start_ns, prev_end) << spans[i].name;
    EXPECT_LE(spans[i].end_ns, caller.end_ns) << spans[i].name;
    prev_end = spans[i].end_ns;
  }
}

TEST(ObsSpanTest, GrainTableAndProblemPhasesNestInTheirStages) {
  SynthOptions so;
  so.seed = 5;
  so.grains = 2000;
  so.loop_fraction = 0.4;
  const Trace trace = synth_trace(so);
  obs::Telemetry telem;
  obs::install(&telem);
  AnalysisOptions opts;
  opts.threads = 2;
  opts.metrics.threads = 2;
  const Analysis a = analyze(trace, Topology::generic4(), opts);
  obs::install(nullptr);
  EXPECT_GT(a.grains.size(), 0u);
  const std::vector<obs::SpanRec> spans = telem.tracer.spans();
  // Each phase once, in order, inside its stage's span.
  auto expect_nested = [&](const std::string& stage,
                           const std::vector<std::string>& phases) {
    const auto find = [&](const std::string& name) {
      size_t at = spans.size();
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != name) continue;
        EXPECT_EQ(at, spans.size()) << name << " recorded twice";
        at = i;
      }
      return at;
    };
    const size_t s = find(stage);
    ASSERT_LT(s, spans.size()) << stage;
    u64 prev_end = spans[s].start_ns;
    for (const std::string& phase : phases) {
      const size_t p = find(phase);
      ASSERT_LT(p, spans.size()) << phase;
      EXPECT_GE(spans[p].start_ns, prev_end) << phase;
      EXPECT_LE(spans[p].end_ns, spans[s].end_ns) << phase;
      prev_end = spans[p].end_ns;
    }
  };
  expect_nested("analysis.grains",
                {"grains.tasks", "grains.sync", "grains.chunks"});
  expect_nested("analysis.problems", {"problems.views", "problems.sources"});
}

// ---------------------------------------------------------------------------
// 'T' frames in the spool

std::vector<std::string> sample_payloads(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    obs::Registry reg;
    reg.counter("engine.tasks_executed")->add(static_cast<u64>(10 * (i + 1)));
    reg.gauge("engine.progress")->set(static_cast<double>(i + 1));
    obs::MetricsSnapshot s = reg.snapshot();
    s.ts_ns = static_cast<u64>(1000 + i);
    out.push_back(obs::encode_telemetry_payload(s));
  }
  return out;
}

TEST(ObsSpoolTest, TelemetryFramesRoundTrip) {
  SynthOptions so;
  so.seed = 7;
  so.grains = 300;
  const Trace trace = synth_trace(so);
  const std::vector<std::string> payloads = sample_payloads(3);
  const std::string bytes = spool::spool_trace_bytes(trace, 4 * 1024, payloads);

  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(rr.usable);
  EXPECT_TRUE(rr.report.clean_footer);
  EXPECT_EQ(rr.report.telemetry_frames, 3u);
  EXPECT_EQ(rr.report.telemetry_corrupt, 0u);
  // The last snapshot wins.
  EXPECT_EQ(rr.report.telemetry, payloads.back());
  obs::MetricsSnapshot snap;
  ASSERT_TRUE(obs::decode_telemetry_payload(rr.report.telemetry, &snap));
  EXPECT_EQ(snap.counters.at("engine.tasks_executed"), 30u);
  EXPECT_EQ(snap.gauges.at("engine.progress"), 3.0);
  // Telemetry must not perturb the recovered records.
  std::ostringstream with_t, without_t;
  save_trace(rr.trace, with_t);
  spool::RecoverResult plain =
      spool::recover_spool_bytes(spool::spool_trace_bytes(trace, 4 * 1024));
  ASSERT_TRUE(plain.usable);
  save_trace(plain.trace, without_t);
  EXPECT_EQ(with_t.str(), without_t.str());
}

TEST(ObsSpoolTest, CrashedRunKeepsLastSnapshot) {
  SynthOptions so;
  so.seed = 11;
  so.grains = 300;
  const Trace trace = synth_trace(so);
  const std::vector<std::string> payloads = sample_payloads(2);
  std::string bytes = spool::spool_trace_bytes(trace, 4 * 1024, payloads);
  // Chop the clean footer (and any trailing bytes) to model a crash after
  // the last telemetry frame was durably written.
  const std::vector<spool::FrameSpan> frames = spool::scan_frames(bytes);
  ASSERT_FALSE(frames.empty());
  const spool::FrameSpan& last = frames.back();
  ASSERT_EQ(last.type, spool::FrameType::CleanFooter);
  bytes.resize(last.offset);

  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(rr.usable);
  EXPECT_TRUE(rr.report.partial());
  EXPECT_EQ(rr.report.telemetry_frames, 2u);
  EXPECT_EQ(rr.report.telemetry, payloads.back());
  obs::MetricsSnapshot snap;
  EXPECT_TRUE(obs::decode_telemetry_payload(rr.report.telemetry, &snap));
}

TEST(ObsSpoolTest, CorruptTelemetryDegradesWithoutDamage) {
  SynthOptions so;
  so.seed = 13;
  so.grains = 300;
  const Trace trace = synth_trace(so);
  const std::vector<std::string> payloads = sample_payloads(1);
  std::string bytes = spool::spool_trace_bytes(trace, 4 * 1024, payloads);
  bool flipped = false;
  for (const spool::FrameSpan& f : spool::scan_frames(bytes)) {
    if (f.type == spool::FrameType::Telemetry) {
      bytes[f.offset + spool::kFrameHeaderBytes] ^= 0x40;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);

  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(rr.usable);
  // Telemetry-only corruption: advisory channel lost, trace undamaged.
  EXPECT_EQ(rr.report.telemetry_corrupt, 1u);
  EXPECT_EQ(rr.report.telemetry_frames, 0u);
  EXPECT_TRUE(rr.report.telemetry.empty());
  EXPECT_EQ(rr.report.frames_corrupt, 0u);
  EXPECT_TRUE(rr.report.clean_footer);
  EXPECT_FALSE(rr.trace.meta.recovered());
  // Records survive byte-for-byte.
  std::ostringstream corrupted, clean;
  save_trace(rr.trace, corrupted);
  spool::RecoverResult cr =
      spool::recover_spool_bytes(spool::spool_trace_bytes(trace, 4 * 1024));
  ASSERT_TRUE(cr.usable);
  save_trace(cr.trace, clean);
  EXPECT_EQ(corrupted.str(), clean.str());
}

// ---------------------------------------------------------------------------
// Engines: modeled telemetry + the compiled-in-but-off contract

sim::Program small_program() {
  return sim::capture_program("obs-fib", [](Ctx& ctx) {
    std::function<void(Ctx&, int)> fib = [&fib](Ctx& c, int k) {
      c.compute(1500);
      if (k < 2) return;
      c.spawn(GG_SRC, [&fib, k](Ctx& cc) { fib(cc, k - 1); });
      c.spawn(GG_SRC, [&fib, k](Ctx& cc) { fib(cc, k - 2); });
      c.taskwait();
    };
    fib(ctx, 9);
  });
}

TEST(ObsEngineTest, SimPublishesModeledSchema) {
  const sim::Program p = small_program();
  sim::SimOptions o;
  o.num_cores = 4;
  o.memory_model = false;
  obs::Registry reg;
  o.telemetry = &reg;
  const Trace t = sim::simulate(p, o);
  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.count("engine.tasks_executed"), 1u);
  EXPECT_GT(s.counters.at("engine.tasks_executed"), 0u);
  ASSERT_EQ(s.histograms.count("engine.task_latency_ns"), 1u);
  EXPECT_GT(s.histograms.at("engine.task_latency_ns").count, 0u);
  ASSERT_EQ(s.gauges.count("engine.progress"), 1u);
  EXPECT_EQ(static_cast<size_t>(s.gauges.at("engine.progress")),
            t.grain_count());
}

TEST(ObsEngineTest, DisabledPathIsBitIdentical) {
  const sim::Program p = small_program();
  sim::SimOptions off;
  off.num_cores = 4;
  off.memory_model = false;
  sim::SimOptions on = off;
  obs::Registry reg;
  on.telemetry = &reg;
  std::ostringstream a, b, c;
  save_trace(sim::simulate(p, off), a);
  save_trace(sim::simulate(p, on), b);
  save_trace(sim::simulate(p, off), c);
  EXPECT_EQ(a.str(), c.str());  // determinism baseline
  EXPECT_EQ(a.str(), b.str());  // telemetry leaves the trace untouched
}

}  // namespace
}  // namespace gg
