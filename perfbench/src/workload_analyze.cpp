// analyze: the paper's post-processing step at the 1M-grain target.
//
// Input: a seeded 1,000,000-grain synth_trace written as a GGSPOOL1 file.
// Op: recover the spool, analyze at T = min(4, nproc) threads, render the
// text report and the JSON summary. Spool decode, graph and metrics do
// almost all of the work; the ~1.3 GB working set is several times the
// host's last-level cache, which keeps the op time from drifting with what
// neighbours leave in a shared L3. GraphML is left out: at this size it is
// gigabytes of output and would dominate the op.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/report.hpp"
#include "export/json_summary.hpp"
#include "metrics/critical_path.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "workload.hpp"

namespace ggbench {

namespace {

using namespace gg;

constexpr u64 kGrains = 1'000'000;
constexpr u64 kEpochBytes = 64 * 1024;  ///< the recorder's default

struct OpResult {
  bool ok = false;
  std::string why;
  Trace trace;
  std::optional<Analysis> analysis;
  std::string report;
  std::string json;
};

/// analyze()'s stages, called one by one so each gets its own span.
Analysis analyze_in_parts(const Trace& trace, const Topology& topo,
                          int threads, Tracer& tr, const Span* parent,
                          const char* graph_span, const char* table_span,
                          const char* metrics_span) {
  Analysis a;
  {
    Span s(tr, graph_span, parent);
    a.graph = GrainGraph::build(trace, threads);
  }
  {
    Span s(tr, table_span, parent);
    a.grains = GrainTable::build(trace, threads);
  }
  {
    Span s(tr, metrics_span, parent);
    MetricOptions mo;
    mo.threads = threads;
    a.metrics = compute_metrics(trace, a.graph, a.grains, topo, mo);
  }
  {
    Span s(tr, "analysis.problems", parent);
    a.thresholds = ProblemThresholds::defaults(trace.meta.num_workers, topo);
    a.problems = evaluate_all(a.grains, a.metrics, a.thresholds);
    a.sources = source_profile(trace, a.grains, a.metrics, a.thresholds,
                               SourceSort::ByCount);
  }
  return a;
}

void render(const Trace& trace, const Analysis& a, Tracer& tr,
            const Span* parent, OpResult& out) {
  {
    Span s(tr, "analysis.render", parent);
    out.report = render_report(trace, a);
  }
  {
    Span s(tr, "export.json", parent);
    std::ostringstream js;
    write_json_summary(js, trace, a);
    out.json = js.str();
  }
}

/// One op. Untraced it calls analyze() itself, the way a user does.
OpResult analyze_op(const std::string& spool_path, int threads, Tracer& tr,
                    const Span* op) {
  OpResult r;
  spool::RecoverResult rr;
  std::string err;
  {
    Span s(tr, "trace.recover", op);
    rr = spool::recover_spool_file(spool_path, &err);
  }
  if (!rr.usable || rr.report.partial() || rr.report.frames_corrupt != 0) {
    r.why = "spool recovery: " + (err.empty() ? rr.report.summary() : err);
    return r;
  }
  r.trace = std::move(rr.trace);
  const Topology topo = Topology::generic4();
  if (tr.enabled()) {
    r.analysis = analyze_in_parts(r.trace, topo, threads, tr, op,
                                  "graph.build", "graph.table",
                                  "metrics.compute");
  } else {
    AnalysisOptions opts;
    opts.threads = threads;
    opts.metrics.threads = threads;
    r.analysis = analyze(r.trace, topo, opts);
  }
  render(r.trace, *r.analysis, tr, op, r);
  r.ok = true;
  return r;
}

}  // namespace

Result run_analyze(const Config& cfg, Tracer& tracer) {
  Result res;
  Tracer off(false);
  const int threads =
      std::max(1, std::min(4, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))));
  const std::string spool_path = cfg.work_dir + "/analyze.ggspool";
  u64 expected_grains = 0;
  u64 input_bytes = 0;
  std::string ref_report, ref_json;

  const double setup_s = time_setups(cfg, [&](int rep) {
    {
      SynthOptions so;
      so.seed = cfg.seed;
      so.grains = kGrains;
      std::string bytes;
      {
        const Trace synth = synth_trace(so);
        expected_grains = synth.grain_count();
        bytes = spool::spool_trace_bytes(synth, kEpochBytes);
      }
      std::ofstream os(spool_path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      os.close();
      if (!os) res.fail("cannot write " + spool_path);
      input_bytes = bytes.size();
    }
    const OpResult warm = analyze_op(spool_path, threads, off, nullptr);
    if (!warm.ok) {
      res.fail("warm-up op: " + warm.why);
    } else if (rep == 0) {
      ref_report = warm.report;
      ref_json = warm.json;
    } else if (warm.report != ref_report || warm.json != ref_json) {
      res.fail("set-up " + std::to_string(rep) +
               " produced different output from set-up 0");
    }
  });
  res.log.push_back("analyze: " + std::to_string(expected_grains) +
                    " grains, " + std::to_string(input_bytes) +
                    " spool bytes, " + std::to_string(threads) + " threads");
  if (!reset_peak_rss())
    res.log.push_back("peak RSS mark not reset: peak_rss_mb includes set-up");

  std::vector<double> op_s;
  std::vector<Usage> usage;
  u64 nodes = 0, edges = 0;
  auto check = [&](const OpResult& r) {
    std::string why = r.ok ? check_analyze_output(r.report, r.json, ref_report,
                                                  ref_json, expected_grains)
                           : r.why;
    if (!why.empty()) res.log.push_back("op failed: " + why);
    res.ops.record(why.empty());
  };
  timed_loop(cfg.seconds, [&](int) {
    {
      const Usage u0 = usage_self();
      const int64_t t0 = now_ns();
      const OpResult r = analyze_op(spool_path, threads, off, nullptr);
      op_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      usage.push_back(usage_self() - u0);
      check(r);
    }
    if (!tracer.enabled()) return;
    OpResult r;
    {
      Span op(tracer, kOpSpan, nullptr, /*starts_op=*/true);
      r = analyze_op(spool_path, threads, tracer, &op);
    }
    check(r);
    if (!r.ok) return;
    nodes = r.analysis->graph.node_count();
    edges = r.analysis->graph.edge_count();
    // Layer probes outside the op: the global critical path on its own,
    // then the same stages at one thread, whose output must match.
    Span probe(tracer, "bench.probe", nullptr);
    {
      Span s(tracer, "metrics.critical_path", &probe);
      const CriticalPath cp = critical_path(r.analysis->graph);
      (void)cp;
    }
    r.analysis.reset();
    OpResult one;
    one.analysis = analyze_in_parts(r.trace, Topology::generic4(), 1, tracer,
                                    &probe, "graph.build_1t", "graph.table_1t",
                                    "metrics.compute_1t");
    render(r.trace, *one.analysis, tracer, &probe, one);
    const std::string why = check_analyze_output(
        one.report, one.json, ref_report, ref_json, expected_grains);
    if (!why.empty()) res.log.push_back("1-thread pass: " + why);
    res.ops.record(why.empty());
  });

  res.log.push_back(describe("analyze: op_s", op_s));
  if (!tracer.enabled()) {
    res.set("setup_s", setup_s, "s");
    res.set("op_s", median(op_s), "s");
    res.set("peak_rss_mb", peak_rss_mib(), "MiB");
    res.set("success_rate", res.ops.success_rate(), "ratio");
    return res;
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  const std::vector<int64_t> self = self_times_ns(spans);
  auto per_op_s = [&](const char* name) {
    return median(per_op_self_ns(spans, self, kOpSpan, name)) / 1e9;
  };
  auto probe_s = [&](const char* name) {
    return median(durations_ns(spans, name)) / 1e9;
  };
  res.set("trace.recover_s", per_op_s("trace.recover"), "s");
  res.set("graph.build_s", per_op_s("graph.build"), "s");
  res.set("graph.table_s", per_op_s("graph.table"), "s");
  res.set("metrics.compute_s", per_op_s("metrics.compute"), "s");
  res.set("analysis.problems_s", per_op_s("analysis.problems"), "s");
  res.set("analysis.render_s", per_op_s("analysis.render"), "s");
  res.set("export.json_s", per_op_s("export.json"), "s");
  res.set("graph.build_1t_s", probe_s("graph.build_1t"), "s");
  res.set("graph.table_1t_s", probe_s("graph.table_1t"), "s");
  res.set("metrics.compute_1t_s", probe_s("metrics.compute_1t"), "s");
  res.set("metrics.critical_path_s", probe_s("metrics.critical_path"), "s");
  res.set("trace.grains", static_cast<double>(expected_grains), "count");
  res.set("trace.input_bytes", static_cast<double>(input_bytes), "bytes");
  res.set("graph.nodes", static_cast<double>(nodes), "count");
  res.set("graph.edges", static_cast<double>(edges), "count");
  set_os_metrics(res, usage);
  set_bench_metrics(res, spans, op_s);
  return res;
}

}  // namespace ggbench
