#include "analysis/report.hpp"

#include <cstdio>
#include <sstream>

#include "common/par_for.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/telemetry.hpp"
#include "topology/topology.hpp"

namespace gg {

Analysis analyze(const Trace& trace, const Topology& topo,
                 const AnalysisOptions& opts) {
  // The throughput gauge is the only clock read here, and only with a
  // registry installed; the stage times are the phase spans.
  obs::Registry* const reg = obs::current_registry();
  const u64 start_ns = reg != nullptr ? obs::mono_ns() : 0;
  Analysis a;
  const int build_threads = resolve_threads(opts.threads);
  {
    obs::PhaseSpan span("analysis.graph");
    a.graph = GrainGraph::build(trace, build_threads);
  }
  {
    obs::PhaseSpan span("analysis.grains");
    a.grains = GrainTable::build(trace, build_threads);
  }
  {
    obs::PhaseSpan span("analysis.metrics");
    a.metrics = compute_metrics(trace, a.graph, a.grains, topo, opts.metrics,
                                opts.baseline);
  }
  {
    obs::PhaseSpan span("analysis.problems");
    a.thresholds = opts.thresholds.value_or(
        ProblemThresholds::defaults(trace.meta.num_workers, topo));
    {
      obs::PhaseSpan views("problems.views");
      a.problems =
          evaluate_all(a.grains, a.metrics, a.thresholds, build_threads);
    }
    obs::PhaseSpan sources("problems.sources");
    a.sources = source_profile(trace, a.grains, a.metrics, a.thresholds,
                               SourceSort::ByCount, build_threads);
  }
  if (reg != nullptr) {
    reg->counter("analyze.runs")->add();
    reg->gauge("analyze.grains")->set(static_cast<double>(a.grains.size()));
    const u64 total = obs::mono_ns() - start_ns;
    if (total > 0) {
      reg->gauge("analyze.grains_per_sec")
          ->set(static_cast<double>(a.grains.size()) * 1e9 /
                static_cast<double>(total));
    }
  }
  return a;
}

namespace {

u64 stage_ns(const std::vector<obs::SpanRec>& spans, const char* scope,
             const char* stage) {
  return obs::span_ns(spans, std::string(scope) + "." + stage);
}

bool is_export(const obs::SpanRec& s) {
  return s.name.rfind("export.", 0) == 0;
}

}  // namespace

std::string render_timing(const std::vector<obs::SpanRec>& spans,
                          u64 input_bytes, int threads) {
  std::string out;
  auto line = [&out](const char* fmt, auto... args) {
    char buf[128];
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  auto ms = [](u64 ns) { return static_cast<double>(ns) / 1e6; };
  line("[timing] input %llu bytes\n",
       static_cast<unsigned long long>(input_bytes));
  u64 total = obs::span_ns(spans, kLoadSpan);
  line("[timing] %-8s %10.3f ms (%d thread(s))\n", "load", ms(total),
       threads);
  for (const char* stage : {"graph", "grains", "metrics"}) {
    line("[timing] %-8s %10.3f ms (%d thread(s))\n", stage,
         ms(stage_ns(spans, "analysis", stage)), threads);
  }
  for (const char* pass : kMetricPasses) {
    line("[timing]   %-13s %10.3f ms\n", pass,
         ms(stage_ns(spans, "metrics", pass)));
  }
  line("[timing] %-8s %10.3f ms\n", "problems",
       ms(stage_ns(spans, "analysis", "problems")));
  for (const char* stage : kAnalysisStages) {
    total += stage_ns(spans, "analysis", stage);
  }
  for (const obs::SpanRec& s : spans) {
    if (!is_export(s)) continue;
    total += s.end_ns - s.start_ns;
    line("[timing] %-8s %10.3f ms (%s)\n", "export",
         ms(s.end_ns - s.start_ns), s.name.c_str());
  }
  line("[timing] %-8s %10.3f ms\n", "total", ms(total));
  return out;
}

std::string render_timings_json(const std::vector<obs::SpanRec>& spans) {
  std::ostringstream os;
  os << "  \"timings\": {\n";
  os << "    \"load_ns\": " << obs::span_ns(spans, kLoadSpan) << ",\n";
  os << "    \"analysis\": {";
  u64 total = 0;
  for (const char* stage : kAnalysisStages) {
    const u64 ns = stage_ns(spans, "analysis", stage);
    total += ns;
    os << "\"" << stage << "_ns\": " << ns << ", ";
  }
  os << "\"total_ns\": " << total << "},\n";
  os << "    \"metric_passes\": {";
  const char* sep = "";
  for (const char* pass : kMetricPasses) {
    os << sep << "\"" << pass << "_ns\": " << stage_ns(spans, "metrics", pass);
    sep = ", ";
  }
  os << "},\n";
  os << "    \"exports\": [";
  sep = "";
  for (const obs::SpanRec& s : spans) {
    if (!is_export(s)) continue;
    os << sep << "{\"name\": \"" << s.name
       << "\", \"wall_ns\": " << s.end_ns - s.start_ns << "}";
    sep = ", ";
  }
  os << "]\n  }";
  return os.str();
}

std::string render_report(const Trace& trace, const Analysis& a) {
  std::ostringstream os;
  os << "=== grain graph report: " << trace.meta.program << " ===\n";
  os << "runtime " << trace.meta.runtime << ", " << trace.meta.num_workers
     << " workers on " << trace.meta.topology << "\n";
  if (trace.meta.recovered()) {
    os << "PARTIAL TRACE: " << trace.meta.recovery_note();
    if (!trace.meta.crash_note().empty()) {
      os << "; " << trace.meta.crash_note();
    }
    os << " -- totals below are lower bounds\n";
  }
  os << "makespan " << strings::human_time(trace.makespan()) << ", grains "
     << a.grains.size() << " (" << trace.tasks.size() - 1 << " tasks, "
     << trace.chunks.size() << " chunks), graph nodes "
     << a.graph.node_count() << ", edges " << a.graph.edge_count() << "\n";
  os << "critical path " << strings::human_time(a.metrics.critical_path_time)
     << " (" << strings::trim_double(
                    trace.makespan() == 0
                        ? 0.0
                        : 100.0 *
                              static_cast<double>(a.metrics.critical_path_time) /
                              static_cast<double>(trace.makespan()))
     << "% of makespan)\n";
  os << "total grain work " << strings::human_time(a.metrics.total_work)
     << ", average parallelism (T1/Tinf) "
     << strings::trim_double(a.metrics.avg_parallelism, 1) << "\n";
  os << "region load balance "
     << strings::trim_double(a.metrics.region_load_balance) << "\n";
  for (const auto& [loop, lb] : a.metrics.loop_load_balance) {
    os << "loop " << loop << " load balance " << strings::trim_double(lb)
       << "\n";
  }

  Table problems("problem summary (affected grains)");
  problems.set_header({"problem", "affected", "percent"});
  for (const ProblemView& v : a.problems) {
    problems.add_row({to_string(v.problem), std::to_string(v.flagged_count),
                      strings::trim_double(v.flagged_percent, 2) + "%"});
  }
  os << problems.to_text();

  Table sources("grains by definition (sorted by creation count)");
  sources.set_header({"definition", "grains", "work%", "median exec",
                      "low benefit%", "inflated%", "poor mem%"});
  for (const SourceProfileRow& r : a.sources) {
    sources.add_row({r.source, std::to_string(r.grain_count),
                     strings::trim_double(100.0 * r.work_share, 1),
                     strings::human_time(r.median_exec),
                     strings::trim_double(r.low_benefit_percent, 1),
                     strings::trim_double(r.inflated_percent, 1),
                     strings::trim_double(r.poor_mem_util_percent, 1)});
  }
  os << sources.to_text();

  if (!trace.meta.supervisor_note().empty()) {
    os << trace.meta.supervisor_note() << "\n";
  }
  if (!trace.worker_stats.empty()) {
    os << "profiling " << (trace.meta.profiled ? "on" : "off")
       << ", clock source "
       << (trace.meta.clock_source.empty() ? "unknown"
                                           : trace.meta.clock_source)
       << ", recorder buffers " << trace.meta.trace_buffer_bytes
       << " bytes\n";
    if (!trace.meta.recorder_note().empty()) {
      os << "recorder " << trace.meta.recorder_note();
      if (const auto pct = trace.meta.recorder_overhead_pct();
          pct.has_value() && *pct > 2.5) {
        os << "  ** EXCEEDS the paper's 2.5% overhead budget **";
      }
      os << "\n";
    }
    Table sched("scheduler health (per worker)");
    sched.set_header({"worker", "spawned", "executed", "inlined", "steals",
                      "steal fails", "CAS fails", "pushes", "pops", "resizes",
                      "helps", "idle"});
    for (const WorkerStatsRec& s : trace.worker_stats) {
      sched.add_row({std::to_string(s.worker),
                     std::to_string(s.tasks_spawned),
                     std::to_string(s.tasks_executed),
                     std::to_string(s.tasks_inlined),
                     std::to_string(s.steals),
                     std::to_string(s.steal_failures),
                     std::to_string(s.cas_failures),
                     std::to_string(s.deque_pushes),
                     std::to_string(s.deque_pops),
                     std::to_string(s.deque_resizes),
                     std::to_string(s.taskwait_helps),
                     strings::human_time(s.idle_ns)});
    }
    os << sched.to_text();
  }
  return os.str();
}

}  // namespace gg
