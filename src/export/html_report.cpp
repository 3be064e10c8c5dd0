#include "export/html_report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "analysis/recommend.hpp"
#include "common/strings.hpp"

namespace gg {

namespace {

std::string esc(std::string_view s) { return strings::xml_escape(s); }

/// Inline SVG polyline of the optimistic-parallelism timeline, with a line
/// marking the core count.
void emit_parallelism_svg(std::ostream& os, const MetricsResult& m,
                          int cores) {
  const auto& par = m.parallelism_optimistic;
  if (par.empty()) return;
  const int w = 720, h = 140, pad = 24;
  u32 peak = static_cast<u32>(cores);
  for (u32 v : par) peak = std::max(peak, v);
  os << "<svg width='" << w << "' height='" << h
     << "' style='background:#fafafa;border:1px solid #ddd'>";
  // Core-count guide line.
  const double core_y =
      h - pad - (static_cast<double>(cores) / peak) * (h - 2 * pad);
  os << "<line x1='" << pad << "' y1='" << core_y << "' x2='" << w - pad
     << "' y2='" << core_y
     << "' stroke='#cc3333' stroke-dasharray='4 3'/>"
     << "<text x='" << w - pad - 60 << "' y='" << core_y - 4
     << "' font-size='10' fill='#cc3333'>" << cores << " cores</text>";
  os << "<polyline fill='none' stroke='#3366aa' stroke-width='1.5' points='";
  const size_t samples = std::min<size_t>(par.size(), 720);
  for (size_t i = 0; i < samples; ++i) {
    const size_t idx = i * par.size() / samples;
    const double x =
        pad + (static_cast<double>(i) / samples) * (w - 2 * pad);
    const double y =
        h - pad - (static_cast<double>(par[idx]) / peak) * (h - 2 * pad);
    os << x << ',' << y << ' ';
  }
  os << "'/></svg>";
}

}  // namespace

void write_html_report(std::ostream& os, const Trace& trace,
                       const Analysis& a) {
  os << "<!DOCTYPE html><html><head><meta charset='utf-8'><title>grain graph: "
     << esc(trace.meta.program) << "</title><style>"
     << "body{font:14px/1.4 sans-serif;margin:2em;max-width:60em}"
     << "table{border-collapse:collapse;margin:1em 0}"
     << "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}"
     << "th{background:#eee}td:first-child,th:first-child{text-align:left}"
     << ".bad{background:#ffd9d9}.ok{background:#e6f4e6}"
     << "</style></head><body>";
  os << "<h1>grain graph report: " << esc(trace.meta.program) << "</h1>";
  os << "<p>" << trace.meta.num_workers << " workers on "
     << esc(trace.meta.topology) << " (" << esc(trace.meta.runtime)
     << ") &mdash; makespan <b>" << strings::human_time(trace.makespan())
     << "</b>, " << a.grains.size() << " grains, critical path "
     << strings::human_time(a.metrics.critical_path_time)
     << ", average parallelism "
     << strings::trim_double(a.metrics.avg_parallelism, 1) << "</p>";
  if (trace.meta.recovered()) {
    os << "<p class='bad' style='padding:4px 8px'><b>partial trace</b>: "
       << esc(trace.meta.recovery_note());
    if (!trace.meta.crash_note().empty()) {
      os << " &mdash; " << esc(trace.meta.crash_note());
    }
    os << ". Grains past the crash boundary were never recorded; every "
       << "total below is a lower bound.</p>";
  }

  os << "<h2>Instantaneous parallelism</h2>";
  emit_parallelism_svg(os, a.metrics, trace.meta.num_workers);

  const auto recs = recommend(trace, a);
  if (!recs.empty()) {
    os << "<h2>Recommendations</h2><ol>";
    for (const Recommendation& r : recs) {
      os << "<li><b>" << esc(r.headline) << "</b><br><small>" 
         << esc(r.rationale) << " &mdash; cf. " << esc(r.paper_ref)
         << "</small></li>";
    }
    os << "</ol>";
  }
  os << "<h2>Problems</h2><table><tr><th>problem</th><th>affected grains"
     << "</th><th>percent</th></tr>";
  for (const ProblemView& v : a.problems) {
    os << "<tr><td>" << esc(to_string(v.problem)) << "</td><td"
       << (v.flagged_percent > 25.0 ? " class='bad'" : " class='ok'") << ">"
       << v.flagged_count << "</td><td>"
       << strings::trim_double(v.flagged_percent, 1) << "%</td></tr>";
  }
  os << "</table>";

  os << "<h2>Grains by definition</h2><table><tr><th>definition</th>"
     << "<th>grains</th><th>work %</th><th>median exec</th>"
     << "<th>low benefit %</th><th>inflated %</th><th>poor mem %</th></tr>";
  for (const SourceProfileRow& r : a.sources) {
    os << "<tr><td>" << esc(r.source) << "</td><td>" << r.grain_count
       << "</td><td>" << strings::trim_double(100.0 * r.work_share, 1)
       << "</td><td>" << strings::human_time(r.median_exec) << "</td><td"
       << (r.low_benefit_percent > 25.0 ? " class='bad'" : "") << ">"
       << strings::trim_double(r.low_benefit_percent, 1) << "</td><td"
       << (r.inflated_percent > 25.0 ? " class='bad'" : "") << ">"
       << strings::trim_double(r.inflated_percent, 1) << "</td><td"
       << (r.poor_mem_util_percent > 25.0 ? " class='bad'" : "") << ">"
       << strings::trim_double(r.poor_mem_util_percent, 1) << "</td></tr>";
  }
  os << "</table>";

  os << "<h2>Loops</h2>";
  if (trace.loops.empty()) {
    os << "<p>(no parallel for-loops)</p>";
  } else {
    os << "<table><tr><th>loop</th><th>schedule</th><th>chunks</th>"
       << "<th>team</th><th>load balance</th></tr>";
    for (const LoopRec& loop : trace.loops) {
      const double lb = a.metrics.loop_load_balance.count(loop.uid)
                            ? a.metrics.loop_load_balance.at(loop.uid)
                            : 0.0;
      os << "<tr><td>" << esc(trace.strings.get(loop.src)) << "</td><td>"
         << to_string(loop.sched) << "</td><td>"
         << trace.chunks_span(loop.uid).size() << "</td><td>"
         << loop.num_threads << "</td><td"
         << (lb > 1.5 ? " class='bad'" : "") << ">"
         << strings::trim_double(lb, 2) << "</td></tr>";
    }
    os << "</table>";
  }
  os << "<h2>Scheduler health</h2>";
  if (!trace.meta.supervisor_note().empty()) {
    os << "<p class='bad'>" << esc(trace.meta.supervisor_note()) << "</p>";
  }
  if (!trace.meta.crash_note().empty()) {
    os << "<p class='bad'>" << esc(trace.meta.crash_note()) << "</p>";
  }
  os << "<p>profiling " << (trace.meta.profiled ? "on" : "off")
     << ", clock source <b>"
     << esc(trace.meta.clock_source.empty() ? "unknown"
                                            : trace.meta.clock_source)
     << "</b>, recorder buffers " << trace.meta.trace_buffer_bytes
     << " bytes</p>";
  if (!trace.meta.recorder_note().empty()) {
    const auto pct = trace.meta.recorder_overhead_pct();
    const bool busted = pct.has_value() && *pct > 2.5;
    os << "<p" << (busted ? " class='bad'" : "") << ">recorder "
       << esc(trace.meta.recorder_note())
       << (busted ? " &mdash; exceeds the paper's 2.5% overhead budget" : "")
       << "</p>";
  }
  if (trace.worker_stats.empty()) {
    os << "<p>(no per-worker scheduler stats in this trace)</p>";
  } else {
    os << "<table><tr><th>worker</th><th>spawned</th><th>executed</th>"
       << "<th>inlined</th><th>steals</th><th>steal fails</th>"
       << "<th>CAS fails</th><th>pushes</th><th>pops</th><th>resizes</th>"
       << "<th>helps</th><th>idle</th><th>trace bytes</th></tr>";
    for (const WorkerStatsRec& s : trace.worker_stats) {
      os << "<tr><td>" << s.worker << "</td><td>" << s.tasks_spawned
         << "</td><td>" << s.tasks_executed << "</td><td>" << s.tasks_inlined
         << "</td><td>" << s.steals << "</td><td>" << s.steal_failures
         << "</td><td>" << s.cas_failures << "</td><td>" << s.deque_pushes
         << "</td><td>" << s.deque_pops << "</td><td>" << s.deque_resizes
         << "</td><td>" << s.taskwait_helps << "</td><td>"
         << strings::human_time(s.idle_ns) << "</td><td>" << s.trace_bytes
         << "</td></tr>";
    }
    os << "</table>";
  }
  os << "<p style='color:#888'>generated by graingraphs (PPoPP'16 "
     << "reproduction)</p></body></html>\n";
}

bool write_html_report_file(const std::string& path, const Trace& trace,
                            const Analysis& analysis) {
  std::ofstream os(path);
  if (!os) return false;
  write_html_report(os, trace, analysis);
  return static_cast<bool>(os);
}

}  // namespace gg
