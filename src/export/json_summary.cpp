#include "export/json_summary.hpp"

#include <cmath>
#include <fstream>
#include <ostream>

#include "common/bufwriter.hpp"
#include "common/strings.hpp"

namespace gg {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string num(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  return strings::trim_double(v, 6);
}

}  // namespace

void write_json_summary(std::ostream& os, const Trace& trace,
                        const Analysis& a,
                        const std::vector<obs::SpanRec>* spans) {
  BufWriter buf(1 << 16);
  buf << "{\n";
  buf << "  \"program\": \"" << json_escape(trace.meta.program) << "\",\n";
  buf << "  \"runtime\": \"" << json_escape(trace.meta.runtime) << "\",\n";
  buf << "  \"topology\": \"" << json_escape(trace.meta.topology) << "\",\n";
  buf << "  \"workers\": " << trace.meta.num_workers << ",\n";
  buf << "  \"recovered\": " << (trace.meta.recovered() ? "true" : "false")
      << ",\n";
  if (trace.meta.recovered()) {
    buf << "  \"recovery_note\": \""
        << json_escape(trace.meta.recovery_note()) << "\",\n";
  }
  if (!trace.meta.crash_note().empty()) {
    buf << "  \"crash_note\": \"" << json_escape(trace.meta.crash_note())
        << "\",\n";
  }
  buf << "  \"makespan_ns\": " << trace.makespan() << ",\n";
  buf << "  \"grains\": " << a.grains.size() << ",\n";
  buf << "  \"tasks\": " << (trace.tasks.empty() ? 0 : trace.tasks.size() - 1)
      << ",\n";
  buf << "  \"chunks\": " << trace.chunks.size() << ",\n";
  buf << "  \"graph\": {\"nodes\": " << a.graph.node_count()
      << ", \"edges\": " << a.graph.edge_count() << "},\n";
  buf << "  \"critical_path_ns\": " << a.metrics.critical_path_time << ",\n";
  buf << "  \"region_load_balance\": " << num(a.metrics.region_load_balance)
      << ",\n";
  buf << "  \"loop_load_balance\": {";
  bool first = true;
  for (const auto& [loop, lb] : a.metrics.loop_load_balance) {
    if (!first) buf << ", ";
    first = false;
    buf << "\"" << loop << "\": " << num(lb);
  }
  buf << "},\n";
  buf << "  \"scheduler_health\": {\n";
  buf << "    \"profiled\": " << (trace.meta.profiled ? "true" : "false")
      << ",\n";
  if (!trace.meta.supervisor_note().empty()) {
    buf << "    \"supervisor\": \""
        << json_escape(trace.meta.supervisor_note()) << "\",\n";
  }
  buf << "    \"clock_source\": \"" << json_escape(trace.meta.clock_source)
      << "\",\n";
  buf << "    \"trace_buffer_bytes\": " << trace.meta.trace_buffer_bytes
      << ",\n";
  if (!trace.meta.recorder_note().empty()) {
    buf << "    \"recorder\": \"" << json_escape(trace.meta.recorder_note())
        << "\",\n";
    if (const auto pct = trace.meta.recorder_overhead_pct()) {
      buf << "    \"recorder_overhead_pct\": " << num(*pct) << ",\n";
      buf << "    \"recorder_overhead_budget_exceeded\": "
          << (*pct > 2.5 ? "true" : "false") << ",\n";
    }
  }
  buf << "    \"workers\": [\n";
  for (size_t i = 0; i < trace.worker_stats.size(); ++i) {
    const WorkerStatsRec& s = trace.worker_stats[i];
    buf << "      {\"worker\": " << s.worker
        << ", \"tasks_spawned\": " << s.tasks_spawned
        << ", \"tasks_executed\": " << s.tasks_executed
        << ", \"tasks_inlined\": " << s.tasks_inlined
        << ", \"steals\": " << s.steals
        << ", \"steal_failures\": " << s.steal_failures
        << ", \"cas_failures\": " << s.cas_failures
        << ", \"deque_pushes\": " << s.deque_pushes
        << ", \"deque_pops\": " << s.deque_pops
        << ", \"deque_resizes\": " << s.deque_resizes
        << ", \"taskwait_helps\": " << s.taskwait_helps
        << ", \"idle_ns\": " << s.idle_ns
        << ", \"trace_bytes\": " << s.trace_bytes << "}"
        << (i + 1 < trace.worker_stats.size() ? "," : "") << "\n";
  }
  buf << "    ]\n";
  buf << "  },\n";
  buf << "  \"problems\": {\n";
  for (size_t p = 0; p < kProblemCount; ++p) {
    const ProblemView& v = a.problems[p];
    buf << "    \"" << to_string(v.problem) << "\": {\"count\": "
        << v.flagged_count << ", \"percent\": " << num(v.flagged_percent)
        << "}" << (p + 1 < kProblemCount ? "," : "") << "\n";
  }
  buf << "  },\n";
  buf << "  \"sources\": [\n";
  for (size_t i = 0; i < a.sources.size(); ++i) {
    const SourceProfileRow& r = a.sources[i];
    buf << "    {\"source\": \"" << json_escape(r.source)
        << "\", \"grains\": " << r.grain_count
        << ", \"work_share\": " << num(r.work_share)
        << ", \"median_exec_ns\": " << r.median_exec
        << ", \"low_benefit_percent\": " << num(r.low_benefit_percent)
        << ", \"inflated_percent\": " << num(r.inflated_percent)
        << ", \"poor_mem_percent\": " << num(r.poor_mem_util_percent) << "}"
        << (i + 1 < a.sources.size() ? "," : "") << "\n";
  }
  buf << "  ]";
  if (spans != nullptr) buf << ",\n" << render_timings_json(*spans);
  buf << "\n}\n";
  buf.write_to(os);
}

bool write_json_summary_file(const std::string& path, const Trace& trace,
                             const Analysis& analysis,
                             const std::vector<obs::SpanRec>* spans) {
  std::ofstream os(path);
  if (!os) return false;
  write_json_summary(os, trace, analysis, spans);
  return static_cast<bool>(os);
}

}  // namespace gg
