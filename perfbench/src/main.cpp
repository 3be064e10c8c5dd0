// ggbench — runs one benchmark workload against the program built from the
// same checkout, and prints its metrics as one JSON line.
//
//   ggbench --workload analyze|profile --seed N --seconds S --trace 0|1
//           --work-dir DIR [--ggserved PATH] [--commit ID]
//           [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
// writes the spans to --trace-out as Chrome trace-event JSON. Lines before
// the last are a human-readable log. Exit 2 on a usage error or a pinned
// environment variable that is set; otherwise 0, with "correct" telling
// whether every check passed.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "workload.hpp"

namespace {

using namespace ggbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"success_rate", "ratio"},
};

// Every per-layer metric, in BENCHMARK.json order. A workload that makes no
// call into a layer reports that layer's figures as 0.
constexpr MetricDef kPerLayer[] = {
    {"trace.recover_s", "s"},
    {"graph.build_s", "s"},
    {"graph.build_1t_s", "s"},
    {"graph.table_s", "s"},
    {"graph.table_1t_s", "s"},
    {"metrics.compute_s", "s"},
    {"metrics.compute_1t_s", "s"},
    {"metrics.critical_path_s", "s"},
    {"analysis.problems_s", "s"},
    {"analysis.render_s", "s"},
    {"export.json_s", "s"},
    {"trace.grains", "count"},
    {"trace.input_bytes", "bytes"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"rts.run_s", "s"},
    {"trace.record_ns_per_grain", "ns/grain"},
    {"trace.spool_ns_per_grain", "ns/grain"},
    {"rts.steals", "count"},
    {"rts.steal_failures", "count"},
    {"trace.spool_bytes", "bytes"},
    {"serve.push_ms", "ms"},
    {"serve.push_p90_ms", "ms"},
    {"serve.ingest_mb_per_s", "MB/s"},
    {"serve.report_p50_ms", "ms"},
    {"serve.report_p90_ms", "ms"},
    {"trace.recover_ms", "ms"},
    {"analysis.report_text_ms", "ms"},
    {"serve.query_overhead_ms", "ms"},
    {"serve.summary_ms", "ms"},
    {"serve.status_ms", "ms"},
    {"serve.resident_mb", "MiB"},
    {"serve.shed", "count"},
    {"os.user_s", "s"},
    {"os.sys_s", "s"},
    {"os.minor_faults", "count"},
    {"os.invol_ctxsw", "count"},
    {"bench.unattributed_s", "s"},
    {"bench.trace_overhead_pct", "%"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload analyze|profile --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--ggserved PATH] "
               "[--commit ID] [--trace-out FILE]\n",
               argv0);
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = now_ns();
  // Die with the parent, so an interrupted run never leaves a benchmark
  // (or, transitively, a daemon) behind.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);

  Config cfg;
  cfg.process_start_ns = process_start;
  std::string commit = "unknown", trace_out;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace_flag = val == "1" ? 1 : val == "0" ? 0 : -1;
      if (trace_flag < 0) return usage(argv[0]);
    } else if (arg == "--work-dir") {
      cfg.work_dir = val;
    } else if (arg == "--ggserved") {
      cfg.ggserved = val;
    } else if (arg == "--commit") {
      commit = val;
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (trace_flag < 0 || cfg.work_dir.empty() || cfg.seconds <= 0 ||
      (cfg.workload != "analyze" && cfg.workload != "profile") ||
      (trace_flag == 1 && (trace_out.empty() || cfg.ggserved.empty())))
    return usage(argv[0]);
  if (const std::string var = pinned_env_violation(); !var.empty()) {
    std::fprintf(stderr,
                 "ggbench: %s is set; unset it so thread counts and "
                 "telemetry stay what the benchmark pins\n",
                 var.c_str());
    return 2;
  }
  cfg.traced = trace_flag == 1;
  std::filesystem::create_directories(cfg.work_dir);

  const Provenance prov = collect_provenance(GGBENCH_BUILD_TYPE, commit,
                                             cfg.seed, cfg.workload,
                                             cfg.traced);
  std::printf("provenance: %s\n", prov.to_json().c_str());
  std::fflush(stdout);

  Tracer tracer(cfg.traced);
  Result res = cfg.workload == "analyze" ? run_analyze(cfg, tracer)
                                         : run_profile(cfg, tracer);

  if (cfg.traced) {
    std::string err;
    if (!tracer.write_chrome_json(trace_out, prov.to_json(), &err)) {
      res.fail(err);
    } else {
      res.log.push_back("spans: " + std::to_string(tracer.spans().size()) +
                        " written to " + trace_out);
    }
  }
  for (const std::string& line : res.log) std::printf("%s\n", line.c_str());

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    auto it = res.metrics.find(d.name);
    if (it == res.metrics.end()) {
      if (!cfg.traced) res.fail(std::string("no value for ") + d.name);
      res.metrics[d.name] = {0.0, d.unit};
      it = res.metrics.find(d.name);
    }
    metrics << (first ? "" : ", ") << json_quote(d.name)
            << ": {\"value\": " << number(it->second.value)
            << ", \"unit\": " << json_quote(d.unit) << "}";
    first = false;
  };
  if (cfg.traced) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  const bool correct = res.setup_ok && res.ops.failed == 0 &&
                       res.ops.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.ops.attempted),
              static_cast<unsigned long long>(res.ops.failed),
              metrics.str().c_str());
  return 0;
}
