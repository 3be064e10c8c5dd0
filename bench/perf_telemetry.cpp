// perf_telemetry — self-telemetry overhead gate for the analysis pipeline.
//
//   perf_telemetry [--grains N] [--seed S] [--workers W] [--reps R]
//                  [--out file.json]
//
// The telemetry layer (src/obs) is compiled in but off by default: every
// call site probes one atomic pointer and takes an untaken branch when no
// context is installed. This bench verifies that contract on the full
// pipeline (load + analyze + report + JSON summary) over a seeded
// synthetic trace, three interleaved arms, median of R reps each:
//
//   baseline  telemetry off (the shipped default)
//   disabled  the identical off configuration, sampled independently —
//             baseline vs disabled is an A/A comparison, so any measured
//             gap is the bench's own noise floor; the 1% gate on it fails
//             if the off path ever grows real work (e.g. a span that
//             reads the clock unconditionally would also show up in the
//             direct per-site cost below)
//   enabled   obs::Telemetry installed (registry + span tracer live)
//
// It also micro-times the disabled call sites directly (PhaseSpan with no
// tracer + a current_registry() probe) and scales by the sites per run,
// giving a noise-free upper bound on the off-path cost. All three arms
// must produce byte-identical report and JSON bytes. Machine-readable
// results go to BENCH_telemetry.json; exit 1 when the gate or the
// byte-identity check fails.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "export/json_summary.hpp"
#include "obs/telemetry.hpp"
#include "support/bench_support.hpp"
#include "trace/serialize.hpp"
#include "trace/synth.hpp"

namespace {

using namespace gg;

/// Obs call sites executed by one pipeline run: four analysis stage spans,
/// five graph build phase spans, three grain table phase spans, five metric
/// pass spans, two problem phase spans, and three registry probes in
/// analyze().
constexpr double kSitesPerRun = 22.0;

struct RunResult {
  u64 wall_ns = 0;
  std::string report;
  std::string summary;
};

/// One full pipeline pass: load, analyze, render the text
/// report and the JSON summary. `telemetry` non-null installs the context
/// for the duration of the run.
bool run_once(const std::string& path, obs::Telemetry* telemetry,
              RunResult& out) {
  obs::install(telemetry);
  const u64 t0 = obs::mono_ns();
  LoadOptions lo;
  lo.mode = LoadMode::Strict;
  LoadResult lr = load_trace_file_ex(path, lo);
  if (!lr.usable()) {
    obs::install(nullptr);
    std::fputs(lr.describe().c_str(), stderr);
    return false;
  }
  const Analysis a = analyze(*lr.trace, Topology::generic4());
  out.report = render_report(*lr.trace, a);
  std::ostringstream js;
  write_json_summary(js, *lr.trace, a);
  out.summary = js.str();
  out.wall_ns = obs::mono_ns() - t0;
  obs::install(nullptr);
  return true;
}

u64 median(std::vector<u64> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Per-call cost of a disabled call site: a PhaseSpan that never finds a
/// tracer plus one current_registry() probe. Nothing may be installed.
double disabled_site_ns() {
  constexpr int kIters = 1000000;
  u64 sink = 0;
  const u64 t0 = obs::mono_ns();
  for (int i = 0; i < kIters; ++i) {
    obs::PhaseSpan span("bench.site");
    sink += obs::current_registry() != nullptr ? 1u : 0u;
  }
  const u64 t1 = obs::mono_ns();
  if (sink != 0) std::fprintf(stderr, "error: registry unexpectedly set\n");
  return static_cast<double>(t1 - t0) / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  SynthOptions sopts;
  sopts.grains = 100000;
  int reps = 7;
  std::string out_json = "BENCH_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--grains") {
      sopts.grains = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seed") {
      sopts.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--workers") {
      sopts.workers = std::atoi(value());
    } else if (arg == "--reps") {
      reps = std::atoi(value());
    } else if (arg == "--out") {
      out_json = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--grains N] [--seed S] [--workers W] "
                   "[--reps R] [--out file.json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  bench::print_header(
      "self-telemetry overhead (disabled path must stay under 1%)",
      "n/a (tool-quality gate; MIR's own profiler budget is 2.5%)");

  std::printf("generating synthetic trace: %llu grains, %d workers, seed "
              "%llu\n",
              static_cast<unsigned long long>(sopts.grains), sopts.workers,
              static_cast<unsigned long long>(sopts.seed));
  const Trace trace = synth_trace(sopts);
  const std::string path = bench::out_dir() + "/perf_telemetry.ggbin";
  if (!save_trace_file(trace, path)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }

  // Warm the page cache and capture the reference output bytes.
  RunResult reference;
  if (!run_once(path, nullptr, reference)) return 1;

  std::vector<u64> baseline_ns, disabled_ns, enabled_ns;
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    RunResult a, b, c;
    auto telemetry = std::make_unique<obs::Telemetry>();
    if (!run_once(path, nullptr, a) || !run_once(path, nullptr, b) ||
        !run_once(path, telemetry.get(), c))
      return 1;
    baseline_ns.push_back(a.wall_ns);
    disabled_ns.push_back(b.wall_ns);
    enabled_ns.push_back(c.wall_ns);
    for (const RunResult* rr : {&a, &b, &c})
      identical = identical && rr->report == reference.report &&
                  rr->summary == reference.summary;
  }
  if (!identical)
    std::fprintf(stderr, "error: telemetry arms changed output bytes\n");

  const u64 base = median(baseline_ns);
  const u64 off = median(disabled_ns);
  const u64 on = median(enabled_ns);
  const double off_pct =
      base > 0 ? (static_cast<double>(off) / static_cast<double>(base) - 1.0) *
                     100.0
               : 0.0;
  const double on_pct =
      base > 0 ? (static_cast<double>(on) / static_cast<double>(base) - 1.0) *
                     100.0
               : 0.0;
  const double site_ns = disabled_site_ns();
  const double site_pct = base > 0 ? site_ns * kSitesPerRun /
                                         static_cast<double>(base) * 100.0
                                   : 0.0;
  const double gate_pct = 1.0;
  const bool gate_ok = off_pct <= gate_pct && site_pct <= gate_pct;

  auto ms = [](u64 ns) { return static_cast<double>(ns) / 1e6; };
  std::printf("pipeline medians over %d reps (interleaved):\n", reps);
  std::printf("  baseline (telemetry off)   %9.2f ms\n", ms(base));
  std::printf("  disabled (off, arm 2)      %9.2f ms  (%+.3f%%)\n", ms(off),
              off_pct);
  std::printf("  enabled  (registry+spans)  %9.2f ms  (%+.3f%%)\n", ms(on),
              on_pct);
  std::printf("disabled call site: %.2f ns/site x %.0f sites/run = %.5f%% "
              "of a run\n",
              site_ns, kSitesPerRun, site_pct);
  std::printf("outputs byte-identical across arms: %s\n",
              identical ? "yes" : "NO");
  std::printf("gate: disabled-path overhead <= %.1f%%: %s\n", gate_pct,
              gate_ok ? "pass" : "FAIL");

  std::ofstream os(out_json);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", out_json.c_str());
    return 1;
  }
  os << "{\n  \"bench\": \"perf_telemetry\",\n  \"grains\": "
     << trace.grain_count() << ",\n  \"workers\": " << trace.meta.num_workers
     << ",\n  \"seed\": " << sopts.seed << ",\n  \"reps\": " << reps
     << ",\n  \"baseline_ns\": " << base << ",\n  \"disabled_ns\": " << off
     << ",\n  \"enabled_ns\": " << on << ",\n  \"disabled_overhead_pct\": "
     << off_pct << ",\n  \"enabled_overhead_pct\": " << on_pct
     << ",\n  \"disabled_site_ns\": " << site_ns
     << ",\n  \"disabled_site_cost_pct\": " << site_pct
     << ",\n  \"outputs_identical\": " << (identical ? "true" : "false")
     << ",\n  \"gate_pct\": " << gate_pct
     << ",\n  \"pass\": " << (gate_ok && identical ? "true" : "false")
     << "\n}\n";
  os.close();
  std::printf("wrote %s\n", out_json.c_str());
  return gate_ok && identical ? 0 : 1;
}
