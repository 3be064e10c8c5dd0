// gganalyze — the post-profiling command-line front end (the paper's
// post-processing step as a tool): load a trace, derive metrics, print the
// report, and export problem views.
//
// Usage:
//   gganalyze <trace.(ggtrace|ggbin)> [options]
//     --baseline <trace>     1-core trace of the same program: enables the
//                            work-deviation metric (grains matched by
//                            schedule-independent id)
//     --view <problem>       benefit|inflation|memutil|parallelism|scatter
//     --graphml <out.graphml>  export (honors --view and --reduced)
//     --dot <out.dot>        export Graphviz
//     --csv <out.csv>        per-grain metric table
//     --json <out.json>      machine-readable summary
//     --html <out.html>      self-contained HTML report
//     --chrome <out.json>    Chrome trace-event timeline (Perfetto-loadable)
//     --reduced              apply all reductions before graph export
//     --topology <name>      opteron48|generic4|generic16 (default: from
//                            the trace's metadata when recognized)
//     --timeline             print the thread-timeline foil view
//     --compare <trace>      before/after comparison against another run of
//                            the same program (this trace = before)
//     --summarize <N>        collapse task subtrees until the exported
//                            graph has ~N nodes (implies graph export path)
//     --strict               fail on the first ingestion problem (CI gating)
//     --salvage              repair a damaged trace and analyze what
//                            survives; prints a degradation report
//     --recover              treat the input as a crash spool (.ggspool):
//                            reconstruct the longest valid prefix of epoch
//                            frames, salvage it, and analyze what survives.
//                            Crash provenance (signal, supervisor stall
//                            diagnostic) is reported and kept in the trace
//                            notes. Inputs named *.ggspool or starting with
//                            the spool magic take this path automatically.
//     --timing               print input size and per-stage wall times
//                            (load/graph/grains/metrics/problems/exports,
//                            with a per-metric-pass breakdown) to stderr;
//                            --json summaries gain a machine-readable
//                            "timings" object
//     --telemetry[=prom|json|chrome]
//                            self-telemetry of this invocation: install a
//                            process metrics registry + span tracer, then
//                            dump it on exit — Prometheus text (default) or
//                            JSON to stderr, chrome writes span timeline to
//                            gganalyze.telemetry.json. GG_TELEMETRY=1 in
//                            the environment implies --telemetry=prom.
//     --threads <N>          worker threads for trace load (spool
//                            recovery included), graph build, grain
//                            derivation, and the metric passes (0 = auto;
//                            results are bit-identical for every setting)
//
//   gganalyze --selftest [programs] [schedules]
//     Runs the built-in differential oracle (src/check): generated programs
//     elaborated by the threaded runtime under deterministic schedule
//     exploration, the simulator, and the serial reference, with all grain
//     graphs and metrics cross-checked, plus a crash-recovery smoke check
//     (a forked child records with spooling and is SIGKILLed mid-run; the
//     recovered spool must salvage into an analyzable trace).
//     GG_TEST_SEED sets the base seed.
//
// Exit codes: 0 clean; 1 load/validation failure; 2 usage error; 3 analysis
// ran on a salvaged/recovered (degraded) trace; 4 --salvage/--recover given
// but nothing usable could be recovered.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/compare.hpp"
#include "common/par_for.hpp"
#include "check/deque_check.hpp"
#include "check/oracle.hpp"
#include "analysis/recommend.hpp"
#include "analysis/report.hpp"
#include "analysis/timeline.hpp"
#include "export/chrome_trace.hpp"
#include "export/dot.hpp"
#include "export/grain_csv.hpp"
#include "export/graphml.hpp"
#include "export/html_report.hpp"
#include "export/json_summary.hpp"
#include "graph/reductions.hpp"
#include "graph/summarize.hpp"
#include "front/front.hpp"
#include "obs/exposition.hpp"
#include "obs/telemetry.hpp"
#include "rts/threaded_engine.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace {

using namespace gg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.(ggtrace|ggbin|ggspool)> [--baseline t] "
               "[--view benefit|inflation|memutil|parallelism|scatter] "
               "[--graphml f] [--dot f] [--csv f] [--json f] [--html f] "
               "[--chrome f] [--reduced] [--summarize N] [--compare t] "
               "[--topology opteron48|generic4|generic16] [--timeline] "
               "[--strict|--salvage|--recover] [--timing] [--threads N] "
               "[--telemetry[=prom|json|chrome]]\n"
               "       %s --selftest [programs] [schedules]\n"
               "  --recover  treat the input as a crash spool (.ggspool is\n"
               "             auto-detected): replay the longest valid frame\n"
               "             prefix, salvage, and analyze what survived.\n"
               "             Crash provenance and supervisor stall\n"
               "             diagnostics from the spool print to stderr and\n"
               "             land in the report's scheduler-health section.\n"
               "             Exit 3 = partial (degraded), 4 = unrecoverable.\n",
               argv0, argv0);
  return 2;
}

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::optional<Problem> parse_view(const std::string& s) {
  if (s == "benefit") return Problem::LowParallelBenefit;
  if (s == "inflation") return Problem::WorkInflation;
  if (s == "memutil") return Problem::PoorMemUtil;
  if (s == "parallelism") return Problem::LowParallelism;
  if (s == "scatter") return Problem::HighScatter;
  return std::nullopt;
}

std::optional<Topology> parse_topology(const std::string& name) {
  if (name == "opteron48") return Topology::opteron48();
  if (name == "generic16") return Topology::generic16();
  if (name == "generic4") return Topology::generic4();
  return std::nullopt;
}

/// Renders every deterministic output of one analysis into a single byte
/// string: report, GraphML, CSV, JSON. Used to compare engines/settings.
std::string analysis_bytes(const Trace& trace, int threads) {
  AnalysisOptions opts;
  opts.threads = threads;
  opts.metrics.threads = threads;
  const Analysis a = analyze(trace, Topology::generic4(), opts);
  std::ostringstream out;
  out << render_report(trace, a);
  write_graphml(out, a.graph, trace, &a.grains, &a.metrics, GraphMlOptions{});
  write_grain_csv(out, trace, a.grains, a.metrics);
  write_json_summary(out, trace, a);
  return out.str();
}

/// Codec round-trip equivalence: synthetic traces are saved as text, .ggbin
/// and a spool and loaded back; every load must equal the in-memory original
/// record for record (it re-saves to the same text) and give the original's
/// analysis output under serial and parallel settings.
int run_codec_equivalence(u64 base_seed) {
  int failures = 0;
  for (int round = 0; round < 3; ++round) {
    SynthOptions sopts;
    sopts.seed = base_seed + static_cast<u64>(round);
    sopts.grains = 2000 + static_cast<u64>(round) * 500;
    const Trace trace = synth_trace(sopts);
    std::ostringstream text, bin;
    save_trace(trace, text);
    save_trace_binary(trace, bin);
    const std::string expected = analysis_bytes(trace, /*threads=*/1);
    auto load = [](const std::string& bytes, bool binary, int threads) {
      LoadOptions lo;
      lo.threads = threads;
      std::istringstream is(bytes);
      LoadResult lr =
          binary ? load_trace_binary_ex(is, lo) : load_trace_ex(is, lo);
      return lr.usable() ? std::move(lr.trace) : std::nullopt;
    };
    spool::RecoverResult rr =
        spool::recover_spool_bytes(spool::spool_trace_bytes(trace, 4096));
    struct Case {
      const char* name;
      int threads;
      std::optional<Trace> loaded;
    };
    Case cases[] = {
        {"text/parallel", 0, load(text.str(), false, 0)},
        {"text/4-threads", 4, load(text.str(), false, 4)},
        {"binary/parallel", 0, load(bin.str(), true, 0)},
        {"spool/parallel", 0,
         rr.usable && !rr.report.partial() ? std::move(rr.trace)
                                           : std::optional<Trace>()},
    };
    for (const Case& c : cases) {
      std::ostringstream again;
      if (c.loaded) save_trace(*c.loaded, again);
      const char* why =
          !c.loaded                   ? "load failed"
          : again.str() != text.str() ? "records differ from the original"
          : analysis_bytes(*c.loaded, c.threads) != expected
              ? "output differs from the original's"
              : nullptr;
      if (why != nullptr) {
        std::fprintf(stderr, "[selftest] equivalence %s seed %llu: %s\n",
                     c.name, static_cast<unsigned long long>(sopts.seed),
                     why);
        ++failures;
      }
    }
  }
  return failures;
}

/// Crash-recovery smoke check: fork a child that records a real threaded
/// run with spooling enabled and SIGKILLs itself mid-region; the parent
/// must recover the spool, salvage the partial trace, and analyze it.
/// Returns the number of failures (0 or 1).
int run_crash_recovery_smoke(u64 seed) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() /
       ("gganalyze-selftest-" + std::to_string(::getpid()) + ".ggspool"))
          .string();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "[selftest] crash recovery: fork failed\n");
    return 1;
  }
  if (pid == 0) {
    // Child: record with small durable epochs so plenty of frames reach the
    // disk before the kill, then die mid-region without any cleanup.
    rts::Options o;
    o.num_workers = 2;
    o.spool.path = path;
    o.spool.epoch_bytes = 2 * 1024;
    o.spool.crash_handlers = false;  // a SIGKILL is not catchable anyway
    rts::ThreadedEngine eng(o);
    const u64 kill_at = 60 + (seed % 40);
    eng.run("selftest-crash", [&](front::Ctx& ctx) {
      std::atomic<u64> finished{0};
      for (int i = 0; i < 400; ++i) {
        ctx.spawn(front::SrcLoc{"selftest.c", 10, "crash_task"},
                  [&finished, kill_at](front::Ctx& c) {
                    c.compute(500);
                    if (finished.fetch_add(1) + 1 == kill_at) {
                      ::kill(::getpid(), SIGKILL);
                    }
                  });
      }
      ctx.taskwait();
    });
    _exit(0);  // only reached if the kill never fired
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  int failures = 0;
  if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
    std::fprintf(stderr,
                 "[selftest] crash recovery: child did not die by SIGKILL "
                 "(status %d)\n", status);
    ++failures;
  }
  std::string err;
  spool::RecoverResult rr = spool::recover_spool_file(path, &err);
  if (!rr.usable) {
    std::fprintf(stderr, "[selftest] crash recovery: recover failed: %s\n",
                 err.empty() ? rr.report.summary().c_str() : err.c_str());
    std::error_code ec;
    fs::remove(path, ec);
    return failures + 1;
  }
  if (rr.report.clean_footer) {
    std::fprintf(stderr,
                 "[selftest] crash recovery: spool unexpectedly clean "
                 "(child survived to finish?)\n");
    ++failures;
  }
  salvage_trace(rr.trace);
  const std::vector<std::string> violations = validate_trace(rr.trace);
  if (!violations.empty()) {
    std::fprintf(stderr,
                 "[selftest] crash recovery: salvaged trace invalid: %s\n",
                 violations.front().c_str());
    ++failures;
  } else {
    // The full analysis must run without tripping over the partial trace.
    analysis_bytes(rr.trace, /*threads=*/1);
  }
  std::fprintf(stderr,
               "[selftest] crash recovery: %s (%llu frames kept, "
               "%zu tasks salvaged)\n",
               failures == 0 ? "ok" : "FAILED",
               static_cast<unsigned long long>(rr.report.frames_kept),
               rr.trace.tasks.size());
  std::error_code ec;
  fs::remove(path, ec);
  return failures;
}

/// Self-check mode: the differential oracle plus a queue-harness sweep, all
/// in-process. Used by CI as a one-command health probe of the entire
/// profiling pipeline (runtimes -> trace -> graph -> metrics).
int run_selftest(int programs, int schedules) {
  u64 base_seed = 1;
  if (const char* env = std::getenv("GG_TEST_SEED")) {
    base_seed = std::strtoull(env, nullptr, 0);
  }
  std::fprintf(stderr,
               "[selftest] oracle: %d program(s) x %d rts schedule(s), base "
               "seed %llu\n",
               programs, schedules,
               static_cast<unsigned long long>(base_seed));
  gg::check::OracleOptions opts;
  opts.schedules = schedules;
  opts.log = true;
  gg::check::OracleResult res =
      gg::check::check_many(base_seed, programs, opts);

  std::fprintf(stderr, "[selftest] queue harness sweep\n");
  int queue_runs = 0;
  std::vector<std::string> queue_violations;
  for (int s = 0; s < 10; ++s) {
    // 10 configs, each run on the Chase-Lev deque and the central queue.
    gg::check::DequeCheckOptions dopts;
    dopts.schedule.strategy = static_cast<gg::check::Strategy>(s % 3);
    dopts.schedule.seed = base_seed + static_cast<u64>(s);
    dopts.num_thieves = 1 + (s % 2);
    dopts.initial_capacity = (s % 2 == 0) ? 2 : 64;
    dopts.items_per_round = 1 + (s % 3);
    auto collect = [&](const gg::check::DequeCheckResult& r) {
      ++queue_runs;
      queue_violations.insert(queue_violations.end(), r.violations.begin(),
                              r.violations.end());
    };
    collect(gg::check::check_deque(dopts));
    collect(gg::check::check_central_queue(dopts));
  }

  std::fprintf(stderr, "[selftest] codec round-trip equivalence sweep\n");
  const int equiv_failures = run_codec_equivalence(base_seed);

  std::fprintf(stderr, "[selftest] crash recovery round-trip\n");
  const int crash_failures = run_crash_recovery_smoke(base_seed);

  std::fprintf(stderr, "%s\n", res.summary().c_str());
  std::fprintf(stderr, "[selftest] queue harness: %zu violation(s) in %d "
               "run(s)\n", queue_violations.size(), queue_runs);
  for (size_t i = 0; i < queue_violations.size() && i < 10; ++i) {
    std::fprintf(stderr, "  %s\n", queue_violations[i].c_str());
  }
  std::fprintf(stderr, "[selftest] codec equivalence: %d failure(s)\n",
               equiv_failures);
  std::fprintf(stderr, "[selftest] crash recovery: %d failure(s)\n",
               crash_failures);
  const bool ok = res.ok() && queue_violations.empty() &&
                  equiv_failures == 0 && crash_failures == 0;
  std::fprintf(stderr, "[selftest] %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "--selftest") == 0) {
    const int programs = argc > 2 ? std::atoi(argv[2]) : 5;
    const int schedules = argc > 3 ? std::atoi(argv[3]) : 6;
    if (programs <= 0 || schedules <= 0) return usage(argv[0]);
    return run_selftest(programs, schedules);
  }
  const std::string trace_path = argv[1];
  std::string baseline_path, graphml_path, dot_path, csv_path, json_path;
  std::string compare_path, html_path, chrome_path;
  std::string topology_name;
  std::optional<Problem> view;
  bool reduced = false, timeline = false;
  bool strict = false, salvage = false, recover = false;
  bool timing = false;
  std::string telemetry_mode;  // "", "prom", "json", or "chrome"
  if (obs::env_enabled()) telemetry_mode = "prom";
  int threads = 0;
  size_t summarize_budget = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--baseline") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      baseline_path = v;
    } else if (arg == "--view") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      view = parse_view(v);
      if (!view) {
        std::fprintf(stderr, "unknown view '%s'\n", v);
        return 2;
      }
    } else if (arg == "--graphml") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      graphml_path = v;
    } else if (arg == "--dot") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      dot_path = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      csv_path = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--html") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      html_path = v;
    } else if (arg == "--chrome") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      chrome_path = v;
    } else if (arg == "--compare") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      compare_path = v;
    } else if (arg == "--topology") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      topology_name = v;
    } else if (arg == "--summarize") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (v[0] == '-' || end == v || *end != '\0') {
        std::fprintf(stderr, "--summarize expects a non-negative integer, "
                     "got '%s'\n", v);
        return 2;
      }
      summarize_budget = static_cast<size_t>(parsed);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      threads = std::atoi(v);
      if (threads < 0) {
        std::fprintf(stderr, "--threads expects a non-negative integer\n");
        return 2;
      }
    } else if (arg == "--reduced") {
      reduced = true;
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--telemetry" || arg.rfind("--telemetry=", 0) == 0) {
      telemetry_mode = arg == "--telemetry" ? "prom" : arg.substr(12);
      if (telemetry_mode != "prom" && telemetry_mode != "json" &&
          telemetry_mode != "chrome") {
        std::fprintf(stderr,
                     "--telemetry expects prom, json, or chrome (got '%s')\n",
                     telemetry_mode.c_str());
        return 2;
      }
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--recover") {
      recover = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (strict && salvage) {
    std::fprintf(stderr, "--strict and --salvage are mutually exclusive\n");
    return 2;
  }
  if (strict && recover) {
    std::fprintf(stderr, "--strict and --recover are mutually exclusive\n");
    return 2;
  }

  // Self-telemetry of this invocation. Installed before the load so every
  // phase span lands in the tracer; static storage outlives all phases.
  static obs::Telemetry self_telemetry;
  if (!telemetry_mode.empty()) obs::install(&self_telemetry);

  // Crash spools take their own ingestion path: frame-level recovery, then
  // the regular salvage pass over whatever the spool preserved.
  const bool spool_input =
      recover ||
      (trace_path.size() > 8 &&
       trace_path.compare(trace_path.size() - 8, 8, ".ggspool") == 0) ||
      spool::spool_file_magic(trace_path);

  LoadResult lr;
  i64 load_ns = 0;
  obs::PhaseSpan load_span("gganalyze.load");
  if (spool_input) {
    const i64 load_start = now_ns();
    std::string rec_err;
    spool::RecoverResult rr =
        spool::recover_spool_file(trace_path, &rec_err, threads);
    load_ns = now_ns() - load_start;
    load_span.end();
    if (!rr.usable) {
      std::fprintf(stderr, "error: spool recovery failed: %s\n",
                   rec_err.empty() ? rr.report.summary().c_str()
                                   : rec_err.c_str());
      return 4;
    }
    std::fprintf(stderr, "%s\n", rr.report.summary().c_str());
    if (!rr.report.crash_reason.empty()) {
      std::fprintf(stderr, "crash provenance: %s\n",
                   rr.report.crash_reason.c_str());
    }
    if (!rr.report.supervisor_dump.empty()) {
      std::fprintf(stderr, "supervisor diagnostic:\n%s",
                   rr.report.supervisor_dump.c_str());
    }
    bool degraded = rr.report.partial() || rr.report.frames_corrupt > 0 ||
                    rr.report.frames_out_of_order > 0 ||
                    rr.report.epoch_gaps > 0 || rr.report.torn_tail;
    if (degraded) {
      // Recovered traces usually miss closing records for in-flight work;
      // the salvage pass synthesizes them and quarantines the rest.
      const SalvageReport srep = salvage_trace(rr.trace);
      if (srep.any()) std::fprintf(stderr, "%s\n", srep.summary().c_str());
    }
    const std::vector<std::string> violations = validate_trace(rr.trace);
    if (!violations.empty()) {
      std::fprintf(stderr, "error: recovered trace unsalvageable: %s\n",
                   violations.front().c_str());
      return 4;
    }
    lr.status = degraded ? LoadStatus::Salvaged : LoadStatus::Ok;
    lr.trace = std::move(rr.trace);
  } else {
    LoadOptions lopts;
    lopts.mode = salvage ? LoadMode::Salvage
                         : (strict ? LoadMode::Strict : LoadMode::Lenient);
    lopts.threads = threads;
    const i64 load_start = now_ns();
    lr = load_trace_file_ex(trace_path, lopts);
    load_ns = now_ns() - load_start;
    load_span.end();
    if (!lr.usable()) {
      std::fprintf(stderr, "error: %s", lr.describe().c_str());
      return salvage ? 4 : 1;
    }
    if (lr.status == LoadStatus::Salvaged) {
      // Degradation report: what was lost/repaired before analysis.
      std::fprintf(stderr, "%s", lr.describe().c_str());
    }
  }
  std::optional<Trace>& trace = lr.trace;
  std::string error;

  // An explicit --topology must name a known preset; an unrecognized name
  // from the trace's own metadata (e.g. "host") falls back to generic4.
  Topology topo = Topology::generic4();
  if (!topology_name.empty()) {
    auto parsed = parse_topology(topology_name);
    if (!parsed) {
      std::fprintf(stderr, "unknown topology '%s' (expected "
                   "opteron48|generic4|generic16)\n", topology_name.c_str());
      return 2;
    }
    topo = *parsed;
  } else if (auto from_meta = parse_topology(trace->meta.topology)) {
    topo = *from_meta;
  }

  AnalysisOptions opts;
  opts.threads = threads;
  opts.metrics.threads = threads;
  GrainTable baseline;
  if (!baseline_path.empty()) {
    auto base = load_trace_file(baseline_path, &error);
    if (!base) {
      std::fprintf(stderr, "error loading baseline: %s\n", error.c_str());
      return 1;
    }
    baseline = GrainTable::build(*base);
    opts.baseline = &baseline;
  }
  AnalysisTimings timings;
  const Analysis a = analyze(*trace, topo, opts, &timings);
  PipelineTimings ptimings;
  ptimings.load_ns = load_ns;
  ptimings.analysis = timings;
  // Times one export stage: phase span + wall time, both named. The JSON
  // summary runs last so its "timings" object can include every other
  // export that ran.
  auto timed_export = [&](const char* name, auto&& fn) {
    obs::PhaseSpan span(name);
    const i64 t0 = now_ns();
    fn();
    ptimings.exports.emplace_back(name, now_ns() - t0);
  };
  std::printf("%s", render_report(*trace, a).c_str());
  std::printf("%s", render_recommendations(recommend(*trace, a)).c_str());

  if (!compare_path.empty()) {
    auto other = load_trace_file(compare_path, &error);
    if (!other) {
      std::fprintf(stderr, "error loading --compare trace: %s\n",
                   error.c_str());
      return 1;
    }
    const Analysis oa = analyze(*other, topo, opts);
    std::printf("\n%s", render_comparison(
                             compare_runs(*trace, a, *other, oa)).c_str());
  }

  if (timeline) {
    const TimelineView v = thread_timeline(*trace, 72);
    std::printf("\nthread timeline ('#' busy, '+' runtime, '.' idle), "
                "imbalance %.2f:\n", v.imbalance);
    for (size_t i = 0; i < v.strips.size() && i < 16; ++i) {
      std::printf("  t%02zu |%s| busy %5.1f%%\n", i, v.strips[i].c_str(),
                  v.threads[i].busy_percent);
    }
  }

  if (!graphml_path.empty()) {
    timed_export("export.graphml", [&] {
      GraphMlOptions gopts;
      gopts.view = view;
      bool ok;
      if (summarize_budget > 0) {
        const SummarizeResult s = summarize_graph(a.graph, summarize_budget);
        std::printf("summarized to %zu nodes (cut depth %zu)\n",
                    s.graph.node_count(), s.cut_depth);
        ok = write_graphml_file(graphml_path, s.graph, *trace, nullptr,
                                nullptr, gopts);
      } else if (reduced) {
        const GrainGraph r = reduce_graph(a.graph, ReductionOptions{});
        ok = write_graphml_file(graphml_path, r, *trace, nullptr, nullptr,
                                gopts);
      } else {
        ok = write_graphml_file(graphml_path, a.graph, *trace, &a.grains,
                                &a.metrics, gopts);
      }
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  graphml_path.c_str());
    });
  }
  if (!dot_path.empty()) {
    timed_export("export.dot", [&] {
      const bool ok =
          reduced ? write_dot_file(dot_path,
                                   reduce_graph(a.graph, ReductionOptions{}),
                                   *trace)
                  : write_dot_file(dot_path, a.graph, *trace);
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  dot_path.c_str());
    });
  }
  if (!csv_path.empty()) {
    timed_export("export.csv", [&] {
      const bool ok =
          write_grain_csv_file(csv_path, *trace, a.grains, a.metrics);
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  csv_path.c_str());
    });
  }
  if (!html_path.empty()) {
    timed_export("export.html", [&] {
      const bool ok = write_html_report_file(html_path, *trace, a);
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  html_path.c_str());
    });
  }
  if (!chrome_path.empty()) {
    timed_export("export.chrome", [&] {
      const bool ok = write_chrome_trace_file(chrome_path, *trace);
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  chrome_path.c_str());
    });
  }
  // JSON runs last: with --timing its summary embeds the wall time of every
  // export above (its own slot is appended after it finishes).
  if (!json_path.empty()) {
    timed_export("export.json", [&] {
      const bool ok = write_json_summary_file(json_path, *trace, a,
                                              timing ? &ptimings : nullptr);
      std::printf("%s %s\n", ok ? "wrote" : "FAILED to write",
                  json_path.c_str());
    });
  }

  if (timing) {
    std::error_code ec;
    const auto input_bytes = std::filesystem::file_size(trace_path, ec);
    const int load_threads = resolve_threads(threads);
    std::fprintf(stderr,
                 "[timing] input %llu bytes\n"
                 "[timing] load     %10.3f ms (%d thread(s))\n"
                 "[timing] graph    %10.3f ms (%d thread(s))\n"
                 "[timing] grains   %10.3f ms (%d thread(s))\n"
                 "[timing] metrics  %10.3f ms (%d thread(s))\n",
                 ec ? 0ULL : static_cast<unsigned long long>(input_bytes),
                 static_cast<double>(load_ns) / 1e6, load_threads,
                 static_cast<double>(timings.graph_ns) / 1e6,
                 timings.graph_threads,
                 static_cast<double>(timings.grains_ns) / 1e6,
                 timings.grains_threads,
                 static_cast<double>(timings.metrics_ns) / 1e6,
                 timings.metrics_threads);
    const MetricPassTimings& mp = timings.metric_passes;
    std::fprintf(stderr,
                 "[timing]   benefit       %10.3f ms\n"
                 "[timing]   load_balance  %10.3f ms\n"
                 "[timing]   parallelism   %10.3f ms\n"
                 "[timing]   scatter       %10.3f ms\n"
                 "[timing]   critical_path %10.3f ms\n",
                 static_cast<double>(mp.benefit_ns) / 1e6,
                 static_cast<double>(mp.load_balance_ns) / 1e6,
                 static_cast<double>(mp.parallelism_ns) / 1e6,
                 static_cast<double>(mp.scatter_ns) / 1e6,
                 static_cast<double>(mp.critical_path_ns) / 1e6);
    std::fprintf(stderr, "[timing] problems %10.3f ms\n",
                 static_cast<double>(timings.problems_ns) / 1e6);
    i64 export_ns = 0;
    for (const auto& [name, ns] : ptimings.exports) {
      std::fprintf(stderr, "[timing] %-8s %10.3f ms (%s)\n", "export",
                   static_cast<double>(ns) / 1e6, name.c_str());
      export_ns += ns;
    }
    std::fprintf(stderr, "[timing] total    %10.3f ms\n",
                 static_cast<double>(load_ns + timings.total_ns() +
                                     export_ns) / 1e6);
  }

  if (!telemetry_mode.empty()) {
    obs::MetricsSnapshot snap = self_telemetry.registry.snapshot();
    snap.ts_ns = static_cast<u64>(now_ns());
    if (telemetry_mode == "prom") {
      std::fputs(obs::render_prometheus(snap).c_str(), stderr);
    } else if (telemetry_mode == "json") {
      std::fputs(obs::render_json(snap).c_str(), stderr);
    } else {  // chrome
      const char* span_path = "gganalyze.telemetry.json";
      std::ofstream os(span_path);
      if (os) {
        obs::write_chrome_spans(os, self_telemetry.tracer.spans());
        std::fprintf(stderr, "telemetry spans written to %s\n", span_path);
      } else {
        std::fprintf(stderr, "FAILED to write %s\n", span_path);
      }
    }
    obs::install(nullptr);
  }
  return lr.status == LoadStatus::Salvaged ? 3 : 0;
}
