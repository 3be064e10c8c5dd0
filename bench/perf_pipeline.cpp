// perf_pipeline — end-to-end analysis pipeline benchmark: the serial path
// (one thread in every stage) vs the parallel path (mmap ingestion +
// parallel decode + sharded graph/grain construction + parallel metrics)
// on a seeded synthetic trace.
//
//   perf_pipeline [--grains N] [--seed S] [--workers W] [--out file.json]
//                 [--skip-text]
//
// Measures load + graph + grain-table + metrics + problem-view wall time
// per format/thread-count combination on the same input file, checks every
// combination produces byte-identical analysis output (including a thread
// sweep over 1/2/4/8 workers, and a GGSPOOL1 spool recovered at 1 thread
// and at the auto thread count), and writes machine-readable results to
// BENCH_analyze.json. The stage times are each path's phase spans, as
// `gganalyze --timing` reads them; each path's `graph`, `grains`,
// `metrics` and `problems` objects hold those stages' phases and a spool
// path's `recover` object its load's recovery phases; every load, the
// spool's included, validates the trace. Exit 1 on any parse error,
// recovery failure, invalid trace or output mismatch (so CI can gate on
// correctness without gating on timing).
// --skip-text drops the text round-trip and the spool paths for very large
// runs (e.g. --grains 10000000), where they would dominate the wall time
// and the memory budget.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "export/grain_csv.hpp"
#include "export/graphml.hpp"
#include "export/json_summary.hpp"
#include "obs/telemetry.hpp"
#include "support/bench_support.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"

namespace {

using namespace gg;

struct PathResult {
  std::vector<obs::SpanRec> spans;  ///< the load, its phases, analyze()'s stages
  std::string report;     ///< rendered textual report
  std::string summary;    ///< JSON summary bytes
  u64 load_ns() const { return obs::span_ns(spans, kLoadSpan); }
  u64 stage_ns(const char* stage) const {
    return obs::span_ns(spans, std::string("analysis.") + stage);
  }
  u64 total_ns() const {
    u64 total = load_ns();
    for (const char* stage : kAnalysisStages) total += stage_ns(stage);
    return total;
  }
};

/// Loads `path` inside the load span: a strict, validated file load, or a
/// spool's recovery and validation, so every path's load does the same
/// work. nullopt after an error line unless the load is clean (a degraded
/// spool recovery counts as a failure).
std::optional<Trace> load(const std::string& path, int threads) {
  obs::PhaseSpan span(kLoadSpan);
  LoadOptions lo;
  lo.mode = LoadMode::Strict;
  lo.threads = threads;
  LoadResult lr = load_trace_file_ex(path, lo);
  if (lr.ok()) return std::move(lr.trace);
  std::fprintf(stderr, "error: %s did not load cleanly\n%s", path.c_str(),
               lr.describe().c_str());
  return std::nullopt;
}

/// Loads `path` and runs the full pipeline with `threads` workers in every
/// stage, under a telemetry context of its own: the stage times are this
/// path's phase spans. Returns false when the load fails.
bool run_path(const std::string& path, int threads, PathResult& out) {
  obs::Telemetry telemetry;
  obs::install(&telemetry);
  const std::optional<Trace> trace = load(path, threads);
  if (trace) {
    AnalysisOptions opts;
    opts.threads = threads;
    opts.metrics.threads = threads;
    const Analysis a = analyze(*trace, Topology::generic4(), opts);
    out.report = render_report(*trace, a);
    std::ostringstream js;
    write_json_summary(js, *trace, a);
    out.summary = js.str();
  }
  obs::install(nullptr);
  out.spans = telemetry.tracer.spans();
  return trace.has_value();
}

/// Spool recovery's phase spans inside a spool path's load, in order.
constexpr const char* kRecoverPhases[] = {"walk", "verify", "apply", "place",
                                          "finalize"};

/// The grain graph build's phase spans inside the graph stage, in order.
constexpr const char* kGraphPhases[] = {"fragments", "count", "wire",
                                        "epilogue", "finalize"};

/// The grain table build's phase spans inside the grains stage, in order.
constexpr const char* kGrainPhases[] = {"tasks", "sync", "chunks"};

/// The problems stage's phase spans, in order.
constexpr const char* kProblemPhases[] = {"views", "sources"};

/// `"<key>": {"<phase>_ns": ...}` from the spans named `<scope>.<phase>`.
void emit_phases(std::ofstream& os, const char* key, const char* scope,
                 const PathResult& r, std::span<const char* const> phases) {
  os << ", \"" << key << "\": {";
  const char* sep = "";
  for (const char* phase : phases) {
    os << sep << "\"" << phase << "_ns\": "
       << obs::span_ns(r.spans, std::string(scope) + "." + phase);
    sep = ", ";
  }
  os << "}";
}

/// One path's stage times, the graph, grain table, metrics and problem
/// stages' phases, and for a spool path its recovery phases.
void emit_stages(std::ofstream& os, const std::string& name,
                 const PathResult& r, bool spool = false) {
  os << "  \"" << name << "\": {\"load_ns\": " << r.load_ns();
  if (spool) emit_phases(os, "recover", "spool", r, kRecoverPhases);
  for (const char* stage : kAnalysisStages) {
    os << ", \"" << stage << "_ns\": " << r.stage_ns(stage);
  }
  emit_phases(os, "graph", "graph", r, kGraphPhases);
  emit_phases(os, "grains", "grains", r, kGrainPhases);
  emit_phases(os, "metrics", "metrics", r, kMetricPasses);
  emit_phases(os, "problems", "problems", r, kProblemPhases);
  os << ", \"total_ns\": " << r.total_ns() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  SynthOptions sopts;
  sopts.grains = 1000000;
  std::string out_json = "BENCH_analyze.json";
  bool skip_text = false;
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
    } else if (arg == "--out") {
      out_json = value();
    } else if (arg == "--skip-text") {
      skip_text = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--grains N] [--seed S] [--workers W] "
                   "[--out file.json] [--skip-text]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "analysis pipeline throughput (serial vs sharded-parallel)",
      "n/a (implementation benchmark; target >= 1M grains/s end-to-end)");

  std::printf("generating synthetic trace: %llu grains, %d workers, seed "
              "%llu\n",
              static_cast<unsigned long long>(sopts.grains), sopts.workers,
              static_cast<unsigned long long>(sopts.seed));
  const std::string dir = bench::out_dir();
  const std::string text_path = dir + "/perf_pipeline.ggtrace";
  const std::string bin_path = dir + "/perf_pipeline.ggbin";
  const std::string spool_path = dir + "/perf_pipeline.ggspool";
  u64 n_grains = 0;
  int n_workers = 0;
  {
    // Scoped so the synthesized trace is freed before the measured loads:
    // at 10M grains the in-memory trace is multiple GB and keeping it
    // alive would double the peak footprint.
    const Trace trace = synth_trace(sopts);
    n_grains = trace.grain_count();
    n_workers = trace.meta.num_workers;
    bool written = save_trace_file(trace, bin_path);
    if (!skip_text) {
      written = written && save_trace_file(trace, text_path);
      // The recorder's default epoch size, as a profiled run spools it.
      const std::string spooled =
          spool::spool_trace_bytes(trace, /*epoch_bytes=*/64 * 1024);
      std::ofstream os(spool_path, std::ios::binary | std::ios::trunc);
      os.write(spooled.data(), static_cast<std::streamsize>(spooled.size()));
      written = written && static_cast<bool>(os);
    }
    if (!written) {
      std::fprintf(stderr, "error: cannot write trace files under %s\n",
                   dir.c_str());
      return 1;
    }
  }
  std::error_code ec;
  const u64 bin_bytes = std::filesystem::file_size(bin_path, ec);
  const u64 text_bytes =
      skip_text ? 0 : std::filesystem::file_size(text_path, ec);
  const u64 spool_bytes =
      skip_text ? 0 : std::filesystem::file_size(spool_path, ec);
  if (skip_text) {
    std::printf("trace file: %s (%.1f MB binary)\n", bin_path.c_str(),
                static_cast<double>(bin_bytes) / 1e6);
  } else {
    std::printf("trace files: %s (%.1f MB text), %s (%.1f MB binary), "
                "%s (%.1f MB spool)\n",
                text_path.c_str(), static_cast<double>(text_bytes) / 1e6,
                bin_path.c_str(), static_cast<double>(bin_bytes) / 1e6,
                spool_path.c_str(), static_cast<double>(spool_bytes) / 1e6);
  }

  auto ms = [](u64 ns) { return static_cast<double>(ns) / 1e6; };
  auto print_path = [&](const std::string& name, const PathResult& r) {
    std::printf("%-18s load %9.1f ms, graph %9.1f ms, grains %9.1f ms, "
                "metrics %9.1f ms, problems %9.1f ms => total %9.1f ms\n",
                name.c_str(), ms(r.load_ns()), ms(r.stage_ns("graph")),
                ms(r.stage_ns("grains")), ms(r.stage_ns("metrics")),
                ms(r.stage_ns("problems")), ms(r.total_ns()));
  };

  // The serial binary run is the correctness reference every other
  // combination must match byte-for-byte.
  PathResult serial;
  if (!run_path(bin_path, /*threads=*/1, serial)) return 1;
  print_path("serial/binary", serial);

  bool identical = true;
  auto gate = [&](const std::string& name, const PathResult& r) {
    if (r.report != serial.report || r.summary != serial.summary) {
      std::fprintf(stderr,
                   "error: %s output differs from the serial reference\n",
                   name.c_str());
      identical = false;
    }
  };

  PathResult parallel;
  if (!run_path(bin_path, /*threads=*/0, parallel)) return 1;
  print_path("parallel/binary", parallel);
  gate("parallel/binary", parallel);

  // Thread sweep: the sharded builders must be bit-identical at every
  // worker count, not just serial-vs-auto.
  struct SweepPoint {
    int threads = 0;
    u64 total_ns = 0;
  };
  std::vector<SweepPoint> sweep;
  for (const int t : {2, 4, 8}) {
    PathResult r;
    if (!run_path(bin_path, t, r)) return 1;
    print_path("t=" + std::to_string(t) + "/binary", r);
    gate("t=" + std::to_string(t) + "/binary", r);
    sweep.push_back({t, r.total_ns()});
  }

  PathResult text, serial_spool, parallel_spool;
  if (!skip_text) {
    if (!run_path(text_path, /*threads=*/0, text)) return 1;
    print_path("parallel/text", text);
    gate("parallel/text", text);
    // Spool recovery finalizes with the path's thread count.
    if (!run_path(spool_path, /*threads=*/1, serial_spool)) return 1;
    print_path("serial/spool", serial_spool);
    gate("serial/spool", serial_spool);
    if (!run_path(spool_path, /*threads=*/0, parallel_spool)) return 1;
    print_path("parallel/spool", parallel_spool);
    gate("parallel/spool", parallel_spool);
  }

  const double serial_over_parallel =
      serial.total_ns() > 0 && parallel.total_ns() > 0
          ? static_cast<double>(serial.total_ns()) /
                static_cast<double>(parallel.total_ns())
          : 0.0;
  const double grains_per_sec =
      parallel.total_ns() > 0
          ? static_cast<double>(n_grains) * 1e9 /
                static_cast<double>(parallel.total_ns())
          : 0.0;
  std::printf("parallel speedup over serial (binary): %.2fx\n",
              serial_over_parallel);
  std::printf("end-to-end throughput (parallel/binary): %.0f grains/s\n",
              grains_per_sec);
  std::printf("outputs byte-identical across paths: %s\n",
              identical ? "yes" : "NO");

  std::ofstream os(out_json);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", out_json.c_str());
    return 1;
  }
  os << "{\n  \"bench\": \"perf_pipeline\",\n  \"grains\": " << n_grains
     << ",\n  \"workers\": " << n_workers << ",\n  \"seed\": " << sopts.seed
     << ",\n  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"build_type\": \"" << GG_BUILD_TYPE << "\""
     << ",\n  \"text_bytes\": " << text_bytes
     << ",\n  \"binary_bytes\": " << bin_bytes
     << ",\n  \"spool_bytes\": " << spool_bytes << ",\n";
  emit_stages(os, "serial_binary", serial);
  os << ",\n";
  emit_stages(os, "parallel_binary", parallel);
  if (!skip_text) {
    os << ",\n";
    emit_stages(os, "parallel_text", text);
    os << ",\n";
    emit_stages(os, "serial_spool", serial_spool, /*spool=*/true);
    os << ",\n";
    emit_stages(os, "parallel_spool", parallel_spool, /*spool=*/true);
  }
  os << ",\n  \"thread_sweep\": [";
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"threads\": " << sweep[i].threads
       << ", \"total_ns\": " << sweep[i].total_ns << "}";
  }
  os << "]";
  os << ",\n  \"speedup_parallel_over_serial\": " << serial_over_parallel;
  os << ",\n  \"grains_per_sec\": " << grains_per_sec
     << ",\n  \"outputs_identical\": " << (identical ? "true" : "false")
     << "\n}\n";
  os.close();
  std::printf("wrote %s\n", out_json.c_str());
  return identical ? 0 : 1;
}
