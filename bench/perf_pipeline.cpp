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
// BENCH_analyze.json. Exit 1 on any parse error, recovery failure or output
// mismatch (so CI can gate on correctness without gating on timing).
// --skip-text drops the text round-trip and the spool paths for very large
// runs (e.g. --grains 10000000), where they would dominate the wall time
// and the memory budget.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "export/grain_csv.hpp"
#include "export/graphml.hpp"
#include "export/json_summary.hpp"
#include "support/bench_support.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"

namespace {

using namespace gg;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PathResult {
  i64 load_ns = 0;
  AnalysisTimings stages;
  std::string report;     ///< rendered textual report
  std::string summary;    ///< JSON summary bytes
  i64 total_ns() const { return load_ns + stages.total_ns(); }
};

/// Loads `path` (a GGSPOOL1 spool is recovered) and runs the full pipeline
/// with `threads` workers in every stage. Returns false on load failure or
/// an incomplete recovery.
bool run_path(const std::string& path, int threads, PathResult& out) {
  const i64 t0 = now_ns();
  std::optional<Trace> trace;
  if (spool::spool_file_magic(path)) {
    spool::RecoverResult rr = spool::recover_spool_file(path, nullptr, threads);
    if (!rr.usable || rr.report.partial()) {
      std::fprintf(stderr, "error: recovery of %s: %s\n", path.c_str(),
                   rr.report.summary().c_str());
      return false;
    }
    trace = std::move(rr.trace);
  } else {
    LoadOptions lo;
    lo.mode = LoadMode::Strict;
    lo.threads = threads;
    LoadResult lr = load_trace_file_ex(path, lo);
    if (!lr.usable()) {
      std::fprintf(stderr, "error: %s", lr.describe().c_str());
      return false;
    }
    trace = std::move(lr.trace);
  }
  out.load_ns = now_ns() - t0;
  AnalysisOptions opts;
  opts.threads = threads;
  opts.metrics.threads = threads;
  const Analysis a = analyze(*trace, Topology::generic4(), opts, &out.stages);
  out.report = render_report(*trace, a);
  std::ostringstream js;
  write_json_summary(js, *trace, a);
  out.summary = js.str();
  return true;
}

void emit_stages(std::ofstream& os, const std::string& name,
                 const PathResult& r) {
  os << "  \"" << name << "\": {\"load_ns\": " << r.load_ns
     << ", \"graph_ns\": " << r.stages.graph_ns
     << ", \"grains_ns\": " << r.stages.grains_ns
     << ", \"metrics_ns\": " << r.stages.metrics_ns
     << ", \"problems_ns\": " << r.stages.problems_ns
     << ", \"total_ns\": " << r.total_ns() << "}";
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

  auto ms = [](i64 ns) { return static_cast<double>(ns) / 1e6; };
  auto print_path = [&](const std::string& name, const PathResult& r) {
    std::printf("%-18s load %9.1f ms, graph %9.1f ms, grains %9.1f ms, "
                "metrics %9.1f ms, problems %9.1f ms => total %9.1f ms\n",
                name.c_str(), ms(r.load_ns), ms(r.stages.graph_ns),
                ms(r.stages.grains_ns), ms(r.stages.metrics_ns),
                ms(r.stages.problems_ns), ms(r.total_ns()));
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
    i64 total_ns = 0;
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
    emit_stages(os, "serial_spool", serial_spool);
    os << ",\n";
    emit_stages(os, "parallel_spool", parallel_spool);
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
