// What every workload shares: its configuration, its result, and the
// set-up and timed-loop discipline.
//
// A run sets up kSetupReps times and reports the median as setup_s (the
// first repetition is timed from process start). Each set-up ends with one
// discarded warm-up op. The timed loop then repeats ops for the requested
// seconds (at least kMinOps); end-to-end figures are medians over those
// ops, and output checks run outside every timed window.
//
// A traced run alternates an untraced op with a traced one, so it yields
// both the per-layer spans and the tracing overhead, and adds layer probes
// (calls made outside any op) for the per-layer figures an op cannot give.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "env.hpp"
#include "gates.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace ggbench {

inline constexpr int kSetupReps = 3;
inline constexpr int kMinOps = 3;
/// Root span name of one op.
inline constexpr const char* kOpSpan = "bench.op";

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;   ///< scratch files; relative to the checkout root
  std::string ggserved;   ///< daemon binary (serve probes)
  int64_t process_start_ns = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  Tally ops;
  /// False when a check outside the op tally failed (set-up outputs that
  /// disagree, an unusable input, a daemon that would not start).
  bool setup_ok = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> log;  ///< human-readable lines before the result

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why);
};

/// Times `reps` set-ups; returns the median in seconds.
template <class Fn>
double time_setups(const Config& cfg, Fn&& setup_once) {
  std::vector<double> secs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = rep == 0 ? cfg.process_start_ns : now_ns();
    setup_once(rep);
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(secs);
}

/// Runs `op(index)` until `seconds` have passed and at least kMinOps ran.
template <class Fn>
void timed_loop(double seconds, Fn&& op) {
  const int64_t t0 = now_ns();
  for (int i = 0;; ++i) {
    if (i >= kMinOps &&
        static_cast<double>(now_ns() - t0) / 1e9 >= seconds)
      break;
    op(i);
  }
}

/// "<what> median M over N: v1 v2 ..." for the log.
std::string describe(const std::string& what, const std::vector<double>& v);

/// Medians of per-op getrusage deltas as the os.* per-layer metrics.
void set_os_metrics(Result& r, const std::vector<Usage>& per_op);

/// Per-op unattributed time and tracing overhead, from a traced run's spans
/// and the untraced op times measured beside them.
void set_bench_metrics(Result& r, const std::vector<SpanRecord>& spans,
                       const std::vector<double>& untraced_op_s);

Result run_analyze(const Config& cfg, Tracer& tracer);
Result run_profile(const Config& cfg, Tracer& tracer);

/// Measures the serve layer (ggserved ingest and queries) with spans and
/// sets the serve.* per-layer metrics; run from the traced `profile` run.
void probe_serve(const Config& cfg, Tracer& tracer, Result& res);

}  // namespace ggbench
