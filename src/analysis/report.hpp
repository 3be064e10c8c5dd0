// One-call analysis pipeline: trace -> grain graph -> grain table ->
// metrics -> problem views, plus a textual report renderer. This is the
// programmer-facing work flow of §4.2: build the graph, shift between
// problem views, read grain properties, drill into source locations.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "analysis/problems.hpp"
#include "analysis/source_profile.hpp"
#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"
#include "obs/span.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace gg {

struct AnalysisOptions {
  MetricOptions metrics;
  /// Unset fields of thresholds resolve to paper defaults for the run.
  std::optional<ProblemThresholds> thresholds;
  /// 1-core grain table of the same program, enabling work deviation.
  const GrainTable* baseline = nullptr;
  /// Worker threads for the sharded graph build, grain derivation and
  /// problem views. 0 = auto (GG_THREADS env, then hardware concurrency).
  /// Results are bit-identical for every setting, same contract as
  /// metrics.threads.
  int threads = 0;
};

struct Analysis {
  GrainGraph graph;
  GrainTable grains;
  MetricsResult metrics;
  ProblemThresholds thresholds;
  std::array<ProblemView, kProblemCount> problems;
  std::vector<SourceProfileRow> sources;  ///< sorted by creation count
};

/// Runs the full pipeline on a finalized trace. Each stage runs inside a
/// phase span named "analysis.<stage>" (kAnalysisStages); the problems
/// stage's two parts inside "problems.views" and "problems.sources".
Analysis analyze(const Trace& trace, const Topology& topo,
                 const AnalysisOptions& opts = {});

// --- stage times, read off the phase spans ----------------------------------
// With an obs::Telemetry installed, one tool run leaves a span per stage: the
// trace load (kLoadSpan: validation included, and a spool's recovery and
// salvage), the analyze() stages, compute_metrics()'s passes
// ("metrics.<pass>") and each export ("export.<format>"). `gganalyze
// --timing`, the JSON summary's "timings" object and BENCH_analyze.json are
// rendered from those spans. A stage is its first span of that name, so the
// second analyze() of `gganalyze --compare` is not added in.

inline constexpr const char* kLoadSpan = "gganalyze.load";
inline constexpr std::array<const char*, 4> kAnalysisStages = {
    "graph", "grains", "metrics", "problems"};
/// compute_metrics()'s passes, in order: the spans "metrics.<pass>".
inline constexpr std::array<const char*, 5> kMetricPasses = {
    "benefit", "load_balance", "parallelism", "scatter", "critical_path"};

/// The `gganalyze --timing` lines: input size, then load, each stage (the
/// metric passes under "metrics"), each export, and their total, in ms.
/// `threads` is the resolved worker count every stage ran with.
std::string render_timing(const std::vector<obs::SpanRec>& spans,
                          u64 input_bytes, int threads);

/// The JSON summary's "timings" member, in ns: load, the analysis stages
/// and their total, the metric passes, and each export span recorded so far
/// in the order they ran.
std::string render_timings_json(const std::vector<obs::SpanRec>& spans);

/// Renders the summary the paper's tool shows next to the graph: makespan,
/// grain counts, critical path, load balance, per-problem affected-grain
/// percentages, and the per-source table.
std::string render_report(const Trace& trace, const Analysis& a);

}  // namespace gg
