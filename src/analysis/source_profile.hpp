// Per-source-definition aggregation (paper Fig. 7: "FFT performance grouped
// by definition in source files", and §4.3.2's "sorting task definitions by
// creation count and work inflation").
//
// Grains are individual instances; a definition is all grains sharing one
// source location. The profile answers: which definition contributes most
// work, creates most grains, and has the highest prevalence of a problem?
#pragma once

#include <string>
#include <vector>

#include "analysis/problems.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"
#include "trace/trace.hpp"

namespace gg {

struct SourceProfileRow {
  std::string source;       ///< e.g. "sparselu.c:246(bmod)"
  size_t grain_count = 0;   ///< creation count
  TimeNs total_exec = 0;
  double work_share = 0.0;  ///< fraction of total grain work
  TimeNs median_exec = 0;
  double median_parallel_benefit = 0.0;
  double low_benefit_percent = 0.0;   ///< grains below the benefit threshold
  double median_work_deviation = 0.0; ///< NaN-free median (0 if no baseline)
  double inflated_percent = 0.0;      ///< grains above the deviation threshold
  double poor_mem_util_percent = 0.0;
};

enum class SourceSort : u8 { ByCount, ByWorkShare, ByInflation, ByLowBenefit };

/// Builds one row per distinct source location, sorted per `sort`.
/// `threads` spreads the sources over threads, each source's counts and
/// medians one thread's work; the rows are the same for every thread count.
std::vector<SourceProfileRow> source_profile(
    const Trace& trace, const GrainTable& grains, const MetricsResult& metrics,
    const ProblemThresholds& thresholds, SourceSort sort = SourceSort::ByCount,
    int threads = 1);

}  // namespace gg
