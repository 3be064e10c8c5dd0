// Problem detection and highlighting (paper §3.3).
//
// Default thresholds, straight from the paper: memory-hierarchy utilization
// < 2, parallel benefit < 1, load balance > 1, work deviation > 2,
// instantaneous parallelism < cores used, and scatter farther than one CPU
// socket. Grains that cross a threshold are highlighted with a severity in
// [0,1] (the paper's red-to-yellow gradients); others are dimmed.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/uninit_vector.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"
#include "topology/topology.hpp"

namespace gg {

enum class Problem : u8 {
  LowParallelBenefit = 0,
  WorkInflation,
  PoorMemUtil,
  LowParallelism,
  HighScatter,
  kCount
};

constexpr size_t kProblemCount = static_cast<size_t>(Problem::kCount);

const char* to_string(Problem p);

struct ProblemThresholds {
  double parallel_benefit_min = 1.0;
  double work_deviation_max = 2.0;
  double mem_util_min = 2.0;
  int min_parallelism = 0;    ///< 0 = number of cores used in the run
  int scatter_max = 0;        ///< 0 = same-socket NUMA distance (off-socket
                              ///< scatter is highlighted)
  bool optimistic_parallelism = true;  ///< which flavor feeds LowParallelism

  /// Paper defaults resolved against a run (cores used) and a topology.
  static ProblemThresholds defaults(int cores_used, const Topology& topo);
};

/// Per-grain verdicts for one problem view.
struct ProblemView {
  Problem problem = Problem::LowParallelBenefit;
  std::vector<bool> flagged;        ///< aligned with the grain table
  UninitVector<double> severity;    ///< 0 (mild) .. 1 (worst); 0 if not flagged
  size_t flagged_count = 0;
  double flagged_percent = 0.0;    ///< the paper's "affected grains (%)"
};

/// Evaluates one problem across all grains.
ProblemView evaluate_problem(Problem problem, const GrainTable& grains,
                             const MetricsResult& metrics,
                             const ProblemThresholds& thresholds);

/// Evaluates every problem, in one pass over the rows. `threads` splits the
/// rows into blocks of whole 64-row words of `flagged`, so no two threads
/// write one word; counts merge in block order, and the views are the same
/// for every thread count.
std::array<ProblemView, kProblemCount> evaluate_all(
    const GrainTable& grains, const MetricsResult& metrics,
    const ProblemThresholds& thresholds, int threads = 1);

/// Severity -> red-to-yellow linear gradient (red = severity 1), as "#rrggbb".
/// Non-flagged grains are dimmed gray.
std::string severity_color(double severity);
std::string dimmed_color();

}  // namespace gg
