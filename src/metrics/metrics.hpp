// Derived per-grain metrics (paper §3.2):
//
//  * parallel benefit — grain execution time / parallelization cost borne by
//    the parent (creation time + average share of the parent's time
//    synchronizing the siblings; chunks use book-keeping cost instead of
//    creation time). Low benefit -> execute serially (inline / cutoff).
//  * load balance — longest grain length / median length of all chains of
//    consecutive grains in the unreduced graph (>1 means at least one grain
//    approaches the parallel section's makespan).
//  * work deviation — per-grain execution time on N cores / on 1 core,
//    matched by schedule-independent grain id. > 1 is work inflation
//    (Olivier et al.'s term, computed per grain instead of per program).
//  * instantaneous parallelism — grains overlapping each time interval;
//    optimistic counts any overlap, conservative only full overlap. A
//    grain's value is the minimum over its overlapping intervals.
//  * scatter — median pairwise NUMA distance between cores executing
//    sibling grains.
//  * memory-hierarchy utilization — compute cycles / stalled cycles.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "metrics/critical_path.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace gg {

/// Interval-size presets for instantaneous parallelism (§3.2 offers minimum
/// grain length, smallest start/end gap, and median grain length).
enum class IntervalPreset : u8 { MinGrain, MinGap, MedianGrain, Fixed };

struct MetricOptions {
  IntervalPreset interval = IntervalPreset::MedianGrain;
  TimeNs fixed_interval_ns = 0;  ///< used when interval == Fixed
  /// Post-processing-time bound: the interval is widened so the timeline
  /// has at most this many slots (the paper notes interval size balances
  /// accuracy and post-processing time).
  size_t max_intervals = 20000;
  /// Pairwise-distance computations sample at most this many siblings.
  size_t scatter_sample = 512;
  /// Worker threads for the per-grain metric passes. 0 = auto (GG_THREADS
  /// env, then hardware concurrency). Results are bit-identical for every
  /// setting: parallel passes write per-grain slots or merge integer
  /// partial sums in a fixed order.
  int threads = 0;
};

/// Per-grain metrics. The default constructor leaves every field unset, so
/// MetricsResult::per_grain is sized with no serial zero-fill: the benefit
/// pass writes every field of every row, the later passes overwrite theirs.
struct GrainMetrics {
  GrainMetrics() {}

  double parallel_benefit;
  double work_deviation;  ///< NaN without a baseline or a counterpart
  double mem_util;
  int inst_parallelism;             ///< conservative flavor
  int inst_parallelism_optimistic;  ///< optimistic flavor
  double scatter;
  bool on_critical_path;
};

struct MetricsResult {
  std::vector<GrainMetrics> per_grain;  ///< aligned with GrainTable order
  TimeNs critical_path_time = 0;  ///< T_inf: the span
  TimeNs total_work = 0;          ///< T_1: summed grain execution time
  double avg_parallelism = 0.0;   ///< T_1 / T_inf (Cilk-style)
  double region_load_balance = 1.0;
  std::map<LoopId, double> loop_load_balance;
  TimeNs interval_used = 0;  ///< the instantaneous-parallelism interval
  /// Timeline of optimistic/conservative parallelism per interval.
  std::vector<u32> parallelism_optimistic;
  std::vector<u32> parallelism_conservative;
};

/// Computes every §3.2 metric. `baseline` is the grain table of a 1-core
/// execution of the same program (for work deviation); pass nullptr to skip.
MetricsResult compute_metrics(const Trace& trace, const GrainGraph& graph,
                              const GrainTable& grains, const Topology& topo,
                              const MetricOptions& opts = {},
                              const GrainTable* baseline = nullptr);

/// Load balance of one loop: longest chunk / median per-thread chain length.
double loop_load_balance(const Trace& trace, const LoopRec& loop);

/// Region-wide load balance: longest grain / median per-core busy time.
/// `threads` splits the pass over the rows; the result is the same for
/// every thread count.
double region_load_balance(const GrainTable& grains, int num_cores,
                           int threads = 1);

/// Work deviation of row `row` of `grains` against a baseline table,
/// matched by path (NaN if the grain has no counterpart).
double work_deviation(const GrainTable& grains, size_t row,
                      const GrainTable& baseline);

}  // namespace gg
