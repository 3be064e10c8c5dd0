// Before/after comparison of two analyses of the same program — the
// paper's optimization work flow is exactly this loop (profile, fix,
// re-profile, compare): Fig. 1 compares makespans, Fig. 6c/d inflation
// tables, Fig. 7 per-definition benefit tables.
//
// Task grains are matched by their schedule-independent path ids, so the
// comparison survives cutoff changes that remove grains ("not all grains
// are created in the optimized program", Fig. 7).
#pragma once

#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "trace/trace.hpp"

namespace gg {

struct SourceDelta {
  std::string source;
  size_t grains_before = 0;
  size_t grains_after = 0;  ///< 0 = definition eliminated by the fix
  double work_share_before = 0.0;
  double work_share_after = 0.0;
  double low_benefit_before = 0.0;  ///< percent
  double low_benefit_after = 0.0;
  double inflated_before = 0.0;
  double inflated_after = 0.0;
  double poor_mem_before = 0.0;
  double poor_mem_after = 0.0;
};

struct Comparison {
  TimeNs makespan_before = 0;
  TimeNs makespan_after = 0;
  double speedup = 0.0;  ///< makespan_before / makespan_after
  size_t grains_before = 0;
  size_t grains_after = 0;
  /// Per-problem affected percent before -> after.
  std::array<std::pair<double, double>, kProblemCount> problems{};
  /// Per-source-definition deltas, ordered by work share before.
  std::vector<SourceDelta> sources;
  /// Task grains present in both runs whose execution time changed by more
  /// than 20% (matched by path id) — candidates the fix actually touched.
  size_t grains_faster = 0;
  size_t grains_slower = 0;
};

/// Compares two analyses of the same program (before/after an optimization).
/// Grain matching splits `after`'s rows into one block per thread its grain
/// table was built with (GrainTable::threads()); the result is the same for
/// every count.
Comparison compare_runs(const Trace& before_trace, const Analysis& before,
                        const Trace& after_trace, const Analysis& after);

/// Renders the comparison as an aligned text report.
std::string render_comparison(const Comparison& c);

}  // namespace gg
