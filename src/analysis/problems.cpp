#include "analysis/problems.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/par_for.hpp"

namespace gg {

const char* to_string(Problem p) {
  switch (p) {
    case Problem::LowParallelBenefit: return "low parallel benefit";
    case Problem::WorkInflation: return "work inflation";
    case Problem::PoorMemUtil: return "poor memory hierarchy utilization";
    case Problem::LowParallelism: return "low instantaneous parallelism";
    case Problem::HighScatter: return "high scatter";
    case Problem::kCount: break;
  }
  return "?";
}

ProblemThresholds ProblemThresholds::defaults(int cores_used,
                                              const Topology& topo) {
  ProblemThresholds t;
  t.min_parallelism = cores_used;
  // "Scatter farther than the number of cores in a CPU socket": in NUMA
  // distance terms, anything beyond the same-socket distance.
  int same_socket = 10;
  if (topo.num_numa_nodes() > 1) {
    // Distance between the two dies of socket 0, or the local distance on
    // single-die sockets.
    const int node0 = topo.numa_of_core(0);
    const int last_core_socket0 = topo.cores_per_socket() - 1;
    same_socket = topo.numa_distance(node0, topo.numa_of_core(last_core_socket0));
  }
  t.scatter_max = same_socket;
  return t;
}

namespace {

/// Whether grain metrics `m` show `problem`, and how badly: severity maps
/// the metric linearly between the threshold (0) and an extreme value (1).
std::pair<bool, double> judge(Problem problem, const GrainMetrics& m,
                              const ProblemThresholds& th) {
  auto clamp01 = [](double x) { return std::min(1.0, std::max(0.0, x)); };
  bool flag = false;
  double sev = 0.0;
  switch (problem) {
    case Problem::LowParallelBenefit:
      flag = m.parallel_benefit < th.parallel_benefit_min;
      if (flag)
        sev = clamp01(1.0 - m.parallel_benefit / th.parallel_benefit_min);
      break;
    case Problem::WorkInflation:
      flag = !std::isnan(m.work_deviation) &&
             m.work_deviation > th.work_deviation_max;
      if (flag)
        sev = clamp01((m.work_deviation - th.work_deviation_max) /
                      (3.0 * th.work_deviation_max));
      break;
    case Problem::PoorMemUtil:
      flag = m.mem_util < th.mem_util_min;
      if (flag) sev = clamp01(1.0 - m.mem_util / th.mem_util_min);
      break;
    case Problem::LowParallelism: {
      const int ip = th.optimistic_parallelism ? m.inst_parallelism_optimistic
                                               : m.inst_parallelism;
      flag = ip < th.min_parallelism;
      if (flag && th.min_parallelism > 0)
        sev = clamp01(1.0 - static_cast<double>(ip) /
                                static_cast<double>(th.min_parallelism));
      break;
    }
    case Problem::HighScatter:
      flag = m.scatter > static_cast<double>(th.scatter_max);
      if (flag)
        sev = clamp01((m.scatter - th.scatter_max) /
                      std::max(1.0, 1.5 * th.scatter_max));
      break;
    case Problem::kCount:
      break;
  }
  return {flag, flag ? sev : 0.0};
}

/// Fills `views` (each with its problem set) over every row: blocks of
/// whole 64-row words run in parallel, each writing its own rows of every
/// view, and the flagged counts merge in block order.
void evaluate_views(std::span<ProblemView> views, const GrainTable& grains,
                    const MetricsResult& metrics, const ProblemThresholds& th,
                    int threads) {
  const size_t n = grains.size();
  GG_CHECK(metrics.per_grain.size() == n);
  for (ProblemView& view : views) {
    view.flagged.assign(n, false);  // n/8 bytes: vector<bool> has no unset size
    view.severity.resize(n);        // unset: every row is written below
  }
  std::vector<std::array<size_t, kProblemCount>> counts(
      par_block_count(n, threads));
  par_for_aligned_blocks(n, 64, threads, [&](size_t b, size_t lo, size_t hi) {
    std::array<size_t, kProblemCount> count{};
    for (size_t i = lo; i < hi; ++i) {
      const GrainMetrics& m = metrics.per_grain[i];
      for (size_t v = 0; v < views.size(); ++v) {
        const auto [flag, sev] = judge(views[v].problem, m, th);
        views[v].flagged[i] = flag;
        views[v].severity[i] = sev;
        count[v] += flag ? 1 : 0;
      }
    }
    counts[b] = count;
  });
  for (size_t v = 0; v < views.size(); ++v) {
    ProblemView& view = views[v];
    view.flagged_count = 0;
    for (const auto& count : counts) view.flagged_count += count[v];
    view.flagged_percent =
        n == 0 ? 0.0
               : 100.0 * static_cast<double>(view.flagged_count) /
                     static_cast<double>(n);
  }
}

}  // namespace

ProblemView evaluate_problem(Problem problem, const GrainTable& grains,
                             const MetricsResult& metrics,
                             const ProblemThresholds& th) {
  ProblemView view;
  view.problem = problem;
  evaluate_views({&view, 1}, grains, metrics, th, 1);
  return view;
}

std::array<ProblemView, kProblemCount> evaluate_all(
    const GrainTable& grains, const MetricsResult& metrics,
    const ProblemThresholds& thresholds, int threads) {
  std::array<ProblemView, kProblemCount> out;
  for (size_t p = 0; p < kProblemCount; ++p)
    out[p].problem = static_cast<Problem>(p);
  evaluate_views(out, grains, metrics, thresholds, threads);
  return out;
}

std::string severity_color(double severity) {
  // Linear red-to-yellow: severity 1 -> #ff0000, severity 0 -> #ffe000.
  const double s = std::min(1.0, std::max(0.0, severity));
  const int green = static_cast<int>(std::lround(224.0 * (1.0 - s)));
  char buf[8];
  std::snprintf(buf, sizeof buf, "#ff%02x00", green);
  return buf;
}

std::string dimmed_color() { return "#d9d9d9"; }

}  // namespace gg
