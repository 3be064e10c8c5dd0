#include "analysis/source_profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/radix_sort.hpp"
#include "common/stats.hpp"

namespace gg {

std::vector<SourceProfileRow> source_profile(const Trace& trace,
                                             const GrainTable& grains,
                                             const MetricsResult& metrics,
                                             const ProblemThresholds& th,
                                             SourceSort sort, int threads) {
  GG_CHECK(metrics.per_grain.size() == grains.size());
  const auto& table = grains.grains();
  const size_t n = table.size();

  // The stable radix sort of source ids makes each source's rows one run,
  // in ascending id order, and a block summarizes the sources whose runs
  // start in it. Blocks meet their runs in id order, so the rows come out
  // in id order whatever the split.
  const auto by_src = sorted_keys(table, threads, [](const Grain& g) {
    return std::pair{u64{g.src}, u32{0}};
  });
  std::vector<std::vector<SourceProfileRow>> blocks(
      par_block_count(n, threads));
  par_for_key_runs(by_src.get(), n, threads, [&](size_t b, size_t begin,
                                                 size_t end) {
    std::vector<double> exec, benefit, deviation;
    exec.reserve(end - begin);
    size_t low_benefit = 0, inflated = 0, poor_mem = 0;
    SourceProfileRow r;
    for (size_t k = begin; k < end; ++k) {
      const Grain& g = table[by_src[k].index];
      const GrainMetrics& m = metrics.per_grain[by_src[k].index];
      exec.push_back(static_cast<double>(g.exec_time));
      r.total_exec += g.exec_time;
      if (std::isfinite(m.parallel_benefit))
        benefit.push_back(m.parallel_benefit);
      if (m.parallel_benefit < th.parallel_benefit_min) ++low_benefit;
      if (!std::isnan(m.work_deviation)) {
        deviation.push_back(m.work_deviation);
        if (m.work_deviation > th.work_deviation_max) ++inflated;
      }
      if (m.mem_util < th.mem_util_min) ++poor_mem;
    }
    r.source = std::string(
        trace.strings.get(static_cast<StrId>(by_src[begin].hi)));
    r.grain_count = end - begin;
    r.median_exec = static_cast<TimeNs>(stats::median_in_place(exec));
    r.median_parallel_benefit = stats::median_in_place(benefit);
    r.low_benefit_percent = 100.0 * static_cast<double>(low_benefit) /
                            static_cast<double>(r.grain_count);
    r.median_work_deviation = stats::median_in_place(deviation);
    r.inflated_percent = deviation.empty()
                             ? 0.0
                             : 100.0 * static_cast<double>(inflated) /
                                   static_cast<double>(deviation.size());
    r.poor_mem_util_percent = 100.0 * static_cast<double>(poor_mem) /
                              static_cast<double>(r.grain_count);
    blocks[b].push_back(std::move(r));
  });

  std::vector<SourceProfileRow> rows;
  TimeNs grand_total = 0;
  for (std::vector<SourceProfileRow>& block : blocks) {
    for (SourceProfileRow& r : block) {
      grand_total += r.total_exec;
      rows.push_back(std::move(r));
    }
  }
  for (SourceProfileRow& r : rows) {
    r.work_share = grand_total == 0
                       ? 0.0
                       : static_cast<double>(r.total_exec) /
                             static_cast<double>(grand_total);
  }
  auto key = [&](const SourceProfileRow& r) -> double {
    switch (sort) {
      case SourceSort::ByCount: return static_cast<double>(r.grain_count);
      case SourceSort::ByWorkShare: return r.work_share;
      case SourceSort::ByInflation: return r.median_work_deviation;
      case SourceSort::ByLowBenefit: return r.low_benefit_percent;
    }
    return 0.0;
  };
  std::sort(rows.begin(), rows.end(),
            [&](const SourceProfileRow& a, const SourceProfileRow& b) {
              return key(a) > key(b);
            });
  return rows;
}

}  // namespace gg
