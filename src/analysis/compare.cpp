#include "analysis/compare.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/par_for.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gg {

Comparison compare_runs(const Trace& before_trace, const Analysis& before,
                        const Trace& after_trace, const Analysis& after) {
  Comparison c;
  c.makespan_before = before_trace.makespan();
  c.makespan_after = after_trace.makespan();
  c.speedup = c.makespan_after == 0
                  ? 0.0
                  : static_cast<double>(c.makespan_before) /
                        static_cast<double>(c.makespan_after);
  c.grains_before = before.grains.size();
  c.grains_after = after.grains.size();
  for (size_t p = 0; p < kProblemCount; ++p) {
    c.problems[p] = {before.problems[p].flagged_percent,
                     after.problems[p].flagged_percent};
  }

  // Per-source deltas: union of definitions from both runs.
  std::map<std::string, SourceDelta> by_src;
  for (const SourceProfileRow& r : before.sources) {
    SourceDelta& d = by_src[r.source];
    d.source = r.source;
    d.grains_before = r.grain_count;
    d.work_share_before = r.work_share;
    d.low_benefit_before = r.low_benefit_percent;
    d.inflated_before = r.inflated_percent;
    d.poor_mem_before = r.poor_mem_util_percent;
  }
  for (const SourceProfileRow& r : after.sources) {
    SourceDelta& d = by_src[r.source];
    d.source = r.source;
    d.grains_after = r.grain_count;
    d.work_share_after = r.work_share;
    d.low_benefit_after = r.low_benefit_percent;
    d.inflated_after = r.inflated_percent;
    d.poor_mem_after = r.poor_mem_util_percent;
  }
  for (auto& [src, d] : by_src) c.sources.push_back(d);
  std::sort(c.sources.begin(), c.sources.end(),
            [](const SourceDelta& a, const SourceDelta& b) {
              return a.work_share_before > b.work_share_before;
            });

  // Matched-grain execution-time shifts (tasks only; chunk ids depend on
  // the team size), counted per block of rows, at the thread count the
  // tables were built with, and summed.
  const size_t n = after.grains.size();
  const int threads = after.grains.threads();
  std::vector<std::pair<size_t, size_t>> shifts(par_block_count(n, threads));
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    auto& [faster, slower] = shifts[b];
    for (size_t i = lo; i < hi; ++i) {
      const Grain& g = after.grains.grains()[i];
      if (g.kind != GrainKind::Task) continue;
      const Grain* ref = before.grains.by_path(after.grains.paths()[i]);
      if (ref == nullptr || ref->exec_time == 0) continue;
      const double ratio = static_cast<double>(g.exec_time) /
                           static_cast<double>(ref->exec_time);
      if (ratio < 0.8) ++faster;
      if (ratio > 1.2) ++slower;
    }
  });
  for (const auto& [faster, slower] : shifts) {
    c.grains_faster += faster;
    c.grains_slower += slower;
  }
  return c;
}

std::string render_comparison(const Comparison& c) {
  std::ostringstream os;
  os << "=== before -> after comparison ===\n";
  os << "makespan " << strings::human_time(c.makespan_before) << " -> "
     << strings::human_time(c.makespan_after) << "  (speedup "
     << strings::trim_double(c.speedup, 2) << "x)\n";
  os << "grains " << c.grains_before << " -> " << c.grains_after << "\n";
  os << "matched task grains >20% faster: " << c.grains_faster
     << ", slower: " << c.grains_slower << "\n";
  Table problems("problems (affected grains %, before -> after)");
  problems.set_header({"problem", "before", "after"});
  for (size_t p = 0; p < kProblemCount; ++p) {
    problems.add_row({to_string(static_cast<Problem>(p)),
                      strings::trim_double(c.problems[p].first, 1),
                      strings::trim_double(c.problems[p].second, 1)});
  }
  os << problems.to_text();
  Table sources("definitions (sorted by work share before)");
  sources.set_header({"definition", "grains b->a", "work% b->a",
                      "low benefit% b->a", "inflated% b->a"});
  for (const SourceDelta& d : c.sources) {
    sources.add_row(
        {d.source,
         std::to_string(d.grains_before) + " -> " +
             std::to_string(d.grains_after),
         strings::trim_double(100.0 * d.work_share_before, 1) + " -> " +
             strings::trim_double(100.0 * d.work_share_after, 1),
         strings::trim_double(d.low_benefit_before, 1) + " -> " +
             strings::trim_double(d.low_benefit_after, 1),
         strings::trim_double(d.inflated_before, 1) + " -> " +
             strings::trim_double(d.inflated_after, 1)});
  }
  os << sources.to_text();
  return os.str();
}

}  // namespace gg
