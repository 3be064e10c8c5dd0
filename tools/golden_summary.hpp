// The golden corpus expectation (tests/golden/*.expect), shared by the
// generator (make_golden) and the test that diffs against it
// (golden_trace_test), so the two cannot drift apart.
//
// The summary is the integer metrics, the canonical structural signature,
// and one FNV-1a 64 digest per export of the analysis: DOT, GraphML (plain,
// with a problem view, reduced, summarized), the grain CSV and the JSON
// summary without timings. Doubles are deliberately excluded from the
// plain lines; in the exports they are pinned through their rendered bytes.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/report.hpp"
#include "check/signature.hpp"
#include "export/dot.hpp"
#include "export/grain_csv.hpp"
#include "export/graphml.hpp"
#include "export/json_summary.hpp"
#include "graph/reductions.hpp"
#include "graph/summarize.hpp"
#include "trace/spool.hpp"

namespace gg::golden {

/// Node budget of the summarized GraphML digest: below every corpus graph's
/// node count, so the subtree summarization really runs.
inline constexpr size_t kSummarizeBudget = 16;

/// One "<name>=<fnv1a64 hex>" line over an export's bytes.
inline std::string digest_line(const char* name, const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64,
                static_cast<std::uint64_t>(
                    spool::fnv1a(bytes.data(), bytes.size())));
  return std::string(name) + "=" + hex + "\n";
}

inline std::string summary(const Trace& t) {
  const Analysis a = analyze(t, Topology::opteron48());
  std::ostringstream os;
  os << "makespan=" << t.makespan() << "\n"
     << "total_work=" << a.metrics.total_work << "\n"
     << "critical_path=" << a.metrics.critical_path_time << "\n"
     << "grains=" << a.grains.size() << "\n"
     << check::canonical_signature(t);

  auto render = [](auto&& write) {
    std::ostringstream out;
    write(out);
    return out.str();
  };
  os << digest_line("dot", render([&](std::ostream& o) {
    write_dot(o, a.graph, t);
  }));
  os << digest_line("graphml", render([&](std::ostream& o) {
    write_graphml(o, a.graph, t, &a.grains, &a.metrics, GraphMlOptions{});
  }));
  GraphMlOptions view;
  view.view = Problem::LowParallelBenefit;
  os << digest_line("graphml_view", render([&](std::ostream& o) {
    write_graphml(o, a.graph, t, &a.grains, &a.metrics, view);
  }));
  os << digest_line("graphml_reduced", render([&](std::ostream& o) {
    write_graphml(o, reduce_graph(a.graph, ReductionOptions{}), t, nullptr,
                  nullptr, GraphMlOptions{});
  }));
  os << digest_line("graphml_summarized", render([&](std::ostream& o) {
    write_graphml(o, summarize_graph(a.graph, kSummarizeBudget).graph, t,
                  nullptr, nullptr, GraphMlOptions{});
  }));
  os << digest_line("csv", render([&](std::ostream& o) {
    write_grain_csv(o, t, a.grains, a.metrics);
  }));
  os << digest_line("json", render([&](std::ostream& o) {
    write_json_summary(o, t, a);
  }));
  return os.str();
}

}  // namespace gg::golden
