#include "export/grain_csv.hpp"

#include <fstream>
#include <ostream>
#include <string_view>

#include "common/bufwriter.hpp"
#include "common/check.hpp"
#include "common/strings.hpp"

namespace gg {

namespace {

/// Appends one CSV cell with the same quoting rules as Table::to_csv():
/// quote when the cell contains a comma, quote, or newline; double embedded
/// quotes.
void csv_cell(BufWriter& buf, std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    buf << cell;
    return;
  }
  buf << '"';
  for (char c : cell) {
    if (c == '"') buf << '"';
    buf << c;
  }
  buf << '"';
}

}  // namespace

void write_grain_csv(std::ostream& os, const Trace& trace,
                     const GrainTable& grains, const MetricsResult& metrics) {
  GG_CHECK(metrics.per_grain.size() == grains.size());
  BufWriter buf(1 << 20);
  buf << "path,kind,source,core,start_ns,end_ns,exec_ns,compute_cycles,"
         "stall_cycles,cache_misses,bytes,creation_cost_ns,sync_cost_ns,"
         "fragments,children,inlined,parallel_benefit,work_deviation,"
         "mem_util,inst_parallelism,inst_parallelism_opt,scatter,"
         "on_critical_path\n";
  const auto& table = grains.grains();
  for (size_t i = 0; i < table.size(); ++i) {
    const Grain& g = table[i];
    const GrainMetrics& m = metrics.per_grain[i];
    csv_cell(buf, grains.path(i));
    buf << ',' << (g.kind == GrainKind::Task ? "task" : "chunk") << ',';
    csv_cell(buf, trace.strings.get(g.src));
    buf << ',' << g.core << ',' << g.first_start << ',' << g.last_end << ','
        << g.exec_time << ',' << g.counters.compute << ','
        << g.counters.stall << ',' << g.counters.cache_misses << ','
        << g.counters.bytes_accessed << ',' << g.creation_cost << ','
        << g.sync_cost << ',' << g.n_fragments << ',' << g.n_children << ','
        << (g.inlined ? "1" : "0") << ',';
    csv_cell(buf, strings::trim_double(m.parallel_benefit, 4));
    buf << ',';
    csv_cell(buf, strings::trim_double(m.work_deviation, 4));
    buf << ',';
    csv_cell(buf, strings::trim_double(m.mem_util, 4));
    buf << ',' << m.inst_parallelism << ',' << m.inst_parallelism_optimistic
        << ',';
    csv_cell(buf, strings::trim_double(m.scatter, 2));
    buf << ',' << (m.on_critical_path ? "1" : "0") << '\n';
  }
  buf.write_to(os);
}

bool write_grain_csv_file(const std::string& path, const Trace& trace,
                          const GrainTable& grains,
                          const MetricsResult& metrics) {
  std::ofstream os(path);
  if (!os) return false;
  write_grain_csv(os, trace, grains, metrics);
  return static_cast<bool>(os);
}

}  // namespace gg
