// Machine-readable JSON summary of an analysis: run metadata, headline
// metrics, per-problem counts, and the per-source table. Complements the
// GraphML/CSV exports for dashboards and regression tracking.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "trace/trace.hpp"

namespace gg {

/// When `spans` is non-null a "timings" object is appended, rendered from
/// the tool run's phase spans (render_timings_json): trace load, the
/// analysis stages, the metric passes, and each export that ran before this
/// one. The default (null) emits byte-identical output to prior versions.
void write_json_summary(std::ostream& os, const Trace& trace,
                        const Analysis& analysis,
                        const std::vector<obs::SpanRec>* spans = nullptr);

bool write_json_summary_file(const std::string& path, const Trace& trace,
                             const Analysis& analysis,
                             const std::vector<obs::SpanRec>* spans = nullptr);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view s);

}  // namespace gg
