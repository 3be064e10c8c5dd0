// Versioned line-oriented text serialization of traces (the equivalent of
// the MIR profiler's on-disk raw files). Human-greppable, diff-friendly,
// and round-trip exact.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "trace/load_result.hpp"
#include "trace/trace.hpp"

namespace gg {

/// Current text/binary trace format version (v2 added dependence records;
/// v3 adds worker-stats records and profiling metadata).
inline constexpr int kTraceVersion = 3;

/// Writes the full trace. Format: one "ggtrace <version>" header line, then
/// one record per line with a kind prefix (meta/str/task/frag/join/loop/
/// chunk/book).
void save_trace(const Trace& trace, std::ostream& os);

/// Parses a trace written by save_trace. Returns nullopt (and sets *error
/// when provided) on malformed input. The returned trace is finalized.
std::optional<Trace> load_trace(std::istream& is, std::string* error = nullptr);

/// File-path convenience wrappers (format chosen by extension: `.ggtrace`
/// text, `.ggbin` binary; anything else defaults to text).
bool save_trace_file(const Trace& trace, const std::string& path);
std::optional<Trace> load_trace_file(const std::string& path,
                                     std::string* error = nullptr);

/// Binary serialization: little-endian fixed-width records, versioned
/// ("GGTB3"; GGTB1/GGTB2 still load). Not smaller than text: a 1M-grain
/// synthetic trace is 205 MB as .ggbin against 158 MB as .ggtrace. Every
/// field round-trips exactly except meta.ghz, stored in micro-GHz.
void save_trace_binary(const Trace& trace, std::ostream& os);
std::optional<Trace> load_trace_binary(std::istream& is,
                                       std::string* error = nullptr);

// --- hardened ingestion ----------------------------------------------------
//
// The _ex loaders never abort, never over-allocate from a corrupt count, and
// classify every problem with a position (line / byte offset). Behavior per
// LoadMode:
//   Strict  — first problem is fatal; for regression gating and CI.
//   Lenient — unknown record kinds are skipped with a diagnostic (forward
//             compatibility); everything else is fatal. The default.
//   Salvage — recovers the longest valid prefix of a damaged stream, then
//             repairs it with salvage_trace(); result.salvage reports the
//             degradation. Fails only when nothing usable survives.
// With opts.validate (default), the loaded (or salvaged) trace is checked by
// validate_trace_structured and violations are surfaced as diagnostics with
// entity context; a non-valid trace yields status Failed.

LoadResult load_trace_ex(std::istream& is, const LoadOptions& opts = {});
LoadResult load_trace_binary_ex(std::istream& is, const LoadOptions& opts = {});
LoadResult load_trace_file_ex(const std::string& path,
                              const LoadOptions& opts = {});

}  // namespace gg
