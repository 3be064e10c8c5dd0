// Structured load outcomes for trace ingestion.
//
// Corrupted inputs from crashed runs or lossy recorders fail in many ways;
// LoadResult keeps the machine-usable facts: what failed (an error code),
// where (line number for text traces, byte offset for binary ones), in
// which section/record, whether the trace was recovered by salvage, how
// degraded the recovered trace is, and for a spool what frame recovery
// kept.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "trace/salvage.hpp"
#include "trace/spool.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace gg {

enum class LoadStatus : u8 {
  Ok,        ///< loaded cleanly, nothing repaired
  Salvaged,  ///< damaged input, usable trace recovered (degraded)
  Failed,    ///< no usable trace
};

enum class LoadErrorCode : u8 {
  None = 0,
  CannotOpen,         ///< file could not be opened
  EmptyInput,         ///< no header at all
  BadMagic,           ///< not a ggtrace/GGTB stream
  UnsupportedVersion, ///< header version outside the known range
  MalformedRecord,    ///< record failed to parse or had impossible fields
  UnknownRecordKind,  ///< unrecognized record kind (text format)
  StringTableCorrupt, ///< string ids not dense / table unusable
  TruncatedStream,    ///< input ended mid-record or mid-section
  LimitExceeded,      ///< record count larger than the stream could hold
  InvalidStructure,   ///< parsed fine but failed structural validation
  Unrecoverable,      ///< a spool from which recovery kept nothing
};

const char* to_string(LoadStatus s);
const char* to_string(LoadErrorCode c);

/// One diagnostic anchored to a position in the input.
struct LoadDiagnostic {
  LoadErrorCode code = LoadErrorCode::None;
  u64 offset = 0;        ///< line number (text) or byte offset (binary)
  bool offset_is_line = true;
  std::string context;   ///< record kind or section, e.g. "frag", "chunks"
  std::string message;   ///< human-readable description

  /// "line 12 [frag]: malformed frag record" / "byte 4096 [chunks]: ...".
  std::string to_string() const;
};

/// How strictly a loader treats damaged input.
enum class LoadMode : u8 {
  Strict,   ///< first problem is fatal (CI / regression gating)
  Lenient,  ///< skip unknown record kinds (forward compat), else strict
  Salvage,  ///< recover the longest valid prefix; repair the rest
};

struct LoadOptions {
  LoadMode mode = LoadMode::Lenient;
  bool validate = true;  ///< run validate_trace after load (and after salvage)
  /// Worker threads for binary section decode and trace finalize sorting.
  /// 0 = auto (GG_THREADS env, else hardware concurrency, clamped to 8);
  /// 1 = serial. Outputs are identical for every value.
  int threads = 1;
};

/// Outcome of one load. `trace` is present when any records were recovered,
/// even on Failed (for postmortem inspection); only `usable()` results
/// should flow into analysis.
struct LoadResult {
  LoadStatus status = LoadStatus::Failed;
  std::optional<Trace> trace;
  std::vector<LoadDiagnostic> diagnostics;
  SalvageReport salvage;       ///< what salvage did (empty unless it ran)
  std::string source;          ///< path or "<stream>", for messages
  /// Set when the input was a spool: what frame recovery kept and lost.
  std::optional<spool::RecoverReport> recovery;

  bool ok() const { return status == LoadStatus::Ok; }
  /// A trace safe to analyze (clean or salvaged-and-revalidated).
  bool usable() const { return trace.has_value() && status != LoadStatus::Failed; }
  /// First fatal-severity diagnostic, or nullptr when none.
  const LoadDiagnostic* first_error() const;
  /// Multi-line report, the lines a tool prints about this load. A file:
  /// status, per-diagnostic lines, salvage summary; empty when it loaded
  /// cleanly. A spool: the recovery report, its crash provenance and
  /// supervisor diagnostic, the salvage summary. A failed load's report
  /// starts its error line with "error: ".
  std::string describe() const;
};

/// The tools' exit code for a load: 0 clean, 3 salvaged; a failed load
/// exits 4 when it could salvage (LoadMode::Salvage, or a spool), else 1.
inline int load_exit_code(const LoadResult& lr, const LoadOptions& opts) {
  if (lr.usable()) return lr.status == LoadStatus::Salvaged ? 3 : 0;
  return opts.mode == LoadMode::Salvage || lr.recovery ? 4 : 1;
}

/// The shared tail of every loader, run on a finalized trace: with
/// `salvage`, repairs it with salvage_trace (the load counts as Salvaged
/// when anything was repaired or diagnosed); with opts.validate, checks it
/// with validate_trace_structured and fails on any violation. Moves the
/// trace into `res` and sets its status.
void finish_load(Trace&& trace, bool salvage, const LoadOptions& opts,
                 LoadResult& res);

/// The spool hand-off, shared by the file loader (load_trace_file_ex),
/// callers that recover spool bytes themselves, and the serving daemon's
/// sessions. A spool is loaded whatever opts.mode says: a degraded recovery
/// (a lost footer, a torn tail, skipped frames) is repaired with
/// salvage_trace and loads as Salvaged; a clean one is used as recovered.
/// opts.validate applies as for files. The trace is already finalized and
/// is not finalized again. An unusable recovery fails with its first
/// diagnostic; `recovery` always holds the report.
LoadResult load_recovered(spool::RecoverResult rr,
                          const LoadOptions& opts = {});

}  // namespace gg
