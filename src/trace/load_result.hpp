// Structured load outcomes for trace ingestion.
//
// The legacy loaders answer "did it load?" with optional<Trace> and a single
// error string; corrupted inputs from crashed runs or lossy recorders all
// collapse into the same opaque failure. LoadResult keeps the machine-usable
// facts: what failed (an error code), where (line number for text traces,
// byte offset for binary ones), in which section/record, whether the trace
// was recovered by salvage, and how degraded the recovered trace is.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "trace/salvage.hpp"
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
  SalvageReport salvage;       ///< what salvage did (empty unless Salvage mode)
  std::string source;          ///< path or "<stream>", for messages

  bool ok() const { return status == LoadStatus::Ok; }
  /// A trace safe to analyze (clean or salvaged-and-revalidated).
  bool usable() const { return trace.has_value() && status != LoadStatus::Failed; }
  /// First fatal-severity diagnostic, or nullptr when none.
  const LoadDiagnostic* first_error() const;
  /// Multi-line report: status, per-diagnostic lines, salvage summary.
  std::string describe() const;
};

}  // namespace gg
