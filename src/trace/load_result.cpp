#include "trace/load_result.hpp"

#include <sstream>

namespace gg {

const char* to_string(LoadStatus s) {
  switch (s) {
    case LoadStatus::Ok: return "ok";
    case LoadStatus::Salvaged: return "salvaged";
    case LoadStatus::Failed: return "failed";
  }
  return "?";
}

const char* to_string(LoadErrorCode c) {
  switch (c) {
    case LoadErrorCode::None: return "none";
    case LoadErrorCode::CannotOpen: return "cannot-open";
    case LoadErrorCode::EmptyInput: return "empty-input";
    case LoadErrorCode::BadMagic: return "bad-magic";
    case LoadErrorCode::UnsupportedVersion: return "unsupported-version";
    case LoadErrorCode::MalformedRecord: return "malformed-record";
    case LoadErrorCode::UnknownRecordKind: return "unknown-record-kind";
    case LoadErrorCode::StringTableCorrupt: return "string-table-corrupt";
    case LoadErrorCode::TruncatedStream: return "truncated-stream";
    case LoadErrorCode::LimitExceeded: return "limit-exceeded";
    case LoadErrorCode::InvalidStructure: return "invalid-structure";
    case LoadErrorCode::Unrecoverable: return "unrecoverable";
  }
  return "?";
}

std::string LoadDiagnostic::to_string() const {
  std::ostringstream os;
  os << (offset_is_line ? "line " : "byte ") << offset;
  if (!context.empty()) os << " [" << context << "]";
  os << ": " << message << " (" << gg::to_string(code) << ")";
  return os.str();
}

const LoadDiagnostic* LoadResult::first_error() const {
  for (const LoadDiagnostic& d : diagnostics) {
    if (d.code != LoadErrorCode::None) return &d;
  }
  return nullptr;
}

std::string LoadResult::describe() const {
  std::ostringstream os;
  const LoadDiagnostic* err = first_error();
  if (recovery) {
    if (!trace) {
      os << "error: spool recovery failed: "
         << (err ? err->message : recovery->summary()) << '\n';
      return os.str();
    }
    os << recovery->summary() << '\n';
    if (!recovery->crash_reason.empty())
      os << "crash provenance: " << recovery->crash_reason << '\n';
    if (!recovery->supervisor_dump.empty())
      os << "supervisor diagnostic:\n" << recovery->supervisor_dump;
    if (salvage.any()) os << salvage.summary() << '\n';
    if (status == LoadStatus::Failed && err) {
      // finish_load prefixes a salvaged trace's violations with
      // "unsalvageable: "; a clean recovery's get the same word.
      os << "error: recovered trace "
         << (recovery->degraded() ? "" : "unsalvageable: ") << err->message
         << '\n';
    }
    return os.str();
  }
  if (status == LoadStatus::Ok) return "";
  if (status == LoadStatus::Failed) os << "error: ";
  os << (source.empty() ? std::string("<stream>") : source) << ": "
     << to_string(status);
  if (trace.has_value() && status != LoadStatus::Failed) {
    os << ", " << trace->grain_count() << " grains";
  }
  os << '\n';
  for (const LoadDiagnostic& d : diagnostics) {
    os << "  " << d.to_string() << '\n';
  }
  if (salvage.any()) {
    os << "  " << salvage.summary() << '\n';
    for (size_t i = 1; i < salvage.actions.size(); ++i)
      os << "    " << salvage.actions[i] << '\n';
  }
  return os.str();
}

void finish_load(Trace&& trace, bool salvage, const LoadOptions& opts,
                 LoadResult& res) {
  if (salvage) res.salvage = salvage_trace(trace);
  res.status = salvage && (res.salvage.any() || !res.diagnostics.empty())
                   ? LoadStatus::Salvaged
                   : LoadStatus::Ok;
  if (opts.validate) {
    const ValidationReport v = validate_trace_structured(trace);
    size_t listed = 0;
    for (const Violation& viol : v.violations) {
      if (listed++ >= 16) break;
      res.diagnostics.push_back(LoadDiagnostic{
          LoadErrorCode::InvalidStructure, 0, true, viol.where(),
          (salvage ? "unsalvageable: " : "") + viol.message});
    }
    if (!v.ok()) res.status = LoadStatus::Failed;
  }
  res.trace = std::move(trace);  // a Failed load keeps it for inspection
}

LoadResult load_recovered(spool::RecoverResult rr, const LoadOptions& opts) {
  LoadResult res;
  if (rr.usable) {
    const bool degraded = rr.report.degraded();
    finish_load(std::move(rr.trace), degraded, opts, res);
    // A degraded recovery lost records even where salvage repaired nothing.
    if (degraded && res.usable()) res.status = LoadStatus::Salvaged;
  } else {
    res.diagnostics.push_back(LoadDiagnostic{
        LoadErrorCode::Unrecoverable, 0, false, "spool",
        rr.report.diagnostics.empty() ? rr.report.summary()
                                      : rr.report.diagnostics.front()});
  }
  res.recovery = std::move(rr.report);
  return res;
}

}  // namespace gg
