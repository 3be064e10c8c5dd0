#include "gates.hpp"

#include <cstdlib>

#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace ggbench {

std::string compare_bytes(const std::string& what, const std::string& got,
                          const std::string& want) {
  if (got == want) return {};
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return what + " differs from the reference at byte " + std::to_string(at) +
         " (" + std::to_string(got.size()) + " vs " +
         std::to_string(want.size()) + " bytes)";
}

std::string check_analyze_output(const std::string& report,
                                 const std::string& json,
                                 const std::string& ref_report,
                                 const std::string& ref_json,
                                 uint64_t expected_grains) {
  if (report.find("grains " + std::to_string(expected_grains) + " ") ==
      std::string::npos) {
    return "report does not name " + std::to_string(expected_grains) +
           " grains";
  }
  if (std::string r = compare_bytes("report", report, ref_report); !r.empty())
    return r;
  return compare_bytes("JSON summary", json, ref_json);
}

std::string check_profile_trace(const gg::Trace& trace, uint64_t fib_value) {
  if (fib_value != kFibValue) {
    return "fib(35) computed " + std::to_string(fib_value);
  }
  if (trace.grain_count() != kFibGrains) {
    return "trace holds " + std::to_string(trace.grain_count()) + " grains";
  }
  if (trace.meta.recovered() || !trace.meta.crash_note().empty()) {
    return "trace carries recovery provenance: " + trace.meta.recovery_note();
  }
  for (const std::string& note : trace.meta.notes) {
    if (note.rfind("salvage", 0) == 0) return "trace was salvaged: " + note;
  }
  const std::vector<std::string> errors = gg::validate_trace(trace);
  if (!errors.empty()) return "trace does not validate: " + errors.front();
  return {};
}

std::string check_report_answer(const std::string& answer,
                                const std::string& reference) {
  if (answer.rfind("ERR", 0) == 0 || answer.rfind("SHED", 0) == 0) {
    return "daemon answered " + answer.substr(0, answer.find('\n'));
  }
  if (reference.empty()) return "no batch reference";
  return compare_bytes("REPORT", answer, reference);
}

namespace {

/// Value of `key=` in a space-separated line, "" when absent.
std::string field(const std::string& line, const std::string& key) {
  size_t at = 0;
  while ((at = line.find(key + "=", at)) != std::string::npos) {
    if (at == 0 || line[at - 1] == ' ') {
      const size_t from = at + key.size() + 1;
      const size_t end = line.find_first_of(" \n", from);
      return line.substr(from, end == std::string::npos ? end : end - from);
    }
    at += key.size();
  }
  return {};
}

}  // namespace

StatusLine parse_status(const std::string& line) {
  StatusLine s;
  if (line.rfind("ggserved ", 0) != 0) return s;
  s.level = field(line, "level");
  const std::string resident = field(line, "resident");
  const std::string shed = field(line, "shed");
  const std::string streams = field(line, "ingest_streams");
  if (s.level.empty() || resident.empty() || shed.empty() || streams.empty())
    return s;
  s.resident_bytes = std::strtoull(resident.c_str(), nullptr, 10);
  s.shed = std::strtoull(shed.c_str(), nullptr, 10);
  s.ingest_streams = std::strtoull(streams.c_str(), nullptr, 10);
  s.parsed = true;
  return s;
}

std::string check_status(const StatusLine& status, uint64_t expected_streams) {
  if (!status.parsed) return "unreadable STATUS line";
  if (status.level != "normal") return "admission level " + status.level;
  if (status.shed != 0) return std::to_string(status.shed) + " queries shed";
  if (status.ingest_streams != expected_streams) {
    return std::to_string(status.ingest_streams) + " ingest streams, expected " +
           std::to_string(expected_streams);
  }
  return {};
}

}  // namespace ggbench
