// Output checks. Every reference is computed in the same run from the code
// under test, never a committed digest, so a change that legitimately
// alters output bytes re-baselines itself. Each check returns "" on success
// or a one-line reason, and every failed check counts against success_rate.
#pragma once

#include <cstdint>
#include <string>

namespace gg {
struct Trace;
}

namespace ggbench {

/// Ops attempted and failed; success_rate = passed / attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double success_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// "" when `got` equals `want` byte for byte, else where they first differ.
std::string compare_bytes(const std::string& what, const std::string& got,
                          const std::string& want);

/// analyze: the report names the expected grain count and both outputs
/// equal the run's reference bytes.
std::string check_analyze_output(const std::string& report,
                                 const std::string& json,
                                 const std::string& ref_report,
                                 const std::string& ref_json,
                                 uint64_t expected_grains);

inline constexpr uint64_t kFibValue = 9227465;  ///< fib(35)
inline constexpr uint64_t kFibGrains = 524284;  ///< fib(35), cutoff 18

/// profile: the program computed fib(35), the trace holds every grain, and
/// it validates with no recovery or salvage provenance.
std::string check_profile_trace(const gg::Trace& trace, uint64_t fib_value);

/// serve: one REPORT answer against batch recovery of the same bytes. ERR
/// and SHED answers fail, as does any differing byte.
std::string check_report_answer(const std::string& answer,
                                const std::string& reference);

/// Fields of a ggserved STATUS line the checks read.
struct StatusLine {
  bool parsed = false;
  std::string level;
  uint64_t resident_bytes = 0;
  uint64_t shed = 0;
  uint64_t ingest_streams = 0;
};

StatusLine parse_status(const std::string& line);

/// serve: the daemon stayed at admission level `normal`, shed nothing and
/// holds `expected_streams` ingest streams.
std::string check_status(const StatusLine& status, uint64_t expected_streams);

}  // namespace ggbench
