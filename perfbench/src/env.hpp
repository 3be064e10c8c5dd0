// Process facts the benchmark records around every op: clocks, resource
// usage, peak resident memory, and the provenance stamp of a result.
#pragma once

#include <cstdint>
#include <string>

namespace ggbench {

/// Steady-clock nanoseconds.
int64_t now_ns();

/// getrusage counters of one process scope, as deltas are taken of them.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double invol_ctxsw = 0;

  Usage operator-(const Usage& o) const;
};

/// getrusage(RUSAGE_SELF).
Usage usage_self();

/// High-water resident set of this process in MiB, from VmHWM; negative
/// when unreadable.
double peak_rss_mib();
/// Resets this process's high-water mark to its current RSS by writing 5
/// to clear_refs. False when the kernel refuses.
bool reset_peak_rss();

/// Name of the first environment variable that would change what the
/// program measures (GG_THREADS, GG_TELEMETRY), or "" when none is set.
std::string pinned_env_violation();

/// Host and build facts stamped onto every result.
struct Provenance {
  int nproc = 0;
  int auto_threads = 0;   ///< what a `threads = 0` call resolves to
  long l3_bytes = 0;      ///< 0 when the C library cannot tell
  std::string build_type;
  std::string compiler;
  std::string commit;
  uint64_t seed = 0;
  std::string workload;
  bool traced = false;

  std::string to_json() const;
};

Provenance collect_provenance(const std::string& build_type,
                              const std::string& commit, uint64_t seed,
                              const std::string& workload, bool traced);

/// JSON string escaping (quotes included).
std::string json_quote(const std::string& s);

}  // namespace ggbench
