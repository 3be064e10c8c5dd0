#include "env.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/par_for.hpp"

namespace ggbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::operator-(const Usage& o) const {
  return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults,
          invol_ctxsw - o.invol_ctxsw};
}

Usage usage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_minflt), static_cast<double>(ru.ru_nivcsw)};
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string pinned_env_violation() {
  for (const char* name : {"GG_THREADS", "GG_TELEMETRY"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return {};
}

Provenance collect_provenance(const std::string& build_type,
                              const std::string& commit, uint64_t seed,
                              const std::string& workload, bool traced) {
  Provenance p;
  p.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  p.auto_threads = gg::resolve_threads(0);
  p.l3_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (p.l3_bytes < 0) p.l3_bytes = 0;
  p.build_type = build_type;
#if defined(__clang__)
  p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  p.compiler = "gcc " __VERSION__;
#endif
  p.commit = commit;
  p.seed = seed;
  p.workload = workload;
  p.traced = traced;
  return p;
}

std::string Provenance::to_json() const {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"auto_threads\": " << auto_threads
     << ", \"l3_bytes\": " << l3_bytes
     << ", \"build_type\": " << json_quote(build_type)
     << ", \"compiler\": " << json_quote(compiler)
     << ", \"commit\": " << json_quote(commit) << ", \"seed\": " << seed
     << ", \"workload\": " << json_quote(workload)
     << ", \"traced\": " << (traced ? "true" : "false") << "}";
  return os.str();
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace ggbench
