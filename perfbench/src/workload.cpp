#include "workload.hpp"

#include <cstdio>

namespace ggbench {

void Result::fail(const std::string& why) {
  setup_ok = false;
  log.push_back("FAIL: " + why);
  std::fprintf(stderr, "ggbench: FAIL: %s\n", why.c_str());
}

std::string describe(const std::string& what, const std::vector<double>& v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " median %.4f over %zu:", median(v), v.size());
  std::string out = what + buf;
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, " %.4f", x);
    out += buf;
  }
  return out;
}

void set_os_metrics(Result& r, const std::vector<Usage>& per_op) {
  std::vector<double> user, sys, faults, ctxsw;
  for (const Usage& u : per_op) {
    user.push_back(u.user_s);
    sys.push_back(u.sys_s);
    faults.push_back(u.minor_faults);
    ctxsw.push_back(u.invol_ctxsw);
  }
  r.set("os.user_s", median(user), "s");
  r.set("os.sys_s", median(sys), "s");
  r.set("os.minor_faults", median(faults), "count");
  r.set("os.invol_ctxsw", median(ctxsw), "count");
}

void set_bench_metrics(Result& r, const std::vector<SpanRecord>& spans,
                       const std::vector<double>& untraced_op_s) {
  const std::vector<int64_t> self = self_times_ns(spans);
  std::vector<double> traced_op_s;
  for (const double ns : durations_ns(spans, kOpSpan))
    traced_op_s.push_back(ns / 1e9);
  std::vector<double> unattributed_s;
  for (const double ns : per_op_self_ns(spans, self, kOpSpan, kOpSpan))
    unattributed_s.push_back(ns / 1e9);
  r.set("bench.unattributed_s", median(unattributed_s), "s");
  const double base = median(untraced_op_s);
  r.set("bench.trace_overhead_pct",
        base > 0 ? 100.0 * (median(traced_op_s) - base) / base : 0.0, "%");
}

}  // namespace ggbench
