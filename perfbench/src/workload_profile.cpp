// profile: the paper's §4.2 cost of profiling a run.
//
// Program: apps::fib_program with n = 35 and cutoff 18, 524,284 grains of a
// few microseconds each. Fine grains are where per-grain runtime cost
// decides the result. Op: one run on rts::ThreadedEngine with 2 workers
// and the spool sink, until the trace is returned. That is the crash-safe
// path: the engine rebuilds the trace from the spool at exit, so recorder,
// spool encode and recovery dominate. No graph or metrics code runs.
// The traced run also measures the serve layer, downstream of the profiler
// (serve_probe.cpp).
#include <filesystem>

#include "apps/fib.hpp"
#include "rts/threaded_engine.hpp"
#include "trace/spool.hpp"
#include "workload.hpp"

namespace ggbench {

namespace {

using namespace gg;

constexpr int kWorkers = 2;

struct RunOut {
  Trace trace;
  u64 value = 0;
};

/// One fib(35) run: unprofiled, profiled in memory, or profiled into a
/// spool at `spool_path`.
RunOut run_fib(bool profile, const std::string& spool_path) {
  rts::Options o;
  o.num_workers = kWorkers;
  o.profile = profile;
  o.spool.path = spool_path;
  RunOut out;
  rts::ThreadedEngine engine(o);
  apps::FibParams params;
  params.n = 35;
  params.cutoff = 18;
  const front::TaskFn root = apps::fib_program(engine, params, &out.value);
  out.trace = engine.run("fib", root);
  return out;
}

u64 sum_steals(const Trace& t, bool failures) {
  u64 n = 0;
  for (const WorkerStatsRec& w : t.worker_stats)
    n += failures ? w.steal_failures : w.steals;
  return n;
}

}  // namespace

Result run_profile(const Config& cfg, Tracer& tracer) {
  Result res;
  const std::string spool_path = cfg.work_dir + "/profile.ggspool";
  auto check = [&](const RunOut& r) {
    const std::string why = check_profile_trace(r.trace, r.value);
    if (!why.empty()) res.log.push_back("op failed: " + why);
    return why.empty();
  };

  // The warm-up op gets only the cheap checks: full validation is a check,
  // not set-up, and runs on every timed op.
  const double setup_s = time_setups(cfg, [&](int) {
    const RunOut warm = run_fib(true, spool_path);
    if (warm.value != kFibValue || warm.trace.grain_count() != kFibGrains)
      res.fail("warm-up op computed a wrong value or grain count");
    std::filesystem::remove(spool_path);
  });
  if (!reset_peak_rss())
    res.log.push_back("peak RSS mark not reset: peak_rss_mb includes set-up");

  std::vector<double> op_s;
  std::vector<Usage> usage;
  u64 spool_bytes = 0, steals = 0, steal_failures = 0;
  timed_loop(cfg.seconds, [&](int) {
    {
      const Usage u0 = usage_self();
      const int64_t t0 = now_ns();
      const RunOut r = run_fib(true, spool_path);
      op_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      usage.push_back(usage_self() - u0);
      res.ops.record(check(r));
      std::filesystem::remove(spool_path);
    }
    if (!tracer.enabled()) return;
    RunOut r;
    {
      Span op(tracer, kOpSpan, nullptr, /*starts_op=*/true);
      Span s(tracer, "rts.run_spooled", &op);
      r = run_fib(true, spool_path);
    }
    res.ops.record(check(r));
    steals = sum_steals(r.trace, false);
    steal_failures = sum_steals(r.trace, true);
    // Layer probes outside the op: recovery of this run's spool on its
    // own, and the same program unprofiled and profiled in memory.
    Span probe(tracer, "bench.probe", nullptr);
    std::error_code ec;
    spool_bytes = std::filesystem::file_size(spool_path, ec);
    {
      Span s(tracer, "trace.recover", &probe);
      const spool::RecoverResult rr = spool::recover_spool_file(spool_path);
      if (!rr.usable) res.fail("probe recovery of the op's spool failed");
    }
    std::filesystem::remove(spool_path);
    RunOut plain, in_memory;
    {
      Span s(tracer, "rts.run", &probe);
      plain = run_fib(false, "");
    }
    if (plain.value != kFibValue)
      res.fail("unprofiled run computed fib(35) = " +
               std::to_string(plain.value));
    {
      Span s(tracer, "rts.run_profiled", &probe);
      in_memory = run_fib(true, "");
    }
    res.ops.record(check(in_memory));
  });

  res.log.push_back(describe("profile: op_s", op_s));
  if (!tracer.enabled()) {
    res.set("setup_s", setup_s, "s");
    res.set("op_s", median(op_s), "s");
    res.set("peak_rss_mb", peak_rss_mib(), "MiB");
    res.set("success_rate", res.ops.success_rate(), "ratio");
    return res;
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  auto med_ns = [&](const char* name) {
    return median(durations_ns(spans, name));
  };
  const double grains = static_cast<double>(kFibGrains);
  res.set("rts.run_s", med_ns("rts.run") / 1e9, "s");
  res.set("trace.record_ns_per_grain",
          (med_ns("rts.run_profiled") - med_ns("rts.run")) / grains,
          "ns/grain");
  res.set("trace.spool_ns_per_grain",
          (med_ns("rts.run_spooled") - med_ns("rts.run_profiled")) / grains,
          "ns/grain");
  res.set("trace.recover_s", med_ns("trace.recover") / 1e9, "s");
  res.set("trace.grains", grains, "count");
  res.set("trace.spool_bytes", static_cast<double>(spool_bytes), "bytes");
  res.set("rts.steals", static_cast<double>(steals), "count");
  res.set("rts.steal_failures", static_cast<double>(steal_failures), "count");
  set_os_metrics(res, usage);
  set_bench_metrics(res, spans, op_s);
  probe_serve(cfg, tracer, res);
  return res;
}

}  // namespace ggbench
