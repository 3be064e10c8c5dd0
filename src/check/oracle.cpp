#include "check/oracle.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "check/serial_ref.hpp"
#include "check/signature.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"
#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "metrics/metrics.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/sim_engine.hpp"
#include "topology/topology.hpp"
#include "trace/validate.hpp"

namespace gg::check {

namespace {

/// One engine run, fully analyzed: validated, signed, graphed, measured.
struct Analysis {
  Trace trace;
  std::string sig;
  GrainTable grains;
  MetricsResult metrics;
  bool valid = false;  ///< trace AND graph validation passed
};

/// Validates, signs, and (when valid) builds graph + table + metrics.
/// Validation failures land in `out` prefixed with `who`.
Analysis analyze(Trace trace, const Topology& topo, const std::string& who,
                 bool check_metrics, std::vector<std::string>& out) {
  Analysis a;
  a.trace = std::move(trace);
  bool ok = true;
  for (const std::string& v : validate_trace(a.trace)) {
    out.push_back(who + ": invalid trace: " + v);
    ok = false;
  }
  if (!ok) return a;
  a.sig = canonical_signature(a.trace);
  GrainGraph graph = GrainGraph::build(a.trace);
  for (const std::string& v : validate_graph(graph)) {
    out.push_back(who + ": invalid graph: " + v);
    ok = false;
  }
  if (!ok) return a;
  a.grains = GrainTable::build(a.trace);
  if (check_metrics) {
    a.metrics = compute_metrics(a.trace, graph, a.grains, topo);
  }
  a.valid = true;
  return a;
}

/// Envelope invariants every engine must satisfy on its own trace.
void check_self_invariants(const Analysis& a, const std::string& who,
                           std::vector<std::string>& out) {
  if (!a.valid) return;
  const TimeNs makespan = a.trace.makespan();
  if (a.metrics.critical_path_time > makespan) {
    out.push_back(who + ": critical path " +
                  std::to_string(a.metrics.critical_path_time) +
                  "ns exceeds makespan " + std::to_string(makespan) + "ns");
  }
  for (size_t i = 0; i < a.metrics.per_grain.size(); ++i) {
    const GrainMetrics& m = a.metrics.per_grain[i];
    auto grain = [&] { return who + ": grain " + a.grains.path(i); };
    if (m.inst_parallelism > m.inst_parallelism_optimistic) {
      out.push_back(grain() + ": conservative parallelism " +
                    std::to_string(m.inst_parallelism) + " > optimistic " +
                    std::to_string(m.inst_parallelism_optimistic));
    }
    if (!(m.scatter >= 0.0) || std::isinf(m.scatter)) {
      out.push_back(grain() + ": scatter " +
                    std::to_string(m.scatter) + " not finite non-negative");
    }
  }
}

void check_signature_match(const Analysis& ref, const Analysis& got,
                           const std::string& who,
                           std::vector<std::string>& out) {
  if (!ref.valid || !got.valid) return;
  if (got.sig != ref.sig) {
    out.push_back(who + ": signature differs from serial reference; first " +
                  "diff (ref | engine): " +
                  first_signature_diff(ref.sig, got.sig));
  }
}

/// Exact tier: every schedule-independent quantity agrees bit-for-bit.
void check_exact_match(const Analysis& ref, const Analysis& got,
                       const std::string& who,
                       std::vector<std::string>& out) {
  if (!ref.valid || !got.valid) return;
  check_signature_match(ref, got, who, out);
  if (got.trace.makespan() != ref.trace.makespan()) {
    out.push_back(who + ": makespan " + std::to_string(got.trace.makespan()) +
                  "ns != serial " + std::to_string(ref.trace.makespan()) +
                  "ns");
  }
  if (got.metrics.total_work != ref.metrics.total_work) {
    out.push_back(who + ": total work " +
                  std::to_string(got.metrics.total_work) + "ns != serial " +
                  std::to_string(ref.metrics.total_work) + "ns");
  }
  if (got.metrics.critical_path_time != ref.metrics.critical_path_time) {
    out.push_back(who + ": critical path " +
                  std::to_string(got.metrics.critical_path_time) +
                  "ns != serial " +
                  std::to_string(ref.metrics.critical_path_time) + "ns");
  }
  for (size_t i = 0; i < ref.grains.size(); ++i) {
    const Grain& g = ref.grains.grains()[i];
    const std::string& path = ref.grains.paths()[i];
    const Grain* o = got.grains.by_path(path);
    if (o == nullptr) {
      out.push_back(who + ": grain " + path + " missing");
      continue;
    }
    if (o->exec_time != g.exec_time) {
      out.push_back(who + ": grain " + path + ": exec_time " +
                    std::to_string(o->exec_time) + "ns != serial " +
                    std::to_string(g.exec_time) + "ns");
    }
    if (o->counters.compute != g.counters.compute) {
      out.push_back(who + ": grain " + path + ": compute counter " +
                    std::to_string(o->counters.compute) + " != serial " +
                    std::to_string(g.counters.compute));
    }
    if (o->n_fragments != g.n_fragments || o->n_children != g.n_children) {
      out.push_back(who + ": grain " + path + ": fragment/child counts (" +
                    std::to_string(o->n_fragments) + "," +
                    std::to_string(o->n_children) + ") != serial (" +
                    std::to_string(g.n_fragments) + "," +
                    std::to_string(g.n_children) + ")");
    }
  }
  if (got.grains.size() != ref.grains.size()) {
    out.push_back(who + ": grain count " + std::to_string(got.grains.size()) +
                  " != serial " + std::to_string(ref.grains.size()));
  }
}

struct RtsRun {
  Analysis analysis;
  std::vector<i32> trail;
  std::vector<WorkerStatsRec> stats;
  std::string desc;
};

RtsRun run_rts_schedule(const ProgramSpec& spec, const ScheduleOptions& sopts,
                        rts::SchedulerKind scheduler, const Topology& topo,
                        bool check_metrics, std::vector<std::string>& out) {
  ScheduleController ctrl(sopts);
  std::ostringstream who;
  who << "rts[workers=" << sopts.num_threads << " "
      << (scheduler == rts::SchedulerKind::CentralQueue ? "central" : "ws")
      << " " << ctrl.describe() << "]";

  rts::Options ropts;
  ropts.num_workers = sopts.num_threads;
  ropts.scheduler = scheduler;
  // The envelope tier asserts wall-clock invariants (critical path <=
  // makespan), which only a globally-truthful clock guarantees: per-core
  // TSC offsets under virtualization can make causally-ordered fragments
  // on different workers overlap by a few thousand ns, and a chain with
  // many cross-worker hops accumulates the skew past the makespan.
  ropts.strict_clock = true;
  ctrl.install();
  Trace trace;
  {
    rts::ThreadedEngine eng(ropts);
    trace = run_spec(spec, eng);
  }
  ctrl.uninstall();

  RtsRun run;
  run.desc = who.str();
  run.trail = ctrl.trail();
  run.analysis = analyze(std::move(trace), topo, run.desc, check_metrics, out);
  run.stats = run.analysis.trace.worker_stats;
  return run;
}

/// Worker counters that must replay exactly. idle_ns is wall-clock spin
/// time — schedule-identical runs still differ in how long the losing
/// thread waited for the token — so it is the one field excluded.
std::string stats_key(const std::vector<WorkerStatsRec>& stats) {
  std::ostringstream os;
  for (const WorkerStatsRec& w : stats) {
    os << "w" << w.worker << " spawned=" << w.tasks_spawned
       << " executed=" << w.tasks_executed << " inlined=" << w.tasks_inlined
       << " steals=" << w.steals << " steal_failures=" << w.steal_failures
       << " cas_failures=" << w.cas_failures << " pushes=" << w.deque_pushes
       << " pops=" << w.deque_pops << " resizes=" << w.deque_resizes
       << " helps=" << w.taskwait_helps << " bytes=" << w.trace_bytes << "\n";
  }
  return os.str();
}

}  // namespace

std::string OracleResult::summary(size_t limit) const {
  std::ostringstream os;
  os << violations.size() << " violation(s) across " << programs_checked
     << " program(s), " << schedules_explored << " schedule(s)";
  for (size_t i = 0; i < violations.size() && i < limit; ++i) {
    os << "\n  " << violations[i];
  }
  if (violations.size() > limit) {
    os << "\n  ... and " << (violations.size() - limit) << " more";
  }
  return os.str();
}

OracleResult check_program(const ProgramSpec& spec,
                           const OracleOptions& opts) {
  OracleResult res;
  res.programs_checked = 1;
  std::vector<std::string> out;
  const Topology topo = Topology::opteron48();
  const std::string tag = spec.name();
  const auto who = [&tag](const std::string& ctx) { return tag + " " + ctx; };

  // Serial references, one per team size (built on demand, reused).
  std::map<int, Analysis> serial;
  const auto serial_for = [&](int team) -> const Analysis& {
    auto it = serial.find(team);
    if (it == serial.end()) {
      SerialRefOptions sropts;
      sropts.topology = topo;
      sropts.team_size = team;
      SerialRefEngine eng(sropts);
      it = serial
               .emplace(team, analyze(run_spec(spec, eng), topo,
                                      who("serial(team=" +
                                          std::to_string(team) + ")"),
                                      opts.check_metrics, out))
               .first;
    }
    return it->second;
  };

  // ---- Exact tier: serial(1) vs sim(zero-overhead, 1 core, no memory).
  {
    sim::SimOptions so;
    so.topology = topo;
    so.num_cores = 1;
    so.policy = sim::SimPolicy::zero_overhead();
    so.memory_model = false;
    sim::SimEngine eng(so);
    Analysis a = analyze(run_spec(spec, eng), topo,
                         who("sim(zero,cores=1,mem=off)"), opts.check_metrics,
                         out);
    if (opts.check_metrics) {
      check_exact_match(serial_for(1), a, who("sim(zero,cores=1,mem=off)"),
                        out);
    } else {
      check_signature_match(serial_for(1), a,
                            who("sim(zero,cores=1,mem=off)"), out);
    }
  }

  // ---- Structural tier: serial(N) vs sim(zero-overhead, N cores).
  // ---- Envelope tier: realistic policies must keep every invariant and
  // the signature; without a memory model their total work still equals the
  // serial reference exactly (overheads land between fragments, never
  // inside), and with one it can only grow.
  for (int cores : opts.sim_cores) {
    const Analysis& ref = serial_for(cores);
    struct PolicyCase {
      sim::SimPolicy policy;
      bool memory;
    };
    const PolicyCase cases[] = {
        {sim::SimPolicy::zero_overhead(), false},
        {sim::SimPolicy::mir(), false},
        {sim::SimPolicy::gcc(), false},
        {sim::SimPolicy::icc(), false},
        {sim::SimPolicy::mir_central(), false},
        {sim::SimPolicy::mir(), true},
    };
    for (const PolicyCase& pc : cases) {
      sim::SimOptions so;
      so.topology = topo;
      so.num_cores = cores;
      so.policy = pc.policy;
      so.memory_model = pc.memory;
      so.seed = spec.seed + static_cast<u64>(cores);
      sim::SimEngine eng(so);
      const std::string w =
          who("sim(" + pc.policy.name + ",cores=" + std::to_string(cores) +
              ",mem=" + (pc.memory ? "on" : "off") + ")");
      Analysis a =
          analyze(run_spec(spec, eng), topo, w, opts.check_metrics, out);
      check_signature_match(ref, a, w, out);
      if (opts.check_metrics && a.valid && ref.valid) {
        check_self_invariants(a, w, out);
        if (!pc.memory &&
            a.metrics.total_work != ref.metrics.total_work) {
          out.push_back(w + ": total work " +
                        std::to_string(a.metrics.total_work) +
                        "ns != serial " +
                        std::to_string(ref.metrics.total_work) + "ns");
        }
        if (pc.memory &&
            a.metrics.total_work < ref.metrics.total_work) {
          out.push_back(w + ": total work " +
                        std::to_string(a.metrics.total_work) +
                        "ns shrank below serial " +
                        std::to_string(ref.metrics.total_work) +
                        "ns under the memory model");
        }
      }
    }
  }

  // ---- rts schedules under the controller (+ replay of schedule 0).
  constexpr Strategy kStrategies[] = {Strategy::RoundRobin,
                                      Strategy::RandomWalk,
                                      Strategy::SleepSet};
  for (int s = 0; s < opts.schedules; ++s) {
    ScheduleOptions sopts;
    sopts.strategy = kStrategies[s % 3];
    sopts.seed = mix64(spec.seed ^ (0x9e3779b97f4a7c15ull *
                                    static_cast<u64>(s + 1)));
    sopts.num_threads = 2 + (s % 2);
    sopts.max_preemptions = (s % 4 == 3) ? (s % 7) : -1;
    sopts.timeout_seconds = opts.timeout_seconds;
    // The central-queue scheduler takes every 7th schedule.
    const rts::SchedulerKind kind = (s % 7 == 6)
                                        ? rts::SchedulerKind::CentralQueue
                                        : rts::SchedulerKind::WorkStealing;

    RtsRun run = run_rts_schedule(spec, sopts, kind, topo, opts.check_metrics,
                                  out);
    ++res.schedules_explored;
    const Analysis& ref = serial_for(sopts.num_threads);
    check_signature_match(ref, run.analysis, who(run.desc), out);
    if (opts.check_metrics) {
      check_self_invariants(run.analysis, who(run.desc), out);
    }

    if (s < 5) {
      // Replay tier: the same {strategy, seed, bound} must reproduce the
      // decision trail, the structure, and the worker counters.
      std::vector<std::string> replay_out;
      RtsRun again = run_rts_schedule(spec, sopts, kind, topo,
                                      opts.check_metrics, replay_out);
      out.insert(out.end(), replay_out.begin(), replay_out.end());
      if (again.trail != run.trail) {
        out.push_back(who(run.desc) + ": replay produced a different " +
                      "decision trail (" + std::to_string(run.trail.size()) +
                      " vs " + std::to_string(again.trail.size()) +
                      " decisions)");
      }
      if (run.analysis.valid && again.analysis.valid) {
        if (again.analysis.sig != run.analysis.sig) {
          out.push_back(who(run.desc) + ": replay changed the structural " +
                        "signature: " +
                        first_signature_diff(run.analysis.sig,
                                             again.analysis.sig));
        }
        if (stats_key(again.stats) != stats_key(run.stats)) {
          out.push_back(who(run.desc) +
                        ": replay changed worker counters:\nfirst:\n" +
                        stats_key(run.stats) + "replay:\n" +
                        stats_key(again.stats));
        }
      }
    }
  }

  res.violations = std::move(out);
  return res;
}

OracleResult check_many(u64 first_seed, int num_programs,
                        const OracleOptions& opts) {
  OracleResult all;
  for (int i = 0; i < num_programs; ++i) {
    const ProgramSpec spec = generate_program(first_seed + static_cast<u64>(i),
                                              opts.gen);
    if (opts.log) {
      std::fprintf(stderr, "[oracle] %s (%d/%d): %zu tasks\n",
                   spec.name().c_str(), i + 1, num_programs,
                   spec.spawned_tasks());
    }
    OracleResult r = check_program(spec, opts);
    all.programs_checked += r.programs_checked;
    all.schedules_explored += r.schedules_explored;
    all.violations.insert(all.violations.end(), r.violations.begin(),
                          r.violations.end());
  }
  return all;
}

}  // namespace gg::check
