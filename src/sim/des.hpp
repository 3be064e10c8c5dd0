// Phase B: the discrete-event machine simulator.
//
// Replays a captured Program on a modeled machine (topology + cores) under a
// runtime policy (scheduler kind, operation overheads, internal cutoffs),
// producing a Trace identical in format to threaded executions. All
// scheduling is deterministic: per-core PRNGs drive victim selection, the
// event queue breaks ties by core id, and the memory model is
// expected-value based. Simulating the same program twice yields
// byte-identical traces.
//
// Faithfulness notes (matching rts::ThreadedEngine semantics):
//  * help-first work stealing: spawned children are pushed to the owner's
//    deque bottom; thieves steal from the top; a waiting parent's core
//    executes other tasks and resumes the parent only when its own stack
//    unwinds back to it.
//  * taskwait blocks until all direct live children finish.
//  * parallel for-loops run on the team with per-chunk book-keeping; static
//    chunks are pre-assigned round-robin; dynamic/guided claim from a
//    shared cursor.
//  * the region ends with an implicit barrier that drains all tasks.
#pragma once

#include <optional>

#include "fault/fault.hpp"
#include "sim/memory_model.hpp"
#include "sim/policy.hpp"
#include "sim/program.hpp"
#include "obs/metrics.hpp"
#include "topology/topology.hpp"
#include "trace/trace.hpp"

namespace gg::sim {

struct SimOptions {
  Topology topology = Topology::opteron48();
  int num_cores = 48;  ///< cores (== workers) used, <= topology.num_cores()
  SimPolicy policy = SimPolicy::mir();
  u64 seed = 42;  ///< steal-victim selection seed
  bool memory_model = true;  ///< false = zero-cost memory (pure task costs)
  /// Fault-injection harness hook: when set, the plan's record-level faults
  /// are applied deterministically to the simulated trace. Testing only.
  std::optional<fault::FaultPlan> fault_plan;
  /// Modeled self-telemetry: when set (or GG_TELEMETRY=1 falls back to the
  /// process registry), the simulator publishes the same `engine.*` metric
  /// schema the threaded runtime emits — modeled counterparts, so analyses
  /// built on one engine's telemetry read the other's unchanged. It is
  /// published after the event loop, so the trace is the same with or
  /// without a registry.
  obs::Registry* telemetry = nullptr;
};

/// Simulates `prog` and returns the finalized trace.
Trace simulate(const Program& prog, const SimOptions& opts);

}  // namespace gg::sim
