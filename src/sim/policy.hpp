// Runtime-policy models for the simulator.
//
// The paper evaluates each program on three OpenMP runtime systems — GCC
// (libgomp), ICC (Intel OpenMP RTL), and MIR — and shows that their internal
// cutoff strategies explain cross-runtime differences (e.g. ICC's queue-size
// internal cutoff rescues the unoptimized 376.kdtree and FFT, §2 and §4.3.3;
// GCC throttles task creation at 64x the thread count [34]). A SimPolicy
// captures those strategies plus per-operation overhead costs.
#pragma once

#include <string>

#include "common/types.hpp"

namespace gg::sim {

enum class SimSchedulerKind : u8 { WorkStealing, CentralQueue };

struct SimPolicy {
  std::string name = "mir";
  SimSchedulerKind scheduler = SimSchedulerKind::WorkStealing;

  // Per-operation overheads, in processor cycles.
  Cycles task_create_cycles = 1100;   ///< allocate + enqueue a deferred task
  Cycles task_dispatch_cycles = 350;  ///< dequeue + start a deferred task
  Cycles inline_exec_cycles = 120;    ///< start an inlined (undeferred) task
  Cycles steal_cycles = 2600;         ///< successful steal (remote CAS+fetch)
  Cycles steal_fail_cycles = 250;     ///< failed victim probe
  Cycles taskwait_cycles = 200;       ///< taskwait entry bookkeeping
  Cycles bookkeep_cycles = 220;       ///< claim one chunk (loop book-keeping)
  Cycles loop_setup_cycles = 900;     ///< publish a loop to the team

  // Queue contention. Every deferred-task queue operation (enqueue,
  // dequeue, successful steal) consumes a shared resource:
  //  * lock_serialized runtimes (libgomp's team task lock, the central
  //    queue) serialize fully at lock_cycles per op — the mechanism that
  //    makes 1.5M-task programs like unoptimized 376.kdtree collapse;
  //  * lock-free runtimes still pay coherence_serial_cycles of global
  //    cacheline ping-pong per op.
  bool lock_serialized = false;
  Cycles lock_cycles = 380;
  Cycles coherence_serial_cycles = 60;

  // Internal cutoffs.
  u64 inline_queue_limit = 0;       ///< ICC-like: inline when the spawning
                                    ///< worker's queue holds >= limit tasks
  u64 task_throttle_per_worker = 0; ///< GCC-like: inline when live tasks >=
                                    ///< throttle x workers (libgomp uses 64)

  /// MIR: work-stealing with lock-free Chase-Lev deques, no internal cutoff.
  static SimPolicy mir();
  /// GCC libgomp: locked queues (higher costs), 64x-threads task throttle.
  static SimPolicy gcc();
  /// ICC Intel RTL: efficient tasking plus a queue-size internal cutoff.
  static SimPolicy icc();
  /// MIR with the central locked queue (Fig. 11d scatter foil).
  static SimPolicy mir_central();
  /// All overheads zero: grain times equal annotated compute exactly. The
  /// differential oracle's exact-agreement tier compares the serial
  /// reference elaborator against simulations under this policy.
  static SimPolicy zero_overhead();
};

}  // namespace gg::sim
