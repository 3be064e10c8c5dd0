#include "sim/policy.hpp"

namespace gg::sim {

SimPolicy SimPolicy::mir() {
  SimPolicy p;
  p.name = "mir";
  p.scheduler = SimSchedulerKind::WorkStealing;
  p.task_create_cycles = 1100;
  p.task_dispatch_cycles = 350;
  p.steal_cycles = 2600;
  return p;
}

SimPolicy SimPolicy::gcc() {
  SimPolicy p;
  p.name = "gcc";
  p.scheduler = SimSchedulerKind::WorkStealing;
  // libgomp uses a lock-protected team queue; creation and dispatch are
  // noticeably more expensive than lock-free deques.
  p.task_create_cycles = 2600;
  p.task_dispatch_cycles = 900;
  p.steal_cycles = 3200;
  p.lock_serialized = true;  // the libgomp team task lock
  p.task_throttle_per_worker = 64;  // gomp's 64x-threads creation throttle
  return p;
}

SimPolicy SimPolicy::icc() {
  SimPolicy p;
  p.name = "icc";
  p.scheduler = SimSchedulerKind::WorkStealing;
  p.task_create_cycles = 1400;
  p.task_dispatch_cycles = 450;
  p.steal_cycles = 2800;
  // The Intel RTL inlines ("undeferred" execution) once the per-thread queue
  // reaches a small bound — the internal cutoff the paper found in the
  // 15.0.1 sources (§4.3.3). This is what rescues unoptimized kdtree/FFT.
  p.inline_queue_limit = 8;
  return p;
}

SimPolicy SimPolicy::zero_overhead() {
  SimPolicy p;
  p.name = "zero";
  p.scheduler = SimSchedulerKind::WorkStealing;
  // Every runtime operation is free: fragment and chunk times reduce to the
  // annotated compute costs exactly, which is what lets the differential
  // oracle (src/check/oracle.hpp) demand bit-exact agreement between the
  // serial reference elaborator and the simulator.
  p.task_create_cycles = 0;
  p.task_dispatch_cycles = 0;
  p.inline_exec_cycles = 0;
  p.steal_cycles = 0;
  p.steal_fail_cycles = 0;
  p.taskwait_cycles = 0;
  p.bookkeep_cycles = 0;
  p.loop_setup_cycles = 0;
  p.lock_serialized = false;
  p.lock_cycles = 0;
  p.coherence_serial_cycles = 0;
  return p;
}

SimPolicy SimPolicy::mir_central() {
  SimPolicy p = mir();
  p.name = "mir-central";
  p.scheduler = SimSchedulerKind::CentralQueue;
  // Every push/pop crosses a shared lock.
  p.task_create_cycles = 1900;
  p.task_dispatch_cycles = 1200;
  p.lock_serialized = true;
  return p;
}

}  // namespace gg::sim
