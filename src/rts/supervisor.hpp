// Runtime supervision: watchdog options and stall reports. The threaded
// runtime (rts/threaded_engine.cpp) runs a live watchdog thread over
// per-worker heartbeats.
//
// What the watchdog detects: the profiled region making *no progress*
// (no task, chunk or join completed) for longer than the stall deadline
// while work is still outstanding — every worker parked idle, spinning in
// a taskwait/loop barrier, or wedged inside user code with a frozen
// heartbeat. On stall it assembles a structured diagnostic (per-worker
// state, queue depths, dependence-blocked tasks with chain/cycle
// analysis), spools it as a 'D' frame, and either calls the test hook or
// aborts gracefully — the crash handlers then stamp "supervisor stall"
// provenance so the recovered trace explains why the run died.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gg::rts {

/// What a worker was doing when the supervisor sampled it.
enum class WorkerState : u8 {
  Idle = 0,      ///< scheduling loop found nothing to run
  Exec = 1,      ///< inside a task body (or wedged in user code)
  Taskwait = 2,  ///< parked/helping inside a taskwait or implicit barrier
  LoopWait = 3,  ///< waiting for a parallel-for team to drain
};

inline const char* to_string(WorkerState s) {
  switch (s) {
    case WorkerState::Idle: return "idle";
    case WorkerState::Exec: return "exec";
    case WorkerState::Taskwait: return "taskwait";
    case WorkerState::LoopWait: return "loopwait";
  }
  return "?";
}

struct SupervisorReport;

struct SupervisorOptions {
  /// Off by default: supervision costs a watchdog thread plus per-worker
  /// heartbeat stores on the idle paths.
  bool enabled = false;
  /// No completed grain for this long (while work is outstanding) == stall.
  /// Long single-grain computations must fit under this deadline.
  TimeNs stall_timeout_ns = 2'000'000'000;
  /// Watchdog sampling period.
  TimeNs poll_interval_ns = 10'000'000;
  /// Emit the diagnostic dump (stderr + spool 'D' frame) on stall.
  bool dump_on_stall = true;
  /// Test hook: invoked instead of aborting; may unblock the program (the
  /// watchdog keeps running and can fire again). Unset, a stall is a
  /// graceful abort-with-flush: an emergency crash footer ("supervisor
  /// stall") is spooled, then std::abort().
  std::function<void(const SupervisorReport&)> on_stall;
};

/// One worker's state at stall time (all fields sampled from atomics).
struct WorkerSnapshot {
  int worker = 0;
  WorkerState state = WorkerState::Idle;
  u64 heartbeat = 0;       ///< scheduler-loop ticks; frozen == wedged
  bool heartbeat_stuck = false;  ///< unchanged across the stall window
  TaskId current_task = kNoTask;
  size_t queue_depth = 0;
};

/// A spawned task whose dependences have not all resolved.
struct BlockedTask {
  TaskId uid = 0;
  std::vector<TaskId> waiting_on;  ///< predecessor uids still outstanding
};

struct SupervisorReport {
  TimeNs stalled_for_ns = 0;
  u64 progress = 0;      ///< grains completed when the stall was declared
  u64 live_tasks = 0;    ///< deferred tasks still outstanding
  std::vector<WorkerSnapshot> workers;
  std::vector<BlockedTask> blocked;
  /// Non-empty when the blocked tasks' wait-for edges close a cycle (a
  /// dependence deadlock); lists the uids along the cycle.
  std::vector<TaskId> dep_cycle;

  /// Multi-line human-readable diagnostic (what lands in the 'D' frame).
  std::string render() const {
    std::string out = "supervisor: no progress for ";
    out += std::to_string(stalled_for_ns / 1000000);
    out += "ms with ";
    out += std::to_string(live_tasks);
    out += " live tasks (progress=";
    out += std::to_string(progress);
    out += ")\n";
    for (const WorkerSnapshot& w : workers) {
      out += "  worker ";
      out += std::to_string(w.worker);
      out += ": ";
      out += to_string(w.state);
      if (w.current_task != kNoTask) {
        out += " task=";
        out += std::to_string(w.current_task);
      }
      out += " queue=";
      out += std::to_string(w.queue_depth);
      out += " heartbeat=";
      out += std::to_string(w.heartbeat);
      if (w.heartbeat_stuck) out += " (stuck)";
      out += "\n";
    }
    for (const BlockedTask& b : blocked) {
      out += "  blocked task ";
      out += std::to_string(b.uid);
      out += " waiting on";
      for (TaskId p : b.waiting_on) {
        out += ' ';
        out += std::to_string(p);
      }
      out += "\n";
    }
    if (!dep_cycle.empty()) {
      out += "  dependence cycle:";
      for (TaskId t : dep_cycle) {
        out += ' ';
        out += std::to_string(t);
      }
      out += "\n";
    }
    return out;
  }

  /// Walks the blocked tasks' wait-for edges and fills dep_cycle if they
  /// close a loop. The engines' spawn-ordering makes true cycles
  /// impossible, so a hit here means corrupted bookkeeping or an injected
  /// fault — exactly what a crash dump should call out.
  void detect_dependence_cycle() {
    dep_cycle.clear();
    // wait-for edges restricted to tasks that are themselves blocked.
    auto find = [this](TaskId uid) -> const BlockedTask* {
      for (const BlockedTask& b : blocked) {
        if (b.uid == uid) return &b;
      }
      return nullptr;
    };
    for (const BlockedTask& start : blocked) {
      std::vector<TaskId> path;
      TaskId cur = start.uid;
      // Follow first-blocked-predecessor chains; bounded by the blocked set.
      for (size_t steps = 0; steps <= blocked.size(); ++steps) {
        for (TaskId seen : path) {
          if (seen == cur) {
            dep_cycle.assign(path.begin(), path.end());
            dep_cycle.push_back(cur);
            return;
          }
        }
        path.push_back(cur);
        const BlockedTask* b = find(cur);
        if (b == nullptr) break;
        const BlockedTask* next = nullptr;
        for (TaskId p : b->waiting_on) {
          if ((next = find(p)) != nullptr) break;
        }
        if (next == nullptr) break;
        cur = next->uid;
      }
    }
  }
};

}  // namespace gg::rts
