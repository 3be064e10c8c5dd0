// Raw per-grain records captured at OMPT-like runtime events.
//
// The MIR profiler in the paper records grain properties at task and chunk
// events notified by the runtime (a superset of OMPT with chunk events and
// affinity information). These records are that superset: everything the
// grain-graph builder and the metric derivations need, and nothing else.
#pragma once

#include "common/types.hpp"

namespace gg {

/// Hardware-counter-style measurements accumulated over one fragment/chunk.
/// In threaded executions compute cycles come from wall time; in simulated
/// executions both fields come from the cost model. `stall` is the basis of
/// the memory-hierarchy-utilization metric (compute/stall, §3.2).
struct Counters {
  Cycles compute = 0;      ///< cycles spent performing computation
  Cycles stall = 0;        ///< cycles stalled waiting for data
  u64 cache_misses = 0;    ///< private-cache line misses
  u64 bytes_accessed = 0;  ///< bytes touched (working-set indicator)

  Counters& operator+=(const Counters& o) {
    compute += o.compute;
    stall += o.stall;
    cache_misses += o.cache_misses;
    bytes_accessed += o.bytes_accessed;
    return *this;
  }

  bool operator==(const Counters&) const = default;
};

/// OpenMP loop schedule kinds supported by the runtimes.
enum class ScheduleKind : u8 { Static, Dynamic, Guided };

const char* to_string(ScheduleKind k);

/// One task instance. `uid` 0 is the implicit root task of the profiled
/// region; it has `parent == kNoTask`.
struct TaskRec {
  TaskId uid = 0;
  TaskId parent = kNoTask;
  u32 child_index = 0;  ///< 0-based creation index among the parent's children
  StrId src = 0;        ///< definition site, e.g. "sparselu.c:246(bmod)"
  TimeNs create_time = 0;
  u16 create_core = 0;
  TimeNs creation_cost = 0;  ///< time the parent spent creating this task
  bool inlined = false;      ///< executed immediately in the parent's context
                             ///< (runtime internal cutoff), not deferred

  bool operator==(const TaskRec&) const = default;
};

/// Why a fragment ended: the task forked a child, reached a taskwait,
/// finished, or encountered a parallel for-loop (the enclosing context
/// resumes after the loop's join).
enum class FragmentEnd : u8 { Fork, Join, TaskEnd, Loop };

/// Execution of a task between two runtime events (creation/synchronization
/// points). Fragments of one task are sequentially ordered by `seq`.
struct FragmentRec {
  TaskId task = 0;
  u32 seq = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  u16 core = 0;
  Counters counters;
  FragmentEnd end_reason = FragmentEnd::TaskEnd;
  u64 end_ref = 0;  ///< Fork: uid of the created child; Join: join seq;
                    ///< Loop: uid of the encountered loop

  bool operator==(const FragmentRec&) const = default;
};

/// One taskwait-style synchronization point inside a task. Children created
/// since the previous join of the same task synchronize here.
struct JoinRec {
  TaskId task = 0;
  u32 seq = 0;  ///< join index within the task
  TimeNs start = 0;
  TimeNs end = 0;
  u16 core = 0;

  bool operator==(const JoinRec&) const = default;
};

/// One parallel for-loop instance.
struct LoopRec {
  LoopId uid = 0;
  TaskId enclosing_task = 0;
  StrId src = 0;
  ScheduleKind sched = ScheduleKind::Static;
  u64 chunk_param = 0;  ///< requested chunk size (0 = schedule default)
  u64 iter_begin = 0;
  u64 iter_end = 0;  ///< exclusive
  u16 num_threads = 0;
  u16 starting_thread = 0;  ///< thread that encountered the loop — part of
                            ///< the schedule-independent chunk identifier
  u32 seq = 0;              ///< loop sequence counter of the starting thread
  TimeNs start = 0;
  TimeNs end = 0;

  bool operator==(const LoopRec&) const = default;
};

/// Computation performed by the set of iterations assigned to one chunk.
struct ChunkRec {
  LoopId loop = 0;
  u16 thread = 0;
  u16 core = 0;
  u32 seq_on_thread = 0;  ///< per-(loop,thread) chunk counter
  u64 iter_begin = 0;
  u64 iter_end = 0;  ///< exclusive
  TimeNs start = 0;
  TimeNs end = 0;
  Counters counters;

  bool operator==(const ChunkRec&) const = default;
};

/// One resolved task dependence: `succ` may not start before `pred`
/// finishes (OpenMP depend clauses, resolved by the runtime's last-writer /
/// reader tracking at spawn time). Structural edges are recorded even when
/// the predecessor already finished by the time the successor was spawned.
struct DependRec {
  TaskId pred = 0;
  TaskId succ = 0;

  bool operator==(const DependRec&) const = default;
};

/// Book-keeping performed by a thread to claim its next chunk (iteration
/// space division / chunk assignment).
struct BookkeepRec {
  LoopId loop = 0;
  u16 thread = 0;
  u16 core = 0;
  u32 seq_on_thread = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  bool got_chunk = false;  ///< false for the final (empty) book-keeping step
                           ///< that proceeds to the loop join

  bool operator==(const BookkeepRec&) const = default;
};

/// Scheduler-internal counters accumulated by one worker over the profiled
/// region. These explain the gap between a grain graph's predicted
/// parallelism and the realized makespan (steal rates, queue contention,
/// idle time) and account for the profiler's own footprint. The threaded
/// runtime measures them; the simulator emits the modeled equivalents.
/// Emitted once per worker at region end (trace-format v3).
struct WorkerStatsRec {
  u16 worker = 0;           ///< worker/core id
  u64 tasks_spawned = 0;    ///< children created by tasks running here
  u64 tasks_executed = 0;   ///< task bodies executed here (incl. inlined)
  u64 tasks_inlined = 0;    ///< spawns cut off inline (internal cutoffs)
  u64 steals = 0;           ///< successful steals by this worker
  u64 steal_failures = 0;   ///< victim probes that came back empty-handed
  u64 cas_failures = 0;     ///< Chase-Lev top CAS races lost (pop + steal)
  u64 deque_pushes = 0;     ///< deferred tasks enqueued by this worker
  u64 deque_pops = 0;       ///< tasks taken from the own queue
  u64 deque_resizes = 0;    ///< Chase-Lev buffer growths
  u64 taskwait_helps = 0;   ///< tasks executed while helping inside a wait
  TimeNs idle_ns = 0;       ///< time spent spinning with nothing to run
  u64 trace_bytes = 0;      ///< profiler buffer bytes this worker recorded

  bool operator==(const WorkerStatsRec&) const = default;
};

}  // namespace gg
