// The in-memory trace: every record captured during one profiled execution,
// plus execution metadata. Produced by a TraceRecorder attached to either
// runtime; consumed by the grain-graph builder and metric derivations.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/types.hpp"
#include "trace/records.hpp"

namespace gg {

/// Execution-wide facts needed to interpret a trace.
struct TraceMeta {
  std::string program;       ///< e.g. "sort"
  std::string runtime;       ///< e.g. "sim/mir-ws" or "threaded/ws"
  std::string topology;      ///< topology preset name
  int num_workers = 1;       ///< team size used for the run
  int num_cores = 1;         ///< cores of the (possibly simulated) machine
  double ghz = 1.0;          ///< core frequency for cycle<->ns conversion
  TimeNs region_start = 0;   ///< profiled-region bounds (makespan =
  TimeNs region_end = 0;     ///<   region_end - region_start)
  std::vector<std::string> notes;  ///< free-form provenance, e.g. knobs used
  // Profiling-substrate accounting (trace-format v3; defaults describe
  // pre-v3 traces, which were always recorded with profiling on).
  bool profiled = true;           ///< per-grain profiling was enabled
  u64 trace_buffer_bytes = 0;     ///< recorder buffer footprint at finish
  std::string clock_source;       ///< "tsc", "steady_clock", or "virtual"

  // Crash provenance. Spool recovery (trace/spool.hpp) stamps well-known
  // note prefixes instead of bumping the trace format: "recovered ..." for
  // a partial reconstruction, "crash ..." naming the signal/reason, and
  // "supervisor ..." carrying the stall diagnostic. These accessors are how
  // reports and exporters detect and render partial runs.

  /// True when this trace was reconstructed from a spool of a run that did
  /// not shut down cleanly (some records may be missing).
  bool recovered() const;

  /// The "recovered ..." note (frame/epoch accounting), or "" if clean.
  std::string recovery_note() const;

  /// The crash reason ("signal=11 SIGSEGV", "terminate", ...), or "".
  std::string crash_note() const;

  /// The supervisor's stall diagnostic (single line, "; "-joined), or "".
  std::string supervisor_note() const;

  /// The recorder's self-measured overhead note ("overhead_pct=0.42
  /// events=N est_ns_per_event=25"), stamped by the threaded engine when
  /// telemetry is enabled, or "" when the run did not self-measure.
  std::string recorder_note() const;

  /// Parsed overhead percentage from recorder_note(), if present. Reports
  /// compare it against the paper's 2.5% instrumentation budget.
  std::optional<double> recorder_overhead_pct() const;
};

class Trace {
 public:
  TraceMeta meta;

  std::vector<TaskRec> tasks;
  std::vector<FragmentRec> fragments;
  std::vector<JoinRec> joins;
  std::vector<LoopRec> loops;
  std::vector<ChunkRec> chunks;
  std::vector<BookkeepRec> bookkeeps;
  std::vector<DependRec> depends;
  std::vector<WorkerStatsRec> worker_stats;  ///< one per worker; may be empty
                                             ///< (pre-v3 or unprofiled runs)

  StringTable strings;

  /// Sorts all record vectors into canonical order (tasks by uid, fragments
  /// by (task, seq), ...). Must be called after recording and after
  /// deserialization, before lookups. Lookups on a not-yet-finalized trace
  /// return empty/nullopt instead of aborting, so partially-ingested traces
  /// are safe to probe.
  ///
  /// Each vector's order is the one std::stable_sort by its key gives:
  /// records with equal keys, which damaged inputs can contain, keep their
  /// arrival order. A vector already in that order is left untouched (a
  /// load of a trace written from a finalized one). Otherwise finalize
  /// radix-sorts (key, arrival index) pairs with up to `threads` threads
  /// and gathers the records once, in key order. The order is the same for
  /// every thread count.
  void finalize(int threads = 1);

  /// Index of a task by uid after finalize() (its uid's position when uids
  /// are dense, else a binary search of the uid-sorted tasks; the first one
  /// on duplicate uids); nullopt if absent.
  std::optional<size_t> task_index(TaskId uid) const;

  /// Index of a loop by uid after finalize(), as task_index().
  std::optional<size_t> loop_index(LoopId uid) const;

  // Zero-copy range accessors. After finalize() each record vector is sorted
  // with its owner's records contiguous, so one binary search yields a view.

  /// Fragments of one task in seq order; empty before finalize().
  std::span<const FragmentRec> fragments_span(TaskId uid) const;

  /// Joins of one task in seq order.
  std::span<const JoinRec> joins_span(TaskId uid) const;

  /// Chunks of one loop in (thread, seq_on_thread) order.
  std::span<const ChunkRec> chunks_span(LoopId uid) const;

  /// Book-keeping records of one loop in (thread, seq_on_thread) order.
  std::span<const BookkeepRec> bookkeeps_span(LoopId uid) const;

  /// Dependence predecessors of a task (sorted after finalize()).
  std::vector<TaskId> predecessors_of(TaskId uid) const;

  /// Stats of one worker after finalize(); nullptr if not recorded.
  const WorkerStatsRec* worker_stats_of(u16 worker) const;

  TimeNs makespan() const { return meta.region_end - meta.region_start; }

  /// Total grains (tasks excluding the implicit root, plus chunks) — the
  /// counts the paper quotes per figure ("contains N grains").
  size_t grain_count() const;

  bool finalized() const { return finalized_; }

 private:
  bool finalized_ = false;
};

/// Join with the given seq in one task's (seq-sorted) span, or nullptr.
/// Damaged traces can carry duplicate seqs; the *last* occurrence is
/// returned, matching what a forward linear scan that keeps overwriting its
/// match would select — every caller that resolves a fragment's
/// FragmentEnd::Join end_ref must use this so they agree on damaged inputs.
const JoinRec* find_join(std::span<const JoinRec> joins, u64 seq);

/// The region's implicit barrier: the join the root task's last Join-ending
/// fragment synchronizes at, or nullptr when the root never joins. Children
/// left unjoined synchronize there: the grain graph wires them to its node
/// and the grain table charges them its overhead.
const JoinRec* implicit_barrier(const Trace& trace);

/// The first fragment of one task's seq-ordered fragments that forks after
/// the task's last Join-ending fragment, or nullptr (also when it never
/// joins). For the root such a fork breaks the barrier rule above: the
/// child would synchronize at a barrier that precedes its own creation, a
/// cycle in the grain graph. validate_trace refuses it; salvage_trace
/// restores the lost barrier instead.
const FragmentRec* fork_after_last_join(std::span<const FragmentRec> frags);

/// Interns a "file:line(func)" source identifier, the format the paper uses
/// to name task/loop definitions (e.g. "sparselu.c:246(bmod)").
StrId intern_src(StringTable& strings, std::string_view file, int line,
                 std::string_view func);

}  // namespace gg
