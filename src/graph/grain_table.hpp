// The grain table: one row per grain (task instance or loop chunk), the
// unit everything in §3.2 is derived at.
//
// Grains carry schedule-independent identifiers so runs of the same program
// on different machine sizes can be compared grain-by-grain (needed for the
// work-deviation metric):
//  * tasks use path enumeration — the chain of creation indices from the
//    root, e.g. "0.2.1" (§3.1: "relies on the static nature of the graph");
//  * chunks use (starting thread of the loop, loop sequence counter,
//    iteration range), e.g. "L0.2:128-256".
// A row stores what its identifier is made of, not the string:
// GrainTable::path renders it where a path is printed or looked up.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/grain_graph.hpp"
#include "trace/trace.hpp"

namespace gg {

enum class GrainKind : u8 { Task, Chunk };

/// A grain's counters, summed over its fragments. The same fields as
/// Counters without its default member initializers, so a
/// default-constructed Grain stays unset.
struct GrainCounters {
  Cycles compute;
  Cycles stall;
  u64 cache_misses;
  u64 bytes_accessed;
};

/// One row of the grain table.
///
/// The default constructor leaves every field unset, so the table is sized
/// with no serial zero-fill and each builder shard writes every field of its
/// rows, in place. Grain(kind) sets every field: the kind's identity fields
/// to zero and the rest to an empty grain's values.
struct Grain {
  /// parent_row values that name no row. kRootParent: the parent is the
  /// root (the path is "0.<child_index>"). kNoParent: the task has no parent
  /// (its path is "0"). kMissingParent: the parent uid has no record, so
  /// rendering the path fails a check.
  static constexpr u32 kRootParent = ~u32{0};
  static constexpr u32 kNoParent = ~u32{0} - 1;
  static constexpr u32 kMissingParent = ~u32{0} - 2;

  Grain() {}
  explicit Grain(GrainKind k)
      : task(kNoTask), loop(0), iter_begin(0), iter_end(0), parent(kNoTask),
        first_start(0), last_end(0), exec_time(0), creation_cost(0),
        sync_cost(0), counters{0, 0, 0, 0}, src(0), chunk_seq(0),
        n_fragments(1), n_children(0), parent_row(kNoParent), child_index(0),
        loop_seq(0), loop_thread(0), thread(0), core(0), kind(k),
        inlined(false) {}

  // Task grains.
  TaskId task;
  // Chunk grains.
  LoopId loop;
  u64 iter_begin, iter_end;

  TaskId parent;  ///< creating task (chunks: loop's enclosing task)
  TimeNs first_start;
  TimeNs last_end;
  TimeNs exec_time;  ///< sum of fragment durations / chunk duration

  /// Parallelization cost components (§3.2, parallel benefit):
  /// creation_cost — time the parent spent creating this grain (tasks), or
  /// the book-keeping time that delivered this chunk (chunks);
  /// sync_cost — the parent's synchronization time averaged over the
  /// siblings synchronizing at the same join.
  TimeNs creation_cost;
  TimeNs sync_cost;

  GrainCounters counters;
  StrId src;  ///< definition site
  u32 chunk_seq;
  u32 n_fragments;
  u32 n_children;  ///< direct children spawned (task grains)

  // The schedule-independent identifier's parts (GrainTable::path).
  u32 parent_row;   ///< tasks: row of the parent's first record, or k*Parent
  u32 child_index;  ///< tasks: creation index among the parent's children
  u32 loop_seq;     ///< chunks: the loop's sequence counter
  u16 loop_thread;  ///< chunks: the loop's starting thread

  u16 thread;
  u16 core;
  GrainKind kind;
  bool inlined;
};
static_assert(sizeof(Grain) <= 152, "Grain must stay within 152 bytes");

class GrainTable {
 public:
  /// Builds the table from a finalized trace. The root task is the region
  /// itself and is not a grain (matching the paper's grain counts).
  ///
  /// `threads` shards the build, in three phases, each a phase span inside
  /// the caller's. "grains.tasks" writes every task row in place, in
  /// parallel over the uid-sorted task vector (rows are a pure function of
  /// task position). "grains.sync" computes synchronization-cost shares in
  /// parallel over the graph build's shards of the task-major walk
  /// (walk_cuts), staging each share by the block of rows it lands in;
  /// each row block's owner then applies its shares in walk order, so the
  /// last writer wins as in a serial walk. "grains.chunks"
  /// writes every chunk row in place, in parallel over loops, from
  /// prefix-summed row bases. Rows and costs are bit-identical for every
  /// thread count.
  static GrainTable build(const Trace& trace, int threads = 1);

  GrainTable();
  ~GrainTable();
  GrainTable(GrainTable&&) noexcept;
  GrainTable& operator=(GrainTable&&) noexcept;
  GrainTable(const GrainTable& other);
  GrainTable& operator=(const GrainTable& other);

  const std::vector<Grain>& grains() const { return grains_; }
  size_t size() const { return grains_.size(); }
  /// The thread count the table was built with; passes over its rows that
  /// take no thread count of their own (paths(), compare_runs) split by it.
  int threads() const { return threads_; }

  /// The schedule-independent path of row `row` (see the top of this
  /// file). A task's is rendered by walking its parent rows; a missing
  /// parent record or a cycle in the chain fails a check.
  std::string path(size_t row) const;

  /// Every row's path, by row, rendered once on first use (thread-safe) in
  /// parallel at threads(), so the bulk load→graph→grains pipeline never
  /// renders millions of path strings. Passes that look up every row of
  /// one table in another (work deviation, compare_runs, the oracle) read
  /// them here.
  const std::vector<std::string>& paths() const;

  /// Looks up a grain by its schedule-independent path; the first row wins
  /// when a path repeats. The index over paths() is built on first use
  /// (thread-safe).
  const Grain* by_path(const std::string& path) const;

  // --- rows by position ------------------------------------------------------
  // Rows are a pure function of record positions in the trace the table was
  // built from, so the grain of a task uid or of a graph node is found by
  // position, not through a hash index. On damaged traces the last of
  // several equal identities wins, as the build's row order lays them out.

  /// Row of the task grain of `uid`: the position of its last record in the
  /// uid-sorted trace.tasks, minus the root prefix; nullopt for the root and
  /// for unknown uids.
  static std::optional<size_t> task_row(const Trace& trace, TaskId uid);

  /// Row of the grain a node of a graph built from `trace` represents: the
  /// task grain of a non-root fragment node; for a chunk node, its loop's
  /// row base plus the chunk's offset in the loop's chunk span. nullopt for
  /// everything else (forks, joins, book-keeping, root fragments).
  std::optional<size_t> row_of(const Trace& trace, const GraphNode& n) const;

 private:
  struct PathIndex;  // lazy rendered paths and path → row map

  std::vector<Grain> grains_;
  /// Row of each loop's first chunk grain, by loop position (+1 sentinel).
  std::vector<size_t> chunk_base_;
  int threads_ = 1;
  mutable std::unique_ptr<PathIndex> index_;
};

}  // namespace gg
