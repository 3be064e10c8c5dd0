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
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/grain_graph.hpp"
#include "trace/trace.hpp"

namespace gg {

enum class GrainKind : u8 { Task, Chunk };

struct Grain {
  GrainKind kind = GrainKind::Task;
  // Task grains.
  TaskId task = kNoTask;
  // Chunk grains.
  LoopId loop = 0;
  u16 thread = 0;
  u32 chunk_seq = 0;
  u64 iter_begin = 0, iter_end = 0;

  std::string path;  ///< schedule-independent identifier
  StrId src = 0;     ///< definition site
  TaskId parent = kNoTask;  ///< creating task (chunks: loop's enclosing task)

  TimeNs first_start = 0;
  TimeNs last_end = 0;
  TimeNs exec_time = 0;  ///< sum of fragment durations / chunk duration
  Counters counters;
  u16 core = 0;
  u32 n_fragments = 1;
  u32 n_children = 0;  ///< direct children spawned (task grains)
  bool inlined = false;

  /// Parallelization cost components (§3.2, parallel benefit):
  /// creation_cost — time the parent spent creating this grain (tasks), or
  /// the book-keeping time that delivered this chunk (chunks);
  /// sync_cost — the parent's synchronization time averaged over the
  /// siblings synchronizing at the same join.
  TimeNs creation_cost = 0;
  TimeNs sync_cost = 0;
};

class GrainTable {
 public:
  /// Builds the table from a finalized trace. The root task is the region
  /// itself and is not a grain (matching the paper's grain counts).
  ///
  /// `threads` shards the build: task grains are filled by a parallel pass
  /// over the uid-sorted task vector (rows are a pure function of task
  /// position), chunk grains by a parallel pass over loops with
  /// prefix-summed row bases, and synchronization-cost shares are collected
  /// per shard and applied serially in global task order. Rows, paths, and
  /// costs are bit-identical for every thread count.
  static GrainTable build(const Trace& trace, int threads = 1);

  GrainTable();
  ~GrainTable();
  GrainTable(GrainTable&&) noexcept;
  GrainTable& operator=(GrainTable&&) noexcept;
  GrainTable(const GrainTable& other);
  GrainTable& operator=(const GrainTable& other);

  const std::vector<Grain>& grains() const { return grains_; }
  size_t size() const { return grains_.size(); }

  /// Looks up a grain by its schedule-independent path. The index is built
  /// lazily on first use (thread-safe), so the bulk load→graph→grains
  /// pipeline never pays for hashing millions of path strings.
  const Grain* by_path(const std::string& path) const;
  /// All task grains that are children of `parent`, in creation order.
  std::vector<const Grain*> children_of(TaskId parent) const;

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
  struct PathIndex;  // lazy path → row map; keys view into grains_[i].path

  std::vector<Grain> grains_;
  /// Row of each loop's first chunk grain, by loop position (+1 sentinel).
  std::vector<size_t> chunk_base_;
  mutable std::unique_ptr<PathIndex> index_;
};

}  // namespace gg
