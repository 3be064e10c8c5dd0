#include "graph/grain_table.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "graph/task_walk.hpp"
#include "graph/thread_groups.hpp"
#include "obs/telemetry.hpp"

namespace gg {

namespace {

/// Where the path walk goes from task `t`: the row of its parent's first
/// record (the record Trace::task_index finds), or the Grain::k*Parent
/// sentinel that ends the walk.
u32 parent_row(const Trace& trace, const TaskRec& t, size_t nroots) {
  if (t.parent == kNoTask) return Grain::kNoParent;
  const auto idx = trace.task_index(t.parent);
  if (!idx.has_value()) return Grain::kMissingParent;
  if (*idx < nroots) return Grain::kRootParent;
  return static_cast<u32>(*idx - nroots);
}

constexpr u32 kNoRow = std::numeric_limits<u32>::max();

/// What one shard of the synchronization-cost pass produced, staged by the
/// block of rows each share lands in: a block's owner applies every shard's
/// shares for it in shard order, which is walk order, so the last writer
/// wins as in a serial walk (on damaged traces two parents can claim one
/// child).
struct SyncShard {
  std::vector<std::vector<std::pair<u32, TimeNs>>> assigns;  // (row, share)
  std::vector<std::vector<u32>> unjoined_rows;
  size_t unjoined = 0;           ///< unjoined children, rows or not
  TimeNs unjoined_last_end = 0;  ///< latest end among unjoined rows
  size_t root_barrier_extra = 0;
  bool root_barrier_seen = false;
};

}  // namespace

struct GrainTable::PathIndex {
  std::once_flag paths_once;
  std::vector<std::string> paths;  // by row
  std::once_flag map_once;
  std::unordered_map<std::string_view, size_t> map;  // views into paths
};

GrainTable::GrainTable() : index_(std::make_unique<PathIndex>()) {}
GrainTable::~GrainTable() = default;
GrainTable::GrainTable(GrainTable&&) noexcept = default;
GrainTable& GrainTable::operator=(GrainTable&&) noexcept = default;

// A copy gets a fresh (unbuilt) path index: the once_flag cannot be copied.
GrainTable::GrainTable(const GrainTable& other)
    : grains_(other.grains_),
      chunk_base_(other.chunk_base_),
      threads_(other.threads_),
      index_(std::make_unique<PathIndex>()) {}
GrainTable& GrainTable::operator=(const GrainTable& other) {
  if (this != &other) {
    grains_ = other.grains_;
    chunk_base_ = other.chunk_base_;
    threads_ = other.threads_;
    index_ = std::make_unique<PathIndex>();
  }
  return *this;
}

GrainTable GrainTable::build(const Trace& trace, int threads) {
  GG_CHECK(trace.finalized());
  GrainTable table;
  table.threads_ = std::max(threads, 1);
  const size_t ntasks = trace.tasks.size();
  const size_t t = static_cast<size_t>(table.threads_);

  // Tasks are uid-sorted and the root uid is 0, so root records (the region
  // itself, not a grain) occupy a prefix; every other task's row is its
  // position minus that prefix — a pure function of the sorted order,
  // independent of sharding.
  size_t nroots = 0;
  while (nroots < ntasks && trace.tasks[nroots].uid == kRootTask) ++nroots;
  const size_t ntask_grains = ntasks - nroots;

  // Chunk grain rows follow the task grains, one run per loop in loop
  // order; prefix-summed bases let every shard fill its loops in place.
  const size_t nloops = trace.loops.size();
  std::vector<size_t>& chunk_base = table.chunk_base_;
  chunk_base.assign(nloops + 1, ntask_grains);
  for (size_t l = 0; l < nloops; ++l) {
    chunk_base[l + 1] =
        chunk_base[l] + trace.chunks_span(trace.loops[l].uid).size();
  }
  GG_CHECK(chunk_base[nloops] < Grain::kMissingParent);
  // Grain() leaves rows unset: the phases below write every field.
  table.grains_.resize(chunk_base[nloops]);
  std::vector<Grain>& rows = table.grains_;

  // --- Task grains ---------------------------------------------------------
  obs::PhaseSpan tasks_span("grains.tasks");
  const size_t task_shards = ntask_grains == 0 ? 1 : std::min(t, ntask_grains);
  par_for_shard(task_shards, [&](size_t s) {
    const size_t lo = nroots + ntask_grains * s / task_shards;
    const size_t hi = nroots + ntask_grains * (s + 1) / task_shards;
    if (lo == hi) return;
    TaskRuns<FragmentRec> fragments(trace.fragments, trace.tasks[lo].uid);
    for (size_t i = lo; i < hi; ++i) {
      const TaskRec& tr = trace.tasks[i];
      Grain g(GrainKind::Task);
      g.task = tr.uid;
      g.parent = tr.parent;
      g.src = tr.src;
      g.parent_row = parent_row(trace, tr, nroots);
      g.child_index = tr.child_index;
      g.creation_cost = tr.creation_cost;
      g.inlined = tr.inlined;
      const auto frags = fragments.of(tr.uid);
      GG_CHECK(!frags.empty());
      g.first_start = frags.front().start;
      g.last_end = frags.back().end;
      g.core = frags.front().core;
      g.n_fragments = static_cast<u32>(frags.size());
      Counters sum;
      for (const FragmentRec& f : frags) {
        g.exec_time += f.end - f.start;
        sum += f.counters;
        if (f.end_reason == FragmentEnd::Fork) g.n_children++;
      }
      g.counters = {sum.compute, sum.stall, sum.cache_misses,
                    sum.bytes_accessed};
      rows[i - nroots] = g;
    }
  });
  tasks_span.end();

  // --- Synchronization-cost shares -----------------------------------------
  // Walk every task's fragment stream matching forked children to the join
  // they synchronize at (the same pending-children discipline as the graph
  // builder, and the same shards of about equal work: a shard starts at a
  // task boundary or right after a join, where no child is pending).
  // Children left unjoined synchronize at the region's implicit barrier,
  // the join the graph builder wires them to. A child's row is found by
  // position; on a duplicated uid (damaged traces) it is the last record's.
  obs::PhaseSpan sync_span("grains.sync");
  const JoinRec* root_last_join = implicit_barrier(trace);
  const std::vector<WalkPos> cuts = walk_cuts(trace, table.threads_);
  const size_t sync_shards = cuts.size() - 1;
  const size_t row_blocks = task_shards;
  const size_t block_rows = std::max<size_t>(
      1, (ntask_grains + row_blocks - 1) / row_blocks);
  std::vector<SyncShard> sync(sync_shards);
  par_for_shard(sync_shards, [&](size_t s) {
    SyncShard& sh = sync[s];
    sh.assigns.resize(row_blocks);
    sh.unjoined_rows.resize(row_blocks);
    if (cuts[s] == cuts[s + 1]) return;
    const TaskId first = trace.tasks[cuts[s].task].uid;
    TaskRuns<FragmentRec> fragments(trace.fragments, first);
    TaskRuns<JoinRec> task_joins(trace.joins, first);
    std::vector<u32> pending;  // rows of forked children, kNoRow if none
    for_each_walk_task(cuts[s], cuts[s + 1], [&](size_t i, size_t from,
                                                  size_t to) {
      const TaskRec& tr = trace.tasks[i];
      const auto all = fragments.of(tr.uid);
      const auto frags = all.subspan(from, std::min(to, all.size()) - from);
      const auto joins = task_joins.of(tr.uid);
      pending.clear();
      for (const FragmentRec& f : frags) {
        if (f.end_reason == FragmentEnd::Fork) {
          const auto row = task_row(trace, f.end_ref);
          pending.push_back(row ? static_cast<u32>(*row) : kNoRow);
        } else if (f.end_reason == FragmentEnd::Join) {
          const JoinRec* jr = find_join(joins, f.end_ref);
          GG_CHECK(jr != nullptr);
          // The chargeable synchronization cost is the join overhead — the
          // tail of the join interval not overlapped by any synchronizing
          // child's execution. Time the parent spends merely *waiting* for
          // (or helping while) children run is not a parallelization cost.
          TimeNs last_child_end = jr->start;
          for (const u32 row : pending) {
            if (row != kNoRow)
              last_child_end = std::max(last_child_end, rows[row].last_end);
          }
          const TimeNs overhead =
              jr->end > last_child_end ? jr->end - last_child_end : 0;
          const TimeNs share = pending.empty() ? 0 : overhead / pending.size();
          for (const u32 row : pending) {
            if (row != kNoRow)
              sh.assigns[row / block_rows].emplace_back(row, share);
          }
          if (tr.uid == kRootTask && jr == root_last_join) {
            sh.root_barrier_extra = pending.size();
            sh.root_barrier_seen = true;
          }
          pending.clear();
        }
      }
      sh.unjoined += pending.size();
      for (const u32 row : pending) {
        if (row == kNoRow) continue;
        sh.unjoined_last_end =
            std::max(sh.unjoined_last_end, rows[row].last_end);
        sh.unjoined_rows[row / block_rows].push_back(row);
      }
    });
  });
  // Unjoined children share the implicit barrier's overhead with the
  // root's children pending at its last join.
  size_t unjoined = 0;
  size_t root_barrier_extra = 0;
  TimeNs unjoined_share = 0;
  for (const SyncShard& sh : sync) {
    unjoined += sh.unjoined;
    if (sh.root_barrier_seen) root_barrier_extra = sh.root_barrier_extra;
  }
  const bool share_unjoined = unjoined != 0 && root_last_join != nullptr;
  if (share_unjoined) {
    TimeNs last_child_end = root_last_join->start;
    for (const SyncShard& sh : sync)
      last_child_end = std::max(last_child_end, sh.unjoined_last_end);
    const TimeNs overhead = root_last_join->end > last_child_end
                                ? root_last_join->end - last_child_end
                                : 0;
    unjoined_share = overhead / (unjoined + root_barrier_extra);
  }
  par_for_shard(row_blocks, [&](size_t b) {
    for (const SyncShard& sh : sync) {
      for (const auto& [row, share] : sh.assigns[b])
        rows[row].sync_cost = share;
    }
    if (!share_unjoined) return;
    for (const SyncShard& sh : sync) {
      for (const u32 row : sh.unjoined_rows[b])
        rows[row].sync_cost = unjoined_share;
    }
  });
  sync_span.end();

  // --- Chunk grains --------------------------------------------------------
  obs::PhaseSpan chunks_span("grains.chunks");
  const size_t loop_shards = nloops == 0 ? 1 : std::min(t, nloops);
  par_for_shard(loop_shards, [&](size_t s) {
    const size_t lo = nloops * s / loop_shards;
    const size_t hi = nloops * (s + 1) / loop_shards;
    for (size_t l = lo; l < hi; ++l) {
      const LoopRec& loop = trace.loops[l];
      size_t row = chunk_base[l];
      // Pair each chunk with the book-keeping step that delivered it: the
      // n-th got_chunk book-keeping of a thread delivered the n-th chunk.
      // Both record kinds are (thread, seq)-sorted runs after finalize().
      for_each_thread_pair(
          trace.chunks_span(loop.uid), trace.bookkeeps_span(loop.uid),
          [&](u16, std::span<const ChunkRec> cs,
              std::span<const BookkeepRec> bs) {
            size_t bi = 0;  // next got_chunk book-keeping record
            for (const ChunkRec& c : cs) {
              Grain g(GrainKind::Chunk);
              g.loop = loop.uid;
              g.thread = c.thread;
              g.chunk_seq = c.seq_on_thread;
              g.iter_begin = c.iter_begin;
              g.iter_end = c.iter_end;
              g.parent = loop.enclosing_task;
              g.src = loop.src;
              g.loop_thread = loop.starting_thread;
              g.loop_seq = loop.seq;
              g.first_start = c.start;
              g.last_end = c.end;
              g.exec_time = c.end - c.start;
              g.counters = {c.counters.compute, c.counters.stall,
                            c.counters.cache_misses, c.counters.bytes_accessed};
              g.core = c.core;
              while (bi < bs.size() && !bs[bi].got_chunk) ++bi;
              if (bi < bs.size()) {
                g.creation_cost = bs[bi].end - bs[bi].start;
                ++bi;
              }
              rows[row++] = g;
            }
          });
      GG_CHECK(row == chunk_base[l + 1]);
    }
  });
  chunks_span.end();

  return table;
}

std::string GrainTable::path(size_t row) const {
  const Grain& g = grains_[row];
  if (g.kind == GrainKind::Chunk) {
    std::string p = "L";
    p += std::to_string(g.loop_thread);
    p += '.';
    p += std::to_string(g.loop_seq);
    p += ':';
    p += std::to_string(g.iter_begin);
    p += '-';
    p += std::to_string(g.iter_end);
    return p;
  }
  // Root is "0", a child is "<parent path>.<child_index>". The chain is
  // walked twice: for the length, then writing child indices from the end.
  auto digits = [](u32 v) {
    size_t n = 1;
    for (; v >= 10; v /= 10) ++n;
    return n;
  };
  size_t len = 1;
  size_t steps = 0;
  for (const Grain* t = &g; t->parent_row != Grain::kNoParent;) {
    len += 1 + digits(t->child_index);
    GG_CHECK_MSG(t->parent_row != Grain::kMissingParent,
                 "task parent has no record");
    if (t->parent_row == Grain::kRootParent) break;
    t = &grains_[t->parent_row];
    GG_CHECK_MSG(++steps <= grains_.size(),
                 "task parent chain contains a cycle");
  }
  std::string p(len, '0');
  size_t end = len;
  for (const Grain* t = &g; t->parent_row != Grain::kNoParent;) {
    for (u32 v = t->child_index;; v /= 10) {
      p[--end] = static_cast<char>('0' + v % 10);
      if (v < 10) break;
    }
    p[--end] = '.';
    if (t->parent_row == Grain::kRootParent) break;
    t = &grains_[t->parent_row];
  }
  return p;
}

const std::vector<std::string>& GrainTable::paths() const {
  static const std::vector<std::string> kNone;
  if (index_ == nullptr) return kNone;  // moved-from table
  std::call_once(index_->paths_once, [&] {
    // Rows render in parallel blocks; a task row whose parent row came
    // earlier in its block (a parent is recorded before its children)
    // extends the parent's path instead of walking the chain again.
    std::vector<std::string>& paths = index_->paths;
    paths.resize(grains_.size());
    par_for_blocks(grains_.size(), threads_,
                   [&](size_t, size_t lo, size_t hi) {
                     for (size_t i = lo; i < hi; ++i) {
                       const Grain& g = grains_[i];
                       if (g.kind == GrainKind::Task && g.parent_row >= lo &&
                           g.parent_row < i) {
                         paths[i] = paths[g.parent_row];
                         paths[i] += '.';
                         paths[i] += std::to_string(g.child_index);
                       } else {
                         paths[i] = this->path(i);
                       }
                     }
                   });
  });
  return index_->paths;
}

const Grain* GrainTable::by_path(const std::string& path) const {
  if (index_ == nullptr) return nullptr;  // moved-from table
  std::call_once(index_->map_once, [&] {
    // In row order, so the first row wins.
    const std::vector<std::string>& all = paths();
    index_->map.reserve(all.size());
    for (size_t i = 0; i < all.size(); ++i) index_->map.emplace(all[i], i);
  });
  auto it = index_->map.find(path);
  return it == index_->map.end() ? nullptr : &grains_[it->second];
}

namespace {

/// One past the last record of `uid` in the uid-sorted trace.tasks, or the
/// position it would take. Recorded uids are dense from the root's 0, so a
/// task usually sits at its uid: that position is tried before a search.
size_t task_end(const std::vector<TaskRec>& tasks, TaskId uid) {
  if (uid < tasks.size() && tasks[uid].uid == uid &&
      (uid + 1 == tasks.size() || tasks[uid + 1].uid != uid))
    return static_cast<size_t>(uid) + 1;
  return static_cast<size_t>(
      std::upper_bound(tasks.begin(), tasks.end(), uid,
                       [](TaskId v, const TaskRec& t) { return v < t.uid; }) -
      tasks.begin());
}

}  // namespace

std::optional<size_t> GrainTable::task_row(const Trace& trace, TaskId uid) {
  const auto& tasks = trace.tasks;
  if (uid == kRootTask) return std::nullopt;
  const size_t end = task_end(tasks, uid);
  if (end == 0 || tasks[end - 1].uid != uid) return std::nullopt;
  const size_t nroots = task_end(tasks, kRootTask);
  return end - 1 - nroots;
}

std::optional<size_t> GrainTable::row_of(const Trace& trace,
                                         const GraphNode& n) const {
  if (n.kind == NodeKind::Fragment) return task_row(trace, n.task);
  if (n.kind != NodeKind::Chunk || n.chunk >= trace.chunks.size())
    return std::nullopt;
  const auto& loops = trace.loops;
  const auto loop_end = std::upper_bound(
      loops.begin(), loops.end(), n.loop,
      [](LoopId v, const LoopRec& l) { return v < l.uid; });
  if (loop_end == loops.begin() || (loop_end - 1)->uid != n.loop)
    return std::nullopt;
  const size_t l = static_cast<size_t>(loop_end - loops.begin()) - 1;
  const auto chunks = trace.chunks_span(n.loop);
  if (chunks.empty()) return std::nullopt;
  const size_t first =
      static_cast<size_t>(chunks.data() - trace.chunks.data());
  if (n.chunk < first || n.chunk - first >= chunks.size()) return std::nullopt;
  size_t k = n.chunk - first;
  // Equal (thread, seq) records are adjacent; the last one's row wins.
  while (k + 1 < chunks.size() && chunks[k + 1].thread == chunks[k].thread &&
         chunks[k + 1].seq_on_thread == chunks[k].seq_on_thread)
    ++k;
  return chunk_base_[l] + k;
}

}  // namespace gg
