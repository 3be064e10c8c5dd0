#include "graph/grain_table.hpp"

#include <algorithm>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "graph/thread_groups.hpp"

namespace gg {

namespace {

/// Path-enumeration id of one task: root is "0", a child is
/// "<parent path>.<child_index>". Each call walks the parent chain
/// independently, so the pass parallelizes without a shared memo; the cost
/// stays linear in the emitted string length, which is what the memoized
/// serial walk paid too (it copied the parent's path into every child).
std::string task_path(const Trace& trace, const TaskRec& t0) {
  std::vector<u32> chain;  // child indices, deepest first
  const TaskRec* t = &t0;
  size_t steps = 0;
  while (t->uid != kRootTask && t->parent != kNoTask) {
    chain.push_back(t->child_index);
    const auto idx = trace.task_index(t->parent);
    GG_CHECK(idx.has_value());
    t = &trace.tasks[*idx];
    GG_CHECK_MSG(++steps <= trace.tasks.size(),
                 "task parent chain contains a cycle");
  }
  std::string p = "0";
  for (size_t i = chain.size(); i-- > 0;) {
    p += '.';
    p += std::to_string(chain[i]);
  }
  return p;
}

/// Synchronization-cost writes one shard of tasks produced, in walk order.
/// Shards only collect; the writes are applied serially in shard order so
/// the combined sequence is exactly the serial builder's (last writer wins
/// even on damaged traces where two parents claim the same child).
struct SyncShard {
  std::vector<std::pair<size_t, TimeNs>> assigns;  // (row, share)
  std::vector<TaskId> unjoined;
  size_t root_barrier_extra = 0;
  bool root_barrier_seen = false;
};

}  // namespace

struct GrainTable::PathIndex {
  std::once_flag once;
  std::unordered_map<std::string_view, size_t> map;
};

GrainTable::GrainTable() : index_(std::make_unique<PathIndex>()) {}
GrainTable::~GrainTable() = default;
GrainTable::GrainTable(GrainTable&&) noexcept = default;
GrainTable& GrainTable::operator=(GrainTable&&) noexcept = default;

// The path index views into grains_[i].path, so it never transfers across a
// copy: the copy gets a fresh (unbuilt) index over its own strings. Moves
// keep the index — the Grain objects (and their string buffers) stay put.
GrainTable::GrainTable(const GrainTable& other)
    : grains_(other.grains_),
      chunk_base_(other.chunk_base_),
      index_(std::make_unique<PathIndex>()) {}
GrainTable& GrainTable::operator=(const GrainTable& other) {
  if (this != &other) {
    grains_ = other.grains_;
    chunk_base_ = other.chunk_base_;
    index_ = std::make_unique<PathIndex>();
  }
  return *this;
}

GrainTable GrainTable::build(const Trace& trace, int threads) {
  GG_CHECK(trace.finalized());
  GrainTable table;
  const size_t ntasks = trace.tasks.size();
  const size_t t = static_cast<size_t>(std::max(threads, 1));

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
  table.grains_.resize(chunk_base[nloops]);

  // --- Task grains ---------------------------------------------------------
  // First pass: per-task aggregates, written to disjoint rows.
  const size_t task_shards = ntask_grains == 0 ? 1 : std::min(t, ntask_grains);
  par_for_shard(task_shards, [&](size_t s) {
    const size_t lo = nroots + ntask_grains * s / task_shards;
    const size_t hi = nroots + ntask_grains * (s + 1) / task_shards;
    for (size_t i = lo; i < hi; ++i) {
      const TaskRec& tr = trace.tasks[i];
      Grain g;
      g.kind = GrainKind::Task;
      g.task = tr.uid;
      g.parent = tr.parent;
      g.src = tr.src;
      g.path = task_path(trace, tr);
      g.creation_cost = tr.creation_cost;
      g.inlined = tr.inlined;
      const auto frags = trace.fragments_span(tr.uid);
      GG_CHECK(!frags.empty());
      g.first_start = frags.front().start;
      g.last_end = frags.back().end;
      g.core = frags.front().core;
      g.n_fragments = static_cast<u32>(frags.size());
      for (const FragmentRec& f : frags) {
        g.exec_time += f.end - f.start;
        g.counters += f.counters;
        if (f.end_reason == FragmentEnd::Fork) g.n_children++;
      }
      table.grains_[i - nroots] = std::move(g);
    }
  });

  // Second pass: synchronization-cost shares. Walk every task's fragment
  // stream matching forked children to the join they synchronize at (the
  // same pending-children discipline as the graph builder). Children left
  // unjoined synchronize at the region's implicit barrier, the join the
  // graph builder wires them to. A child's row is found by position; on a
  // duplicated uid (damaged traces) it is the last record's.
  const JoinRec* root_last_join = implicit_barrier(trace);
  const size_t sync_shards = ntasks == 0 ? 1 : std::min(t, ntasks);
  std::vector<SyncShard> sync(sync_shards);
  par_for_shard(sync_shards, [&](size_t s) {
    SyncShard& sh = sync[s];
    const size_t lo = ntasks * s / sync_shards;
    const size_t hi = ntasks * (s + 1) / sync_shards;
    std::vector<TaskId> pending;
    for (size_t i = lo; i < hi; ++i) {
      const TaskRec& tr = trace.tasks[i];
      const auto frags = trace.fragments_span(tr.uid);
      const auto joins = trace.joins_span(tr.uid);
      pending.clear();
      for (const FragmentRec& f : frags) {
        if (f.end_reason == FragmentEnd::Fork) {
          pending.push_back(f.end_ref);
        } else if (f.end_reason == FragmentEnd::Join) {
          const JoinRec* jr = find_join(joins, f.end_ref);
          GG_CHECK(jr != nullptr);
          // The chargeable synchronization cost is the join overhead — the
          // tail of the join interval not overlapped by any synchronizing
          // child's execution. Time the parent spends merely *waiting* for
          // (or helping while) children run is not a parallelization cost.
          TimeNs last_child_end = jr->start;
          for (TaskId c : pending) {
            if (const auto row = task_row(trace, c)) {
              last_child_end =
                  std::max(last_child_end, table.grains_[*row].last_end);
            }
          }
          const TimeNs overhead =
              jr->end > last_child_end ? jr->end - last_child_end : 0;
          const TimeNs share = pending.empty() ? 0 : overhead / pending.size();
          for (TaskId c : pending) {
            if (const auto row = task_row(trace, c))
              sh.assigns.emplace_back(*row, share);
          }
          if (tr.uid == kRootTask && jr == root_last_join) {
            sh.root_barrier_extra = pending.size();
            sh.root_barrier_seen = true;
          }
          pending.clear();
        }
      }
      for (TaskId c : pending) sh.unjoined.push_back(c);
    }
  });
  std::vector<TaskId> unjoined;
  size_t root_barrier_extra = 0;  // children of root pending at its last join
  for (const SyncShard& sh : sync) {
    for (const auto& [row, share] : sh.assigns)
      table.grains_[row].sync_cost = share;
    if (sh.root_barrier_seen) root_barrier_extra = sh.root_barrier_extra;
    unjoined.insert(unjoined.end(), sh.unjoined.begin(), sh.unjoined.end());
  }
  if (!unjoined.empty() && root_last_join != nullptr) {
    const size_t total = unjoined.size() + root_barrier_extra;
    TimeNs last_child_end = root_last_join->start;
    for (TaskId c : unjoined) {
      if (const auto row = task_row(trace, c)) {
        last_child_end =
            std::max(last_child_end, table.grains_[*row].last_end);
      }
    }
    const TimeNs overhead = root_last_join->end > last_child_end
                                ? root_last_join->end - last_child_end
                                : 0;
    const TimeNs share = overhead / total;
    for (TaskId c : unjoined) {
      if (const auto row = task_row(trace, c))
        table.grains_[*row].sync_cost = share;
    }
  }

  // --- Chunk grains --------------------------------------------------------
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
      std::string loop_prefix = "L";
      loop_prefix += std::to_string(loop.starting_thread);
      loop_prefix += '.';
      loop_prefix += std::to_string(loop.seq);
      loop_prefix += ':';
      for_each_thread_pair(
          trace.chunks_span(loop.uid), trace.bookkeeps_span(loop.uid),
          [&](u16, std::span<const ChunkRec> cs,
              std::span<const BookkeepRec> bs) {
            size_t bi = 0;  // next got_chunk book-keeping record
            for (const ChunkRec& c : cs) {
              Grain g;
              g.kind = GrainKind::Chunk;
              g.loop = loop.uid;
              g.thread = c.thread;
              g.chunk_seq = c.seq_on_thread;
              g.iter_begin = c.iter_begin;
              g.iter_end = c.iter_end;
              g.parent = loop.enclosing_task;
              g.src = loop.src;
              g.path = loop_prefix + std::to_string(c.iter_begin) + "-" +
                       std::to_string(c.iter_end);
              g.first_start = c.start;
              g.last_end = c.end;
              g.exec_time = c.end - c.start;
              g.counters = c.counters;
              g.core = c.core;
              while (bi < bs.size() && !bs[bi].got_chunk) ++bi;
              if (bi < bs.size()) {
                g.creation_cost = bs[bi].end - bs[bi].start;
                ++bi;
              }
              table.grains_[row++] = std::move(g);
            }
          });
      GG_CHECK(row == chunk_base[l + 1]);
    }
  });

  return table;
}

const Grain* GrainTable::by_path(const std::string& path) const {
  if (index_ == nullptr) return nullptr;  // moved-from table
  std::call_once(index_->once, [&] {
    index_->map.reserve(grains_.size());
    for (size_t i = 0; i < grains_.size(); ++i)
      index_->map.emplace(std::string_view(grains_[i].path), i);
  });
  auto it = index_->map.find(std::string_view(path));
  return it == index_->map.end() ? nullptr : &grains_[it->second];
}

std::vector<const Grain*> GrainTable::children_of(TaskId parent) const {
  std::vector<const Grain*> out;
  for (const Grain& g : grains_) {
    if (g.kind == GrainKind::Task && g.parent == parent) out.push_back(&g);
  }
  std::sort(out.begin(), out.end(), [](const Grain* a, const Grain* b) {
    return a->task < b->task;
  });
  return out;
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
