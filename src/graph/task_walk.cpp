#include "graph/task_walk.hpp"

#include "common/par_for.hpp"

namespace gg {

namespace {

/// Whether a shard may start at fragment `j` of the sorted fragments: at
/// either end, at the first fragment of a uid, or right after a join.
bool cut_allowed(const std::vector<FragmentRec>& frags, size_t j) {
  return j == 0 || j == frags.size() || frags[j].task != frags[j - 1].task ||
         frags[j - 1].end_reason == FragmentEnd::Join;
}

/// First position in `recs` (sorted by `key`) whose key is at least `v`.
template <class Rec, class Key>
size_t first_at_least(const std::vector<Rec>& recs, u64 v, Key key) {
  return static_cast<size_t>(
      std::lower_bound(recs.begin(), recs.end(), v,
                       [&](const Rec& r, u64 x) { return key(r) < x; }) -
      recs.begin());
}

/// The fragments [lo, hi) of one task that encloses loops, and the
/// book-keeping and chunk records of those loops.
struct LoopTask {
  size_t lo, hi;
  u64 records;
};

/// Every task that encloses a loop, in fragment order. Loops are
/// uid-sorted, and so are their records, so a run of loops with one
/// enclosing task owns the records between the run's first uid and the
/// next run's: four searches per run, not two per loop.
std::vector<LoopTask> loop_tasks(const Trace& trace) {
  const auto& loops = trace.loops;
  const auto on_loop = [](const auto& r) -> u64 { return r.loop; };
  const auto on_task = [](const FragmentRec& f) -> u64 { return f.task; };
  const auto records_from = [&](size_t l) -> u64 {
    if (l == loops.size()) return trace.bookkeeps.size() + trace.chunks.size();
    return first_at_least(trace.bookkeeps, loops[l].uid, on_loop) +
           first_at_least(trace.chunks, loops[l].uid, on_loop);
  };
  std::vector<LoopTask> out;
  for (size_t a = 0; a < loops.size();) {
    size_t b = a + 1;
    const TaskId task = loops[a].enclosing_task;
    while (b < loops.size() && loops[b].enclosing_task == task) ++b;
    const size_t lo = first_at_least(trace.fragments, task, on_task);
    const size_t hi = first_at_least(trace.fragments, task + 1, on_task);
    if (lo < hi) out.push_back({lo, hi, records_from(b) - records_from(a)});
    a = b;
  }
  std::sort(out.begin(), out.end(),
            [](const LoopTask& x, const LoopTask& y) { return x.lo < y.lo; });
  // A task whose loops are not one uid run appears once per run.
  size_t kept = 0;
  for (const LoopTask& lt : out) {
    if (kept > 0 && out[kept - 1].lo == lt.lo) {
      out[kept - 1].records += lt.records;
    } else {
      out[kept++] = lt;
    }
  }
  out.resize(kept);
  return out;
}

/// The fragment that holds unit `target` of the walk's work (below the
/// total), where work is one per fragment plus each loop task's records
/// spread evenly over its fragments.
size_t fragment_at(const std::vector<LoopTask>& heavy, u64 target) {
  u64 before = 0;  // work before fragment `at`
  size_t at = 0;
  for (const LoopTask& lt : heavy) {
    if (target < before + (lt.lo - at)) break;
    before += lt.lo - at;
    at = lt.lo;
    const u64 len = lt.hi - lt.lo;
    if (target >= before + len + lt.records) {
      before += len + lt.records;
      at = lt.hi;
      continue;
    }
    // Work before fragment lo + x is x + records * x / len; find the last
    // x at which it is not past the target.
    const auto work_before = [&](u64 x) { return x + lt.records * x / len; };
    u64 lo = 0, hi = len;  // work_before(lo) <= target - before < at hi
    while (hi - lo > 1) {
      const u64 mid = lo + (hi - lo) / 2;
      if (work_before(mid) <= target - before) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lt.lo + lo;
  }
  return at + (target - before);
}

}  // namespace

std::vector<WalkPos> walk_cuts(const Trace& trace, int threads) {
  const auto& frags = trace.fragments;
  const auto& tasks = trace.tasks;
  const size_t n = frags.size();
  // A small trace is one shard: thread start-up would cost more than the
  // walk.
  const size_t t = n < kParForMinItems
                       ? 1
                       : static_cast<size_t>(std::max(threads, 1));
  std::vector<WalkPos> cuts(t + 1, WalkPos{tasks.size(), 0});
  cuts[0] = WalkPos{0, 0};
  if (t == 1) return cuts;

  // The walk visits fragments in their sorted order (on damaged traces it
  // walks a duplicated uid's twice and skips an orphan run), so the cuts
  // are placed on the fragment vector. Counting each loop's records on its
  // enclosing task, spread evenly over the task's fragments, needs no pass
  // over the fragments; inside such a task a cut lands as if its loops were
  // evenly spaced.
  const std::vector<LoopTask> heavy = loop_tasks(trace);
  u64 total = n;
  for (const LoopTask& lt : heavy) total += lt.records;

  // Cut s starts at the fragment that holds work total * s / t, or at the
  // first place after it where a shard may start: the scans run in
  // parallel, since a task that joins rarely makes them long.
  par_for_shard(t - 1, [&](size_t k) {
    const size_t s = k + 1;
    size_t j = fragment_at(heavy, total * s / t);
    while (!cut_allowed(frags, j)) ++j;
    if (j == n) return;  // cuts[s] is already the end
    const TaskId uid = frags[j].task;
    const size_t p = first_at_least(
        tasks, uid, [](const TaskRec& r) -> u64 { return r.uid; });
    if (p == tasks.size() || tasks[p].uid != uid) {
      cuts[s] = WalkPos{p, 0};  // an orphan run: the next task record
      return;
    }
    const size_t first = first_at_least(
        frags, uid, [](const FragmentRec& f) -> u64 { return f.task; });
    cuts[s] = WalkPos{p, j - first};
  });
  return cuts;
}

}  // namespace gg
