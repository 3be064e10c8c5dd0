#pragma once

// The task-major walk of a finalized trace: every record of trace.tasks in
// order, each with its uid's fragments in seq order. A duplicated uid's
// records each walk the uid's fragments; fragments of a uid with no task
// record are not walked. The grain graph builder and the grain table's
// synchronization-cost pass walk it, in shards cut by walk_cuts(); passes
// over task rows read each task's records through a TaskRuns cursor.

#include <algorithm>
#include <compare>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace gg {

/// Each task's run of task-sorted records (fragments or joins) for a pass
/// that asks for tasks in uid order: a forward cursor, where
/// Trace::fragments_span and joins_span binary-search every time. Gives the
/// same spans, a duplicated uid's records included.
template <class Rec>
class TaskRuns {
 public:
  TaskRuns(const std::vector<Rec>& recs, TaskId first)
      : recs_(recs),
        at_(static_cast<size_t>(
            std::lower_bound(
                recs.begin(), recs.end(), first,
                [](const Rec& r, TaskId v) { return r.task < v; }) -
            recs.begin())) {}

  /// The records of `uid`, which is at least every uid asked before.
  std::span<const Rec> of(TaskId uid) {
    while (at_ < recs_.size() && recs_[at_].task < uid) ++at_;
    size_t end = at_;
    while (end < recs_.size() && recs_[end].task == uid) ++end;
    return {recs_.data() + at_, end - at_};
  }

 private:
  const std::vector<Rec>& recs_;
  size_t at_;
};

/// A position in the walk: fragment `frag` of the task record at position
/// `task` in trace.tasks. {trace.tasks.size(), 0} is the end.
struct WalkPos {
  size_t task = 0;
  size_t frag = 0;

  auto operator<=>(const WalkPos&) const = default;
};

/// Cuts the walk into `threads` shards of about equal work, or into one
/// below kParForMinItems fragments. Returns one more ascending position
/// than shards, from {0, 0} to the end; shard s is [cuts[s], cuts[s + 1])
/// and may be empty.
///
/// Work is one per fragment, plus the book-keeping and chunk records of the
/// loops each task encloses, spread evenly over that task's fragments. A
/// cut falls only where no forked child is pending: at a task boundary
/// ({task, 0}) or right after a Join-ending fragment, so a shard that
/// starts inside a task's fragments starts with no pending children, as
/// the task's serial walk has there. The cuts are a pure function of the
/// trace and `threads`.
std::vector<WalkPos> walk_cuts(const Trace& trace, int threads);

/// Calls `fn(task, from, to)` for each task record that the walk's shard
/// [lo, hi) covers, in walk order: the shard holds fragments [from, to) of
/// the task's uid, where `to` is SIZE_MAX when it runs to the task's end.
template <class Fn>
void for_each_walk_task(WalkPos lo, WalkPos hi, Fn&& fn) {
  constexpr size_t kToEnd = std::numeric_limits<size_t>::max();
  for (size_t p = lo.task; p <= hi.task; ++p) {
    const size_t from = p == lo.task ? lo.frag : 0;
    const size_t to = p == hi.task ? hi.frag : kToEnd;
    if (from < to) fn(p, from, to);
  }
}

}  // namespace gg
