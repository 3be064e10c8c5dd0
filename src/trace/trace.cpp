#include "trace/trace.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/radix_sort.hpp"

namespace gg {

const char* to_string(ScheduleKind k) {
  switch (k) {
    case ScheduleKind::Static: return "static";
    case ScheduleKind::Dynamic: return "dynamic";
    case ScheduleKind::Guided: return "guided";
  }
  return "?";
}

namespace {

/// True when `recs` is already in key order, i.e. std::stable_sort by the
/// key would leave it as it is.
template <class Rec, class KeyFn>
bool in_key_order(const std::vector<Rec>& recs, int threads, KeyFn key) {
  std::vector<char> ok(par_block_count(recs.size(), threads), 1);
  par_for_blocks(recs.size(), threads, [&](size_t b, size_t lo, size_t hi) {
    for (size_t i = std::max<size_t>(lo, 1); i < hi; ++i) {
      if (key(recs[i]) < key(recs[i - 1])) {
        ok[b] = 0;
        return;
      }
    }
  });
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

/// Puts `recs` in key order, equal keys in arrival order: the order
/// std::stable_sort by the key gives. Input already in that order is left
/// untouched. Otherwise the records are gathered once, in sorted key
/// order, into fresh storage that the gather itself touches first (in
/// parallel), then copied back into the vector's own storage.
template <class Rec, class KeyFn>
void sort_records(std::vector<Rec>& recs, int threads, KeyFn key) {
  if (in_key_order(recs, threads, key)) return;
  const size_t n = recs.size();
  const auto keys = sorted_keys(recs, threads, key);
  std::allocator<Rec> alloc;
  const auto release = [&alloc, n](Rec* p) { alloc.deallocate(p, n); };
  const std::unique_ptr<Rec, decltype(release)> sorted(alloc.allocate(n),
                                                       release);
  par_for_blocks(n, threads, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i)
      std::construct_at(sorted.get() + i, recs[keys[i].index]);
  });
  par_for_blocks(n, threads, [&](size_t, size_t lo, size_t hi) {
    std::copy(sorted.get() + lo, sorted.get() + hi,
              recs.begin() + static_cast<ptrdiff_t>(lo));
  });
}

/// (thread, seq_on_thread) packed into one word, thread first.
u64 thread_seq(u16 thread, u32 seq) {
  return static_cast<u64>(thread) << 32 | seq;
}

}  // namespace

void Trace::finalize(int threads) {
  sort_records(tasks, threads, [](const TaskRec& r) {
    return std::pair{r.uid, u32{0}};
  });
  sort_records(fragments, threads, [](const FragmentRec& r) {
    return std::pair{r.task, r.seq};
  });
  sort_records(joins, threads, [](const JoinRec& r) {
    return std::pair{r.task, r.seq};
  });
  sort_records(loops, threads, [](const LoopRec& r) {
    return std::pair{r.uid, u32{0}};
  });
  sort_records(chunks, threads, [](const ChunkRec& r) {
    return std::pair{r.loop, thread_seq(r.thread, r.seq_on_thread)};
  });
  sort_records(depends, threads, [](const DependRec& r) {
    return std::pair{r.succ, r.pred};
  });
  sort_records(bookkeeps, threads, [](const BookkeepRec& r) {
    return std::pair{r.loop, thread_seq(r.thread, r.seq_on_thread)};
  });
  sort_records(worker_stats, threads, [](const WorkerStatsRec& r) {
    return std::pair{u64{r.worker}, u32{0}};
  });
  finalized_ = true;
}

std::span<const FragmentRec> Trace::fragments_span(TaskId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      fragments.begin(), fragments.end(), uid,
      [](const FragmentRec& f, TaskId v) { return f.task < v; });
  auto hi = std::upper_bound(
      lo, fragments.end(), uid,
      [](TaskId v, const FragmentRec& f) { return v < f.task; });
  return {fragments.data() + (lo - fragments.begin()),
          static_cast<size_t>(hi - lo)};
}

std::span<const JoinRec> Trace::joins_span(TaskId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      joins.begin(), joins.end(), uid,
      [](const JoinRec& j, TaskId v) { return j.task < v; });
  auto hi = std::upper_bound(lo, joins.end(), uid,
                             [](TaskId v, const JoinRec& j) { return v < j.task; });
  return {joins.data() + (lo - joins.begin()), static_cast<size_t>(hi - lo)};
}

std::span<const ChunkRec> Trace::chunks_span(LoopId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      chunks.begin(), chunks.end(), uid,
      [](const ChunkRec& c, LoopId v) { return c.loop < v; });
  auto hi = std::upper_bound(
      lo, chunks.end(), uid,
      [](LoopId v, const ChunkRec& c) { return v < c.loop; });
  return {chunks.data() + (lo - chunks.begin()), static_cast<size_t>(hi - lo)};
}

std::span<const BookkeepRec> Trace::bookkeeps_span(LoopId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      bookkeeps.begin(), bookkeeps.end(), uid,
      [](const BookkeepRec& b, LoopId v) { return b.loop < v; });
  auto hi = std::upper_bound(
      lo, bookkeeps.end(), uid,
      [](LoopId v, const BookkeepRec& b) { return v < b.loop; });
  return {bookkeeps.data() + (lo - bookkeeps.begin()),
          static_cast<size_t>(hi - lo)};
}

const JoinRec* find_join(std::span<const JoinRec> joins, u64 seq) {
  // The span is seq-sorted (Trace::finalize), so the last occurrence is the
  // element before the upper bound. u32 seqs promote losslessly to u64.
  auto hi = std::upper_bound(
      joins.begin(), joins.end(), seq,
      [](u64 v, const JoinRec& j) { return v < j.seq; });
  if (hi == joins.begin()) return nullptr;
  const JoinRec* j = &*(hi - 1);
  return j->seq == seq ? j : nullptr;
}

const JoinRec* implicit_barrier(const Trace& trace) {
  const auto frags = trace.fragments_span(kRootTask);
  for (size_t i = frags.size(); i-- > 0;) {
    if (frags[i].end_reason == FragmentEnd::Join)
      return find_join(trace.joins_span(kRootTask), frags[i].end_ref);
  }
  return nullptr;
}

const FragmentRec* fork_after_last_join(std::span<const FragmentRec> frags) {
  size_t i = frags.size();
  while (i > 0 && frags[i - 1].end_reason != FragmentEnd::Join) --i;
  if (i == 0) return nullptr;
  for (; i < frags.size(); ++i) {
    if (frags[i].end_reason == FragmentEnd::Fork) return &frags[i];
  }
  return nullptr;
}

std::optional<size_t> Trace::task_index(TaskId uid) const {
  if (!finalized_) return std::nullopt;
  // Recorded uids are dense from the root's 0, so a task usually sits at
  // its uid: that position is checked before searching.
  if (uid < tasks.size() && tasks[uid].uid == uid &&
      (uid == 0 || tasks[uid - 1].uid != uid))
    return static_cast<size_t>(uid);
  auto it = std::lower_bound(
      tasks.begin(), tasks.end(), uid,
      [](const TaskRec& t, TaskId v) { return t.uid < v; });
  if (it == tasks.end() || it->uid != uid) return std::nullopt;
  return static_cast<size_t>(it - tasks.begin());
}

std::optional<size_t> Trace::loop_index(LoopId uid) const {
  if (!finalized_) return std::nullopt;
  auto it = std::lower_bound(
      loops.begin(), loops.end(), uid,
      [](const LoopRec& l, LoopId v) { return l.uid < v; });
  if (it == loops.end() || it->uid != uid) return std::nullopt;
  return static_cast<size_t>(it - loops.begin());
}

std::vector<TaskId> Trace::predecessors_of(TaskId uid) const {
  if (!finalized_) return {};
  std::vector<TaskId> out;
  auto lo = std::lower_bound(
      depends.begin(), depends.end(), uid,
      [](const DependRec& d, TaskId v) { return d.succ < v; });
  for (auto it = lo; it != depends.end() && it->succ == uid; ++it)
    out.push_back(it->pred);
  return out;
}

const WorkerStatsRec* Trace::worker_stats_of(u16 worker) const {
  if (!finalized_) return nullptr;
  auto it = std::lower_bound(
      worker_stats.begin(), worker_stats.end(), worker,
      [](const WorkerStatsRec& s, u16 v) { return s.worker < v; });
  if (it == worker_stats.end() || it->worker != worker) return nullptr;
  return &*it;
}

size_t Trace::grain_count() const {
  size_t n = chunks.size();
  for (const TaskRec& t : tasks) {
    if (t.uid != kRootTask) ++n;
  }
  return n;
}

namespace {

/// First note starting with `prefix` followed by a space, with the prefix
/// stripped; "" if absent.
std::string note_with_prefix(const std::vector<std::string>& notes,
                             std::string_view prefix) {
  for (const std::string& n : notes) {
    if (n.size() > prefix.size() && n.compare(0, prefix.size(), prefix) == 0 &&
        n[prefix.size()] == ' ') {
      return n.substr(prefix.size() + 1);
    }
  }
  return {};
}

}  // namespace

bool TraceMeta::recovered() const {
  return !note_with_prefix(notes, "recovered").empty();
}

std::string TraceMeta::recovery_note() const {
  return note_with_prefix(notes, "recovered");
}

std::string TraceMeta::crash_note() const {
  return note_with_prefix(notes, "crash");
}

std::string TraceMeta::supervisor_note() const {
  return note_with_prefix(notes, "supervisor");
}

std::string TraceMeta::recorder_note() const {
  return note_with_prefix(notes, "recorder");
}

std::optional<double> TraceMeta::recorder_overhead_pct() const {
  const std::string note = recorder_note();
  const std::string key = "overhead_pct=";
  const size_t at = note.find(key);
  if (at == std::string::npos) return std::nullopt;
  try {
    return std::stod(note.substr(at + key.size()));
  } catch (...) {
    return std::nullopt;
  }
}

StrId intern_src(StringTable& strings, std::string_view file, int line,
                 std::string_view func) {
  std::string s;
  s.reserve(file.size() + func.size() + 16);
  s += file;
  s += ':';
  s += std::to_string(line);
  s += '(';
  s += func;
  s += ')';
  return strings.intern(s);
}

}  // namespace gg
