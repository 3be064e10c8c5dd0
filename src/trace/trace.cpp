#include "trace/trace.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/par_for.hpp"

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

/// A record's sort key, (hi, lo), and its position in the unsorted vector.
template <class Lo>
struct SortKey {
  u64 hi;
  Lo lo;
  u32 index;
};

/// Sorts keys[0, n) by (hi, lo), keeping equal keys in their current
/// order. The keys start in arrival (index) order, so the result is the
/// (hi, lo, index) order: the permutation std::stable_sort by (hi, lo)
/// gives, duplicate keys of a damaged trace included.
///
/// A least-significant-digit radix sort, 11 bits a pass, lo's digits then
/// hi's, skipping every digit in which all keys agree. A pass counts the
/// digits of each par_for_blocks block in parallel, turns the counts into
/// one output offset per (block, digit), and scatters every block in
/// order. Each pass is a stable counting sort whatever the partition, so
/// every thread count gives the same result. Returns the buffer holding
/// the sorted keys.
template <class Key>
std::unique_ptr<Key[]> radix_sort(std::unique_ptr<Key[]> keys, size_t n,
                                  int threads) {
  if (n < 2) return keys;
  constexpr int kDigitBits = 11;
  constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;
  const size_t blocks = par_block_count(n, threads);

  // Bits in which some key differs from the first one.
  std::vector<std::pair<u64, u64>> block_diff(blocks);
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    u64 diff_hi = 0, diff_lo = 0;
    for (size_t i = lo; i < hi; ++i) {
      diff_hi |= keys[i].hi ^ keys[0].hi;
      diff_lo |= static_cast<u64>(keys[i].lo ^ keys[0].lo);
    }
    block_diff[b] = {diff_hi, diff_lo};
  });
  u64 diff_hi = 0, diff_lo = 0;
  for (const auto& [hi, lo] : block_diff) {
    diff_hi |= hi;
    diff_lo |= lo;
  }

  std::unique_ptr<Key[]> scratch;
  std::vector<std::array<size_t, kDigitMask + 1>> offsets(blocks);
  auto pass = [&](auto digit) {
    if (!scratch) scratch = std::make_unique_for_overwrite<Key[]>(n);
    const Key* src = keys.get();
    Key* dst = scratch.get();
    par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
      offsets[b].fill(0);
      for (size_t i = lo; i < hi; ++i) ++offsets[b][digit(src[i])];
    });
    size_t next = 0;
    for (size_t d = 0; d <= kDigitMask; ++d) {
      for (size_t b = 0; b < blocks; ++b) {
        const size_t count = offsets[b][d];
        offsets[b][d] = next;
        next += count;
      }
    }
    par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i)
        dst[offsets[b][digit(src[i])]++] = src[i];
    });
    std::swap(keys, scratch);
  };
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if ((diff_lo >> shift & kDigitMask) == 0) continue;
    pass([shift](const Key& k) {
      return static_cast<size_t>(static_cast<u64>(k.lo) >> shift & kDigitMask);
    });
  }
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if ((diff_hi >> shift & kDigitMask) == 0) continue;
    pass([shift](const Key& k) {
      return static_cast<size_t>(k.hi >> shift & kDigitMask);
    });
  }
  return keys;
}

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

/// The keys of `recs` in sorted order. `key(rec)` returns a (u64, Lo) pair.
template <class Rec, class KeyFn>
auto sorted_keys(const std::vector<Rec>& recs, int threads, KeyFn key) {
  using Lo = decltype(key(recs.front()).second);
  const size_t n = recs.size();
  GG_CHECK(n <= std::numeric_limits<u32>::max());
  auto keys = std::make_unique_for_overwrite<SortKey<Lo>[]>(n);
  par_for_blocks(n, threads, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const auto [k_hi, k_lo] = key(recs[i]);
      keys[i] = {k_hi, k_lo, static_cast<u32>(i)};
    }
  });
  return radix_sort(std::move(keys), n, threads);
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

/// The parent's place in children_index_ order: uid + 1, so the root's
/// parent kNoTask wraps to 0 and sorts first. That keeps the key as narrow
/// as the uids for the radix sort; children_of searches by the same rank.
u64 parent_rank(TaskId parent) { return parent + 1; }

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

  // Task positions in (parent rank, child_index) order.
  const auto child_key = [](const TaskRec& r) {
    return std::pair{parent_rank(r.parent), r.child_index};
  };
  children_index_.resize(tasks.size());
  if (in_key_order(tasks, threads, child_key)) {
    std::iota(children_index_.begin(), children_index_.end(), size_t{0});
  } else {
    const auto keys = sorted_keys(tasks, threads, child_key);
    par_for_blocks(tasks.size(), threads, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) children_index_[i] = keys[i].index;
    });
  }
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

std::optional<size_t> Trace::task_index(TaskId uid) const {
  if (!finalized_) return std::nullopt;
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

std::vector<const FragmentRec*> Trace::fragments_of(TaskId uid) const {
  if (!finalized_) return {};
  std::vector<const FragmentRec*> out;
  auto lo = std::lower_bound(
      fragments.begin(), fragments.end(), uid,
      [](const FragmentRec& f, TaskId v) { return f.task < v; });
  for (auto it = lo; it != fragments.end() && it->task == uid; ++it)
    out.push_back(&*it);
  return out;
}

std::vector<const JoinRec*> Trace::joins_of(TaskId uid) const {
  if (!finalized_) return {};
  std::vector<const JoinRec*> out;
  auto lo = std::lower_bound(joins.begin(), joins.end(), uid,
                             [](const JoinRec& j, TaskId v) { return j.task < v; });
  for (auto it = lo; it != joins.end() && it->task == uid; ++it)
    out.push_back(&*it);
  return out;
}

std::vector<const ChunkRec*> Trace::chunks_of(LoopId uid) const {
  if (!finalized_) return {};
  std::vector<const ChunkRec*> out;
  auto lo = std::lower_bound(chunks.begin(), chunks.end(), uid,
                             [](const ChunkRec& c, LoopId v) { return c.loop < v; });
  for (auto it = lo; it != chunks.end() && it->loop == uid; ++it)
    out.push_back(&*it);
  return out;
}

std::vector<const BookkeepRec*> Trace::bookkeeps_of(LoopId uid) const {
  if (!finalized_) return {};
  std::vector<const BookkeepRec*> out;
  auto lo = std::lower_bound(
      bookkeeps.begin(), bookkeeps.end(), uid,
      [](const BookkeepRec& b, LoopId v) { return b.loop < v; });
  for (auto it = lo; it != bookkeeps.end() && it->loop == uid; ++it)
    out.push_back(&*it);
  return out;
}

std::vector<const TaskRec*> Trace::children_of(TaskId uid) const {
  if (!finalized_) return {};
  auto lo = std::lower_bound(
      children_index_.begin(), children_index_.end(), parent_rank(uid),
      [this](size_t i, u64 rank) {
        return parent_rank(tasks[i].parent) < rank;
      });
  std::vector<const TaskRec*> out;
  for (auto it = lo; it != children_index_.end() && tasks[*it].parent == uid;
       ++it) {
    out.push_back(&tasks[*it]);
  }
  return out;
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
