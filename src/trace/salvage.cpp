#include "trace/salvage.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace gg {

namespace {

// Removes adjacent records with equal keys (the vectors are in canonical
// finalize() order, which sorts by exactly these keys) and returns the
// number removed.
template <typename Rec, typename Key>
u64 dedup(std::vector<Rec>& recs, const Key& key) {
  const size_t before = recs.size();
  recs.erase(std::unique(recs.begin(), recs.end(),
                         [&](const Rec& a, const Rec& b) {
                           return key(a) == key(b);
                         }),
             recs.end());
  return before - recs.size();
}

template <typename Id>
void note_unrecoverable(std::vector<Id>& list, Id id) {
  if (list.size() >= SalvageReport::kMaxListed) return;
  if (std::find(list.begin(), list.end(), id) == list.end()) list.push_back(id);
}

}  // namespace

bool SalvageReport::any() const {
  return quarantined_tasks || dropped_records || synthesized_task_ends ||
         synthesized_fragments || synthesized_joins || synthesized_chunks ||
         repaired_times || repaired_records || root_synthesized ||
         bounds_extended;
}

double SalvageReport::grain_survival() const {
  if (grains_before == 0) return 1.0;
  return static_cast<double>(grains_after > grains_before ? grains_before
                                                          : grains_after) /
         static_cast<double>(grains_before);
}

std::string SalvageReport::summary() const {
  std::ostringstream os;
  os << "salvage: " << grains_after << "/" << grains_before
     << " grains survived (" << static_cast<int>(grain_survival() * 100.0)
     << "%)";
  if (quarantined_tasks) os << "; quarantined " << quarantined_tasks << " tasks";
  if (!unrecoverable_loops.empty())
    os << "; " << unrecoverable_loops.size() << " unrecoverable loops";
  if (dropped_records) os << "; dropped " << dropped_records << " records";
  if (synthesized_task_ends)
    os << "; closed " << synthesized_task_ends << " open tasks";
  if (synthesized_fragments)
    os << "; synthesized " << synthesized_fragments << " fragments";
  if (synthesized_joins) os << "; synthesized " << synthesized_joins << " joins";
  if (synthesized_chunks)
    os << "; synthesized " << synthesized_chunks << " chunks";
  if (repaired_times) os << "; repaired " << repaired_times << " timestamps";
  if (repaired_records) os << "; repaired " << repaired_records << " fields";
  if (root_synthesized) os << "; synthesized root task";
  if (bounds_extended) os << "; extended region bounds";
  return os.str();
}

SalvageReport salvage_trace(Trace& t) {
  SalvageReport rep;
  t.finalize();  // canonical order for dedup + stable grouping
  rep.grains_before = t.grain_count();

  // --- 1. Exact-duplicate records (duplicated deliveries, double flushes).
  rep.dropped_records += dedup(t.tasks, [](const TaskRec& r) { return r.uid; });
  rep.dropped_records += dedup(t.fragments, [](const FragmentRec& r) {
    return std::make_pair(r.task, r.seq);
  });
  rep.dropped_records += dedup(t.joins, [](const JoinRec& r) {
    return std::make_pair(r.task, r.seq);
  });
  rep.dropped_records += dedup(t.loops, [](const LoopRec& r) { return r.uid; });
  rep.dropped_records += dedup(t.chunks, [](const ChunkRec& r) {
    return std::make_tuple(r.loop, r.thread, r.seq_on_thread);
  });
  rep.dropped_records += dedup(t.bookkeeps, [](const BookkeepRec& r) {
    return std::make_tuple(r.loop, r.thread, r.seq_on_thread);
  });
  rep.dropped_records += dedup(t.depends, [](const DependRec& r) {
    return std::make_pair(r.succ, r.pred);
  });
  rep.dropped_records +=
      dedup(t.worker_stats, [](const WorkerStatsRec& r) { return r.worker; });

  // --- 2. Meta sanity: a corrupted/missing team size is recomputed from the
  // cores the records actually name.
  if (t.meta.num_workers < 1) {
    int max_core = 0;
    for (const FragmentRec& f : t.fragments)
      max_core = std::max(max_core, static_cast<int>(f.core));
    for (const ChunkRec& c : t.chunks)
      max_core = std::max(max_core, static_cast<int>(c.core));
    for (const WorkerStatsRec& s : t.worker_stats)
      max_core = std::max(max_core, static_cast<int>(s.worker));
    t.meta.num_workers = max_core + 1;
    ++rep.repaired_records;
  }

  // --- 3. Root task: tasks are sorted by uid, so a surviving root is first.
  if (t.tasks.empty() || t.tasks.front().uid != kRootTask) {
    TaskRec root;
    root.uid = kRootTask;
    root.parent = kNoTask;
    root.create_time = t.meta.region_start;
    t.tasks.insert(t.tasks.begin(), root);
    rep.root_synthesized = true;
  } else if (t.tasks.front().parent != kNoTask) {
    t.tasks.front().parent = kNoTask;
    ++rep.repaired_records;
  }

  // --- 4. Parent chains: a task is recoverable iff its parent chain reaches
  // the root without gaps or cycles; everything else is quarantined with all
  // of its records.
  std::unordered_map<TaskId, size_t> by_uid;
  by_uid.reserve(t.tasks.size());
  for (size_t i = 0; i < t.tasks.size(); ++i) by_uid.emplace(t.tasks[i].uid, i);

  enum class State : u8 { Unknown, Good, Bad, Visiting };
  std::unordered_map<TaskId, State> state;
  state.reserve(t.tasks.size());
  state[kRootTask] = State::Good;
  auto resolve = [&](TaskId uid) {
    std::vector<TaskId> path;
    TaskId cur = uid;
    State verdict = State::Bad;
    for (;;) {
      auto it = state.find(cur);
      if (it != state.end()) {
        if (it->second == State::Visiting) {
          verdict = State::Bad;  // parent cycle
        } else {
          verdict = it->second;
        }
        break;
      }
      state[cur] = State::Visiting;
      path.push_back(cur);
      const TaskRec& rec = t.tasks[by_uid.at(cur)];
      if (rec.parent == kNoTask || !by_uid.count(rec.parent)) {
        verdict = State::Bad;
        break;
      }
      cur = rec.parent;
    }
    for (TaskId p : path) state[p] = verdict;
    return verdict;
  };
  std::unordered_set<TaskId> alive;
  alive.reserve(t.tasks.size());
  for (const TaskRec& task : t.tasks) {
    if (resolve(task.uid) == State::Good) alive.insert(task.uid);
  }
  if (alive.size() != t.tasks.size()) {
    for (const TaskRec& task : t.tasks) {
      if (!alive.count(task.uid)) {
        ++rep.quarantined_tasks;
        note_unrecoverable(rep.unrecoverable_tasks, task.uid);
      }
    }
    std::erase_if(t.tasks,
                  [&](const TaskRec& task) { return !alive.count(task.uid); });
    by_uid.clear();
    for (size_t i = 0; i < t.tasks.size(); ++i)
      by_uid.emplace(t.tasks[i].uid, i);
  }
  // Records of quarantined or entirely-missing tasks are orphaned grains.
  auto drop_orphans = [&](auto& recs, const auto& task_of) {
    return std::erase_if(recs, [&](const auto& r) {
      if (alive.count(task_of(r))) return false;
      note_unrecoverable(rep.unrecoverable_tasks, task_of(r));
      return true;
    });
  };
  rep.dropped_records +=
      drop_orphans(t.fragments, [](const FragmentRec& f) { return f.task; });
  rep.dropped_records +=
      drop_orphans(t.joins, [](const JoinRec& j) { return j.task; });

  // --- 5. Child indices: renumber each parent's surviving children densely
  // in their recorded creation order.
  {
    std::map<TaskId, std::vector<size_t>> children;
    for (size_t i = 0; i < t.tasks.size(); ++i) {
      if (t.tasks[i].uid != kRootTask) children[t.tasks[i].parent].push_back(i);
    }
    for (auto& [parent, idx] : children) {
      std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        const TaskRec& x = t.tasks[a];
        const TaskRec& y = t.tasks[b];
        return x.child_index != y.child_index ? x.child_index < y.child_index
                                              : x.uid < y.uid;
      });
      for (u32 i = 0; i < idx.size(); ++i) {
        if (t.tasks[idx[i]].child_index != i) {
          t.tasks[idx[i]].child_index = i;
          ++rep.repaired_records;
        }
      }
    }
  }

  // --- 6. Loops: quarantine loops of missing tasks; repair ranges and team
  // sizes; drop chunk/bookkeep records of missing loops.
  {
    std::erase_if(t.loops, [&](const LoopRec& l) {
      if (alive.count(l.enclosing_task)) return false;
      ++rep.dropped_records;
      note_unrecoverable(rep.unrecoverable_loops, l.uid);
      return true;
    });
    std::unordered_set<LoopId> live_loops;
    live_loops.reserve(t.loops.size());
    for (LoopRec& l : t.loops) {
      live_loops.insert(l.uid);
      if (l.iter_end < l.iter_begin) {
        l.iter_end = l.iter_begin;
        ++rep.repaired_records;
      }
    }
    auto drop_loopless = [&](auto& recs) {
      return std::erase_if(recs, [&](const auto& r) {
        if (live_loops.count(r.loop)) return false;
        note_unrecoverable(rep.unrecoverable_loops, r.loop);
        return true;
      });
    };
    rep.dropped_records += drop_loopless(t.chunks);
    rep.dropped_records += drop_loopless(t.bookkeeps);
    // Team sizes must cover every thread the loop's records name.
    std::unordered_map<LoopId, u16> max_thread;
    for (const ChunkRec& c : t.chunks)
      max_thread[c.loop] = std::max(max_thread[c.loop], c.thread);
    for (const BookkeepRec& b : t.bookkeeps)
      max_thread[b.loop] = std::max(max_thread[b.loop], b.thread);
    for (LoopRec& l : t.loops) {
      const u16 need = static_cast<u16>(
          std::max<u32>(max_thread.count(l.uid) ? max_thread[l.uid] + 1u : 1u,
                        1u));
      if (l.num_threads < need) {
        l.num_threads = need;
        ++rep.repaired_records;
      }
    }
  }

  // --- 7. Fragments: per task, truncate after the first TaskEnd, renumber
  // seq densely, clamp intervals into order, repair dangling end refs
  // (synthesizing zero-length joins where needed), and close the last
  // fragment with TaskEnd at its last observed timestamp. Tasks with no
  // surviving fragments get one synthesized zero-length fragment.
  {
    std::unordered_set<LoopId> live_loops;
    for (const LoopRec& l : t.loops) live_loops.insert(l.uid);
    std::unordered_map<TaskId, std::set<u64>> join_seqs;
    for (const JoinRec& j : t.joins) join_seqs[j.task].insert(j.seq);

    std::unordered_map<TaskId, std::vector<FragmentRec>> frags_of;
    for (FragmentRec& f : t.fragments) frags_of[f.task].push_back(f);

    std::vector<FragmentRec> repaired;
    repaired.reserve(t.fragments.size());
    std::vector<JoinRec> synthesized_joins;

    for (const TaskRec& task : t.tasks) {
      auto it = frags_of.find(task.uid);
      if (it == frags_of.end() || it->second.empty()) {
        FragmentRec f;
        f.task = task.uid;
        f.seq = 0;
        f.start = f.end = task.create_time;
        f.core = task.create_core;
        f.end_reason = FragmentEnd::TaskEnd;
        repaired.push_back(f);
        ++rep.synthesized_fragments;
        continue;
      }
      std::vector<FragmentRec>& fr = it->second;  // already in seq order
      // Truncate after the first TaskEnd: anything later belongs to a task
      // the runtime already finished — unusable tail.
      for (size_t i = 0; i < fr.size(); ++i) {
        if (fr[i].end_reason == FragmentEnd::TaskEnd && i + 1 < fr.size()) {
          rep.dropped_records += fr.size() - (i + 1);
          fr.resize(i + 1);
          break;
        }
      }
      auto& seqs = join_seqs[task.uid];
      u64 next_seq = seqs.empty() ? 0 : *seqs.rbegin() + 1;
      auto fresh_join = [&](const FragmentRec& f) -> u64 {
        while (next_seq > std::numeric_limits<u32>::max() || seqs.count(next_seq))
          next_seq = next_seq > std::numeric_limits<u32>::max() ? 0
                                                                : next_seq + 1;
        JoinRec j;
        j.task = task.uid;
        j.seq = static_cast<u32>(next_seq);
        j.start = j.end = f.end;
        j.core = f.core;
        synthesized_joins.push_back(j);
        seqs.insert(next_seq);
        ++rep.synthesized_joins;
        return next_seq++;
      };
      TimeNs prev_end = 0;
      for (size_t i = 0; i < fr.size(); ++i) {
        FragmentRec& f = fr[i];
        if (f.seq != i) {
          f.seq = static_cast<u32>(i);
          ++rep.repaired_records;
        }
        if (f.start < prev_end) {
          f.start = prev_end;
          ++rep.repaired_times;
        }
        if (f.end < f.start) {
          f.end = f.start;
          ++rep.repaired_times;
        }
        prev_end = f.end;
        const bool last = (i + 1 == fr.size());
        if (last) {
          if (f.end_reason != FragmentEnd::TaskEnd) {
            // The closing event was lost (crash mid-task, truncated file):
            // close the task at its last observed timestamp.
            f.end_reason = FragmentEnd::TaskEnd;
            f.end_ref = 0;
            ++rep.synthesized_task_ends;
          }
          continue;
        }
        switch (f.end_reason) {
          case FragmentEnd::TaskEnd:
            break;  // unreachable: truncated above
          case FragmentEnd::Fork: {
            auto child = by_uid.find(f.end_ref);
            if (child == by_uid.end() ||
                t.tasks[child->second].parent != task.uid) {
              f.end_reason = FragmentEnd::Join;
              f.end_ref = fresh_join(f);
            }
            break;
          }
          case FragmentEnd::Loop:
            if (!live_loops.count(f.end_ref)) {
              f.end_reason = FragmentEnd::Join;
              f.end_ref = fresh_join(f);
            }
            break;
          case FragmentEnd::Join:
            if (!seqs.count(f.end_ref)) {
              if (f.end_ref <= std::numeric_limits<u32>::max()) {
                JoinRec j;
                j.task = task.uid;
                j.seq = static_cast<u32>(f.end_ref);
                j.start = j.end = f.end;
                j.core = f.core;
                synthesized_joins.push_back(j);
                seqs.insert(f.end_ref);
                ++rep.synthesized_joins;
              } else {
                f.end_ref = fresh_join(f);
              }
            }
            break;
        }
      }
      // The region's implicit barrier is the root's last join. A root that
      // forked after it lost its barrier join (a crash or a cut before the
      // region ended): its closing fragment synchronizes at a synthesized
      // join again, and a zero-length fragment ends the task.
      if (task.uid == kRootTask && fork_after_last_join(fr) != nullptr) {
        FragmentRec end = fr.back();
        fr.back().end_reason = FragmentEnd::Join;
        fr.back().end_ref = fresh_join(fr.back());
        end.seq = static_cast<u32>(fr.size());
        end.start = end.end;
        end.counters = Counters{};
        fr.push_back(end);
        ++rep.synthesized_fragments;
      }
      repaired.insert(repaired.end(), fr.begin(), fr.end());
    }
    t.fragments.swap(repaired);
    t.joins.insert(t.joins.end(), synthesized_joins.begin(),
                   synthesized_joins.end());
  }

  // --- 8. Chunks: per loop, drop unusable ranges, drop overlaps, and fill
  // coverage holes with synthesized chunks so the surviving chunks partition
  // the iteration range exactly.
  {
    std::unordered_map<LoopId, std::vector<ChunkRec>> chunks_of;
    for (ChunkRec& c : t.chunks) chunks_of[c.loop].push_back(c);
    std::vector<ChunkRec> repaired;
    repaired.reserve(t.chunks.size());
    for (const LoopRec& loop : t.loops) {
      auto it = chunks_of.find(loop.uid);
      std::vector<ChunkRec> cs =
          it == chunks_of.end() ? std::vector<ChunkRec>{} : it->second;
      rep.dropped_records += std::erase_if(cs, [&](const ChunkRec& c) {
        return c.iter_end <= c.iter_begin || c.iter_begin < loop.iter_begin ||
               c.iter_end > loop.iter_end;
      });
      std::sort(cs.begin(), cs.end(), [](const ChunkRec& a, const ChunkRec& b) {
        return a.iter_begin != b.iter_begin ? a.iter_begin < b.iter_begin
                                            : a.iter_end < b.iter_end;
      });
      auto synth = [&](u64 lo, u64 hi) {
        ChunkRec c;
        c.loop = loop.uid;
        c.thread = 0;
        c.core = 0;
        // seq_on_thread rewritten below; times pinned to the loop's own
        // interval (zero-length: no work was observed for these iterations).
        c.iter_begin = lo;
        c.iter_end = hi;
        c.start = c.end = loop.end;
        ++rep.synthesized_chunks;
        return c;
      };
      std::vector<ChunkRec> out;
      u64 cursor = loop.iter_begin;
      for (ChunkRec& c : cs) {
        if (c.iter_begin < cursor) {  // overlaps covered iterations
          ++rep.dropped_records;
          continue;
        }
        if (c.iter_begin > cursor) out.push_back(synth(cursor, c.iter_begin));
        if (c.end < c.start) {
          c.end = c.start;
          ++rep.repaired_times;
        }
        if (c.thread >= loop.num_threads) {
          c.thread = 0;
          ++rep.repaired_records;
        }
        cursor = c.iter_end;
        out.push_back(c);
      }
      if (cursor < loop.iter_end) out.push_back(synth(cursor, loop.iter_end));
      // Re-key per-(loop,thread) counters so synthesized/dropped chunks
      // cannot collide with survivors.
      std::unordered_map<u16, u32> next_on_thread;
      for (ChunkRec& c : out) c.seq_on_thread = next_on_thread[c.thread]++;
      repaired.insert(repaired.end(), out.begin(), out.end());
    }
    t.chunks.swap(repaired);
    // Bookkeep thread ids beyond the (already-raised) team size cannot
    // happen; bookkeeps of live loops survive as-is.
  }

  // --- 9. Dependences: drop edges whose endpoints are gone or whose
  // direction is impossible.
  rep.dropped_records += std::erase_if(t.depends, [&](const DependRec& d) {
    return d.pred >= d.succ || !alive.count(d.pred) || !alive.count(d.succ);
  });

  // --- 10. Worker stats: drop records for workers outside the team, clamp
  // internally-inconsistent counters.
  rep.dropped_records += std::erase_if(t.worker_stats, [&](const WorkerStatsRec& s) {
    return static_cast<int>(s.worker) >= t.meta.num_workers;
  });
  for (WorkerStatsRec& s : t.worker_stats) {
    if (s.steals > s.tasks_executed) {
      s.steals = s.tasks_executed;
      ++rep.repaired_records;
    }
    if (s.tasks_inlined > s.tasks_spawned) {
      s.tasks_inlined = s.tasks_spawned;
      ++rep.repaired_records;
    }
  }

  // --- 11. Region bounds: grow to cover every surviving record (skewed
  // clocks, lost trailers). Never shrink — the recorded makespan may
  // legitimately exceed the busy interval.
  {
    TimeNs lo = std::numeric_limits<TimeNs>::max();
    TimeNs hi = 0;
    auto cover = [&](TimeNs s, TimeNs e) {
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    };
    for (const FragmentRec& f : t.fragments) cover(f.start, f.end);
    for (const ChunkRec& c : t.chunks) cover(c.start, c.end);
    for (const JoinRec& j : t.joins) cover(j.start, j.end);
    for (const LoopRec& l : t.loops) cover(l.start, l.end);
    for (const BookkeepRec& b : t.bookkeeps) cover(b.start, b.end);
    if (t.meta.region_end < t.meta.region_start) {
      t.meta.region_end = t.meta.region_start;
      rep.bounds_extended = true;
    }
    if (lo != std::numeric_limits<TimeNs>::max()) {
      if (lo < t.meta.region_start) {
        t.meta.region_start = lo;
        rep.bounds_extended = true;
      }
      if (hi > t.meta.region_end) {
        t.meta.region_end = hi;
        rep.bounds_extended = true;
      }
    }
  }

  t.finalize();
  rep.grains_after = t.grain_count();
  if (rep.any()) {
    rep.actions.push_back(rep.summary());
    for (TaskId uid : rep.unrecoverable_tasks)
      rep.actions.push_back("unrecoverable task " + std::to_string(uid));
    for (LoopId uid : rep.unrecoverable_loops)
      rep.actions.push_back("unrecoverable loop " + std::to_string(uid));
  }
  return rep;
}

}  // namespace gg
