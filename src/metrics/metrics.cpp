#include "metrics/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/radix_sort.hpp"
#include "common/stats.hpp"
#include "graph/task_walk.hpp"
#include "graph/thread_groups.hpp"
#include "obs/telemetry.hpp"

namespace gg {

namespace {

/// Scatter's pairwise distances sample at most this many siblings of one
/// group, to bound their quadratic cost.
constexpr size_t kScatterSample = 512;

/// Visits the execution intervals of one grain: fragment intervals for
/// tasks, the chunk interval for chunks. Task rows come first, in uid
/// order, so a block of rows reads its task rows' fragments through one
/// forward cursor.
template <class Fn>
void for_each_grain_interval(TaskRuns<FragmentRec>& fragments, const Grain& g,
                             Fn&& fn) {
  if (g.kind == GrainKind::Task) {
    for (const FragmentRec& f : fragments.of(g.task)) fn(f.start, f.end);
  } else {
    fn(g.first_start, g.last_end);
  }
}

TimeNs choose_interval(const Trace& trace, const GrainTable& grains,
                       const MetricOptions& opts) {
  const TimeNs makespan = std::max<TimeNs>(1, trace.makespan());
  std::vector<u64> lengths;
  lengths.reserve(grains.size());
  for (const Grain& g : grains.grains())
    if (g.exec_time > 0) lengths.push_back(g.exec_time);
  TimeNs interval = 0;
  switch (opts.interval) {
    case IntervalPreset::MinGrain:
      interval = stats::min_value(lengths);
      break;
    case IntervalPreset::MedianGrain:
      interval = static_cast<TimeNs>(stats::median(lengths));
      break;
    case IntervalPreset::MinGap: {
      // Smallest positive difference between any grain start and any other
      // grain's end: merge the sorted boundary lists.
      std::vector<TimeNs> starts, ends;
      for (const Grain& g : grains.grains()) {
        starts.push_back(g.first_start);
        ends.push_back(g.last_end);
      }
      std::sort(starts.begin(), starts.end());
      std::sort(ends.begin(), ends.end());
      TimeNs best = makespan;
      for (TimeNs e : ends) {
        auto it = std::lower_bound(starts.begin(), starts.end(), e);
        if (it != starts.end() && *it > e) best = std::min(best, *it - e);
        if (it != starts.begin() && e > *(it - 1))
          best = std::min(best, e - *(it - 1));
      }
      interval = best;
      break;
    }
  }
  if (interval == 0) interval = makespan / 100 + 1;
  // Bound post-processing time.
  const TimeNs floor_interval = (makespan + kMaxIntervals - 1) / kMaxIntervals;
  return std::max<TimeNs>({interval, floor_interval, 1});
}

}  // namespace

double loop_load_balance(const Trace& trace, const LoopRec& loop) {
  const auto chunks = trace.chunks_span(loop.uid);
  if (chunks.empty()) return 1.0;
  TimeNs longest = 0;
  std::vector<u64> chains;  // per-thread summed chunk time, thread order
  for_each_thread_run(chunks, [&](u16, std::span<const ChunkRec> cs) {
    u64 len = 0;
    for (const ChunkRec& c : cs) {
      longest = std::max<TimeNs>(longest, c.end - c.start);
      len += c.end - c.start;
    }
    chains.push_back(len);
  });
  const double med = stats::median(chains);
  if (med <= 0) return 1.0;
  return static_cast<double>(longest) / med;
}

double region_load_balance(const GrainTable& grains, int num_cores,
                           int threads) {
  const auto& table = grains.grains();
  if (table.empty()) return 1.0;
  // Each block's longest grain and per-core busy times, merged in block
  // order: a max and integer sums, the same for every split.
  const size_t cores = static_cast<size_t>(std::max(1, num_cores));
  const size_t nblocks = par_block_count(table.size(), threads);
  std::vector<TimeNs> block_longest(nblocks, 0);
  std::vector<std::vector<u64>> block_busy(nblocks);
  par_for_blocks(table.size(), threads, [&](size_t b, size_t lo, size_t hi) {
    std::vector<u64>& busy = block_busy[b];
    busy.assign(cores, 0);
    TimeNs longest = 0;
    for (size_t i = lo; i < hi; ++i) {
      const Grain& g = table[i];
      longest = std::max(longest, g.exec_time);
      if (g.core < cores) busy[g.core] += g.exec_time;
    }
    block_longest[b] = longest;
  });
  TimeNs longest = 0;
  std::vector<u64> busy(cores, 0);
  for (size_t b = 0; b < nblocks; ++b) {
    longest = std::max(longest, block_longest[b]);
    for (size_t c = 0; c < cores; ++c) busy[c] += block_busy[b][c];
  }
  std::vector<u64> nonzero;
  for (u64 b : busy)
    if (b > 0) nonzero.push_back(b);
  const double med = stats::median(nonzero);
  if (med <= 0) return 1.0;
  return static_cast<double>(longest) / med;
}

double work_deviation(const GrainTable& grains, size_t row,
                      const GrainTable& baseline) {
  const Grain* ref = baseline.by_path(grains.paths()[row]);
  if (ref == nullptr || ref->exec_time == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(grains.grains()[row].exec_time) /
         static_cast<double>(ref->exec_time);
}

MetricsResult compute_metrics(const Trace& trace, const GrainGraph& graph,
                              const GrainTable& grains, const Topology& topo,
                              const MetricOptions& opts,
                              const GrainTable* baseline) {
  MetricsResult res;
  const auto& table = grains.grains();
  const size_t n = table.size();
  const int threads = resolve_threads(opts.threads);
  // GrainMetrics() leaves rows unset: the benefit pass writes every field.
  res.per_grain.resize(n);

  // ---- parallel benefit, mem util, work deviation -------------------------
  // Pure per-grain computation into per-index slots: any partition of the
  // index range produces the same bytes. Total work is summed per block and
  // merged in block order.
  {
    obs::PhaseSpan span("metrics.benefit");
    std::vector<TimeNs> block_work(par_block_count(n, threads), 0);
    par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
      TimeNs work = 0;
      for (size_t i = lo; i < hi; ++i) {
        const Grain& g = table[i];
        GrainMetrics& m = res.per_grain[i];
        const TimeNs cost = g.creation_cost + g.sync_cost;
        m.parallel_benefit = cost == 0
                                 ? std::numeric_limits<double>::infinity()
                                 : static_cast<double>(g.exec_time) /
                                       static_cast<double>(cost);
        m.work_deviation = baseline != nullptr
                               ? work_deviation(grains, i, *baseline)
                               : std::numeric_limits<double>::quiet_NaN();
        m.mem_util = g.counters.stall == 0
                         ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(g.counters.compute) /
                               static_cast<double>(g.counters.stall);
        m.inst_parallelism = 0;
        m.inst_parallelism_optimistic = 0;
        m.scatter = 0.0;
        m.on_critical_path = false;
        work += g.exec_time;
      }
      block_work[b] = work;
    });
    for (const TimeNs work : block_work) res.total_work += work;
  }

  // ---- load balance ---------------------------------------------------------
  {
    obs::PhaseSpan span("metrics.load_balance");
    res.region_load_balance =
        region_load_balance(grains, trace.meta.num_cores, threads);
    std::vector<double> lb(trace.loops.size());
    par_for_each_index(trace.loops.size(), threads, [&](size_t i) {
      lb[i] = loop_load_balance(trace, trace.loops[i]);
    });
    for (size_t i = 0; i < trace.loops.size(); ++i)
      res.loop_load_balance[trace.loops[i].uid] = lb[i];
  }

  // ---- instantaneous parallelism --------------------------------------------
  obs::PhaseSpan par_span("metrics.parallelism");
  const TimeNs interval = choose_interval(trace, grains, opts);
  res.interval_used = interval;
  const TimeNs makespan = std::max<TimeNs>(1, trace.makespan());
  const size_t slots = static_cast<size_t>((makespan + interval - 1) / interval);
  // Each grain contributes its execution intervals to +1/-1 histogram
  // deltas. Blocks accumulate into private diff arrays which are then summed
  // in block order; integer addition is associative and commutative, so the
  // merged histogram is identical for every thread count.
  const size_t nblocks = static_cast<size_t>(std::max(threads, 1));
  std::vector<std::vector<i64>> opt_local(nblocks), con_local(nblocks);
  par_for_blocks(table.size(), threads, [&](size_t b, size_t lo, size_t hi) {
    auto& opt_diff = opt_local[b];
    auto& con_diff = con_local[b];
    opt_diff.assign(slots + 1, 0);
    con_diff.assign(slots + 1, 0);
    TaskRuns<FragmentRec> fragments(trace.fragments, table[lo].task);
    for (size_t i = lo; i < hi; ++i) {
      for_each_grain_interval(fragments, table[i], [&](TimeNs s, TimeNs e) {
        if (e <= s) return;
        // Optimistic: any overlap.
        const size_t o_lo = static_cast<size_t>(s / interval);
        const size_t o_hi = static_cast<size_t>((e - 1) / interval);
        opt_diff[o_lo] += 1;
        opt_diff[std::min(o_hi + 1, slots)] -= 1;
        // Conservative: full overlap only.
        const size_t c_lo = static_cast<size_t>((s + interval - 1) / interval);
        const size_t c_hi_excl = static_cast<size_t>(e / interval);
        if (c_hi_excl > c_lo) {
          con_diff[c_lo] += 1;
          con_diff[std::min(c_hi_excl, slots)] -= 1;
        }
      });
    }
  });
  res.parallelism_optimistic.assign(slots, 0);
  res.parallelism_conservative.assign(slots, 0);
  i64 acc_o = 0, acc_c = 0;
  for (size_t s = 0; s < slots; ++s) {
    for (size_t b = 0; b < nblocks; ++b) {
      if (!opt_local[b].empty()) acc_o += opt_local[b][s];
      if (!con_local[b].empty()) acc_c += con_local[b][s];
    }
    res.parallelism_optimistic[s] = static_cast<u32>(std::max<i64>(0, acc_o));
    res.parallelism_conservative[s] = static_cast<u32>(std::max<i64>(0, acc_c));
  }
  // Per grain: minimum over its overlapping intervals (§3.2). Reads the
  // finished timeline, writes per-grain slots.
  par_for_blocks(table.size(), threads, [&](size_t, size_t lo, size_t hi) {
    TaskRuns<FragmentRec> fragments(trace.fragments, table[lo].task);
    for (size_t i = lo; i < hi; ++i) {
      u32 min_o = std::numeric_limits<u32>::max();
      u32 min_c = std::numeric_limits<u32>::max();
      for_each_grain_interval(fragments, table[i], [&](TimeNs s, TimeNs e) {
        if (e <= s) return;
        const size_t k_lo = static_cast<size_t>(s / interval);
        const size_t k_hi = std::min(static_cast<size_t>((e - 1) / interval),
                                     slots == 0 ? 0 : slots - 1);
        for (size_t k = k_lo; k <= k_hi && k < slots; ++k) {
          min_o = std::min(min_o, res.parallelism_optimistic[k]);
          min_c = std::min(min_c, res.parallelism_conservative[k]);
        }
      });
      if (min_o == std::numeric_limits<u32>::max()) min_o = 0;
      if (min_c == std::numeric_limits<u32>::max()) min_c = 0;
      res.per_grain[i].inst_parallelism_optimistic = static_cast<int>(min_o);
      res.per_grain[i].inst_parallelism = static_cast<int>(min_c);
    }
  });
  par_span.end();

  // ---- scatter ----------------------------------------------------------------
  // A block of its own, so that the sort keys (24 bytes a row) are freed
  // before the critical path allocates its per-node arrays.
  {
    obs::PhaseSpan span("metrics.scatter");
    // Sibling groups: task grains share a parent; chunks share a loop. The
    // stable radix sort of (kind, owner) keys makes each group a contiguous
    // run with its members in ascending row order. Each row is in one group
    // and each group is one block's work, so blocks write disjoint rows.
    const auto sib = sorted_keys(table, threads, [](const Grain& g) {
      return g.kind == GrainKind::Task ? std::pair{u64{0}, u64{g.parent}}
                                       : std::pair{u64{1}, u64{g.loop}};
    });
    const int cores_in_machine = topo.num_cores();
    // Sample and distance buffers, one pair per block, reused by its groups.
    std::vector<std::vector<size_t>> samples(par_block_count(n, threads));
    std::vector<std::vector<double>> block_dists(samples.size());
    par_for_key_runs(sib.get(), n, threads, [&](size_t b, size_t gbegin,
                                                size_t gend) {
      const size_t count = gend - gbegin;
      if (count < 2) return;
      auto member = [&](size_t k) {
        return static_cast<size_t>(sib[gbegin + k].index);
      };
      // Deterministically sample large groups to bound the pairwise cost.
      std::vector<size_t>& sample = samples[b];
      sample.clear();
      if (count > kScatterSample) {
        const size_t stride = count / kScatterSample;
        for (size_t k = 0; k < count; k += stride) sample.push_back(member(k));
      } else {
        for (size_t k = 0; k < count; ++k) sample.push_back(member(k));
      }
      std::vector<double>& dists = block_dists[b];
      dists.clear();
      for (size_t a = 0; a < sample.size(); ++a) {
        for (size_t c = a + 1; c < sample.size(); ++c) {
          int ca = table[sample[a]].core;
          int cb = table[sample[c]].core;
          if (ca >= cores_in_machine) ca = ca % cores_in_machine;
          if (cb >= cores_in_machine) cb = cb % cores_in_machine;
          dists.push_back(static_cast<double>(topo.core_distance(ca, cb)));
        }
      }
      const double med = stats::median_in_place(dists);
      for (size_t k = 0; k < count; ++k)
        res.per_grain[member(k)].scatter = med;
    });
  }

  // ---- critical path + work/span --------------------------------------------
  obs::PhaseSpan cp_span("metrics.critical_path");
  const CriticalPath cp = critical_path(graph);
  res.critical_path_time = cp.length;
  res.avg_parallelism = cp.length == 0
                            ? 0.0
                            : static_cast<double>(res.total_work) /
                                  static_cast<double>(cp.length);
  // Map graph nodes on the path back to grains, by position, per block of
  // the path. Fragments of one task can fall in two blocks, so a mark is an
  // atomic store of the one value any block writes.
  par_for_blocks(cp.nodes.size(), threads,
                 [&](size_t, size_t lo, size_t hi) {
                   for (size_t k = lo; k < hi; ++k) {
                     const auto row =
                         grains.row_of(trace, graph.nodes()[cp.nodes[k]]);
                     if (!row.has_value()) continue;
                     std::atomic_ref<bool>(res.per_grain[*row].on_critical_path)
                         .store(true, std::memory_order_relaxed);
                   }
                 });
  cp_span.end();
  return res;
}

}  // namespace gg
