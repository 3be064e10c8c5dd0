#include "analysis/recommend.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/binpack.hpp"
#include "common/strings.hpp"

namespace gg {

namespace {

double pct(const Analysis& a, Problem p) {
  return a.problems[static_cast<size_t>(p)].flagged_percent;
}

}  // namespace

std::vector<Recommendation> recommend(const Trace& trace, const Analysis& a) {
  std::vector<Recommendation> recs;
  const size_t grains = a.grains.size();
  if (grains == 0) return recs;

  // ---- Rule 1: low parallel benefit concentrated by definition -----------
  if (pct(a, Problem::LowParallelBenefit) > 25.0) {
    // Find the definition with the most low-benefit grains weighted by
    // count (the paper picks "high prevalence AND heavy work share").
    const SourceProfileRow* culprit = nullptr;
    double best = 0.0;
    for (const SourceProfileRow& r : a.sources) {
      const double weight = r.low_benefit_percent *
                            static_cast<double>(r.grain_count);
      if (weight > best) {
        best = weight;
        culprit = &r;
      }
    }
    if (culprit != nullptr && culprit->low_benefit_percent > 25.0) {
      Recommendation rec;
      rec.headline = "Add a cutoff (or raise grainsize) at " +
                     culprit->source + " — its grains don't pay for their "
                     "own creation.";
      rec.rationale = strings::trim_double(culprit->low_benefit_percent, 1) +
                      "% of its " + std::to_string(culprit->grain_count) +
                      " grains have parallel benefit < 1 (exec time below "
                      "creation + sync cost).";
      rec.paper_ref = "FFT §4.3.3 (cutoffs via fft.c:4680); kdtree §2";
      rec.score = best;
      recs.push_back(std::move(rec));
    }
  }

  // ---- Rule 2: suspicious grain explosion --------------------------------
  if (grains > 100000 ||
      (grains > 1000 && pct(a, Problem::LowParallelBenefit) > 60.0)) {
    Recommendation rec;
    rec.headline = "Verify your cutoffs actually take effect — the grain "
                   "count looks unbounded.";
    rec.rationale = std::to_string(grains) + " grains with " +
                    strings::trim_double(
                        pct(a, Problem::LowParallelBenefit), 1) +
                    "% low parallel benefit; check recursion-depth "
                    "arguments and hard-coded overrides.";
    rec.paper_ref = "376.kdtree §2 (missing depth increment); Strassen "
                    "§4.3.5 (hard-coded cutoff)";
    rec.score = static_cast<double>(grains);
    recs.push_back(std::move(rec));
  }

  // ---- Rule 3: work inflation ---------------------------------------------
  if (pct(a, Problem::WorkInflation) > 25.0) {
    const SourceProfileRow* culprit = nullptr;
    double best = 0.0;
    for (const SourceProfileRow& r : a.sources) {
      const double weight =
          r.inflated_percent * static_cast<double>(r.grain_count);
      if (weight > best) {
        best = weight;
        culprit = &r;
      }
    }
    Recommendation rec;
    rec.headline =
        culprit != nullptr && culprit->inflated_percent > 25.0
            ? "Fix the memory access pattern of " + culprit->source +
                  " (loop order / blocking), then distribute pages "
                  "round-robin across NUMA nodes."
            : "Distribute pages round-robin across NUMA nodes (numactl "
              "--interleave or per-region placement).";
    rec.rationale = strings::trim_double(pct(a, Problem::WorkInflation), 1) +
                    "% of grains run slower than their 1-core baseline "
                    "(work inflation).";
    rec.paper_ref = "Sort §4.3.1 (round-robin pages); 359.botsspar §4.3.2 "
                    "(bmod loop interchange)";
    rec.score = pct(a, Problem::WorkInflation) * static_cast<double>(grains);
    recs.push_back(std::move(rec));
  }

  // ---- Rule 4: irreparably skewed loop -> trim the team -------------------
  for (const LoopRec& loop : trace.loops) {
    const auto it = a.metrics.loop_load_balance.find(loop.uid);
    if (it == a.metrics.loop_load_balance.end() || it->second < 3.0) continue;
    if (loop.sched == ScheduleKind::Dynamic && loop.chunk_param <= 1) {
      std::vector<u64> durations;
      for (const ChunkRec& c : trace.chunks_span(loop.uid))
        durations.push_back(c.end - c.start);
      const int cores =
          min_cores_for_makespan(durations, loop.end - loop.start);
      if (cores < trace.meta.num_workers) {
        Recommendation rec;
        rec.headline =
            "Loop " + std::string(trace.strings.get(loop.src)) +
            " is irreparably imbalanced at chunk size 1 — set "
            "num_threads(" +
            std::to_string(cores) + ") and free the remaining cores.";
        rec.rationale = "load balance " +
                        strings::trim_double(it->second, 1) + " on " +
                        std::to_string(loop.num_threads) +
                        " threads; a bin-packer fits all " +
                        std::to_string(durations.size()) +
                        " chunks into " + std::to_string(cores) +
                        " cores at the same makespan.";
        rec.paper_ref = "Freqmine §4.3.4 (FPGF, 48 -> 7 cores)";
        rec.score = it->second * 1000.0;
        recs.push_back(std::move(rec));
      }
    }
  }

  // ---- Rule 5: scatter ------------------------------------------------------
  if (pct(a, Problem::HighScatter) > 50.0) {
    Recommendation rec;
    rec.headline = "Sibling grains execute across sockets — prefer a "
                   "work-stealing (or locality-aware) scheduler over a "
                   "central queue.";
    rec.rationale = strings::trim_double(pct(a, Problem::HighScatter), 1) +
                    "% of grains have off-socket sibling scatter.";
    rec.paper_ref = "Strassen §4.3.5 (Fig. 11c/d)";
    rec.score = pct(a, Problem::HighScatter) * 100.0;
    recs.push_back(std::move(rec));
  }

  // ---- Rule 6: structurally limited parallelism ---------------------------
  if (pct(a, Problem::LowParallelism) > 40.0 &&
      pct(a, Problem::LowParallelBenefit) < 25.0) {
    Recommendation rec;
    rec.headline = "Parallelism is structurally below the machine size with "
                   "healthy grain sizes — restructure the algorithm or run "
                   "on fewer cores; lowering cutoffs will only destroy "
                   "parallel benefit.";
    rec.rationale = strings::trim_double(pct(a, Problem::LowParallelism), 1) +
                    "% of grains see less instantaneous parallelism than "
                    "the " + std::to_string(trace.meta.num_workers) +
                    " cores used.";
    rec.paper_ref = "Sort §4.3.1 (incurable low parallelism)";
    rec.score = pct(a, Problem::LowParallelism) * 10.0;
    recs.push_back(std::move(rec));
  }

  std::sort(recs.begin(), recs.end(),
            [](const Recommendation& x, const Recommendation& y) {
              return x.score > y.score;
            });
  return recs;
}

std::string render_recommendations(const std::vector<Recommendation>& recs) {
  std::ostringstream os;
  if (recs.empty()) {
    os << "no recommendations: all problem views look healthy\n";
    return os.str();
  }
  os << "=== recommendations ===\n";
  for (size_t i = 0; i < recs.size(); ++i) {
    os << (i + 1) << ". " << recs[i].headline << "\n";
    os << "   evidence: " << recs[i].rationale << "\n";
    os << "   cf. " << recs[i].paper_ref << "\n";
  }
  return os.str();
}

}  // namespace gg
