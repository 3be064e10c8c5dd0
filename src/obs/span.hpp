// Span tracer: scoped RAII spans over the tool's *own* execution phases
// (parse, graph build, grain derivation, metric passes, exporters), with
// thread attribution, exportable as a Chrome trace-event file.
//
// Spans are coarse (one per pipeline phase, not per record), so a mutexed
// append at span end is cheap; the constructor takes no lock at all.
#pragma once

#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gg::obs {

/// Steady-clock nanoseconds (the span/telemetry timebase — monotonic,
/// comparable across threads, unrelated to the traced program's clock).
u64 mono_ns();

struct SpanRec {
  std::string name;
  int tid = 0;      ///< obs::thread_index() of the emitting thread
  u64 start_ns = 0; ///< mono_ns at entry
  u64 end_ns = 0;   ///< mono_ns at exit
};

class SpanTracer {
 public:
  void record(std::string name, int tid, u64 start_ns, u64 end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(SpanRec{std::move(name), tid, start_ns, end_ns});
  }

  std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
};

/// Wall time of the first recorded span named `name` (end - start, in ns),
/// or 0 when there is none. A phase that runs again later, such as the
/// second analyze() of `gganalyze --compare`, keeps its first run's time.
u64 span_ns(const std::vector<SpanRec>& spans, std::string_view name);

/// Chrome trace-event JSON ("X" complete events, microsecond units) — load
/// in chrome://tracing or Perfetto. Timestamps are rebased to the earliest
/// span so the viewer starts at t=0.
void write_chrome_spans(std::ostream& os, const std::vector<SpanRec>& spans);

}  // namespace gg::obs
