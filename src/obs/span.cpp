#include "obs/span.hpp"

#include <algorithm>
#include <chrono>

namespace gg::obs {

u64 mono_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 span_ns(const std::vector<SpanRec>& spans, std::string_view name) {
  for (const SpanRec& s : spans) {
    if (s.name == name) return s.end_ns - s.start_ns;
  }
  return 0;
}

void write_chrome_spans(std::ostream& os, const std::vector<SpanRec>& spans) {
  u64 base = ~u64{0};
  for (const SpanRec& s : spans) base = std::min(base, s.start_ns);
  if (spans.empty()) base = 0;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRec& s : spans) {
    if (!first) os << ",";
    first = false;
    const u64 ts = (s.start_ns - base) / 1000;
    const u64 dur = s.end_ns >= s.start_ns ? (s.end_ns - s.start_ns) / 1000 : 0;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"gg\",\"ph\":\"X\""
       << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"pid\":0,\"tid\":"
       << s.tid << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace gg::obs
