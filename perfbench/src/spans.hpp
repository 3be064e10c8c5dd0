// Benchmark-side spans around calls into the program's layers.
//
// A traced run wraps each call the benchmark makes into a layer's public
// API in a Span. Spans are kept in memory and written out once, at exit, as
// Chrome trace-event JSON (loadable in Perfetto). Nothing is recorded in an
// untraced run: a disabled Tracer makes a Span one untaken branch, so the
// end-to-end figures never carry tracing cost.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ggbench {

/// One finished (or still open, end_ns == 0) span. Names are
/// "<layer>.<call>"; the layer is the text before the first dot.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;      ///< 1-based, dense
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t op = 0;      ///< id of the op span this belongs to; 0 = none
  uint32_t tid = 0;     ///< small per-thread index

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t open(const std::string& name, uint64_t parent, uint64_t op,
                bool starts_op);
  void close(uint64_t id);

  /// Copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// Writes the spans as Chrome trace-event JSON; `other_json` becomes the
  /// file's "otherData" object. False with *error on I/O failure.
  bool write_chrome_json(const std::string& path, const std::string& other_json,
                         std::string* error) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and thread_ids_
  std::vector<SpanRecord> spans_;
  std::map<uint64_t, uint32_t> thread_ids_;
};

/// RAII span. `parent` null makes a root span; a span that `starts_op`
/// becomes the op its descendants are attributed to.
class Span {
 public:
  Span(Tracer& tracer, const char* name, const Span* parent,
       bool starts_op = false);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  uint64_t op() const { return op_; }

 private:
  Tracer& tracer_;
  uint64_t id_ = 0;
  uint64_t op_ = 0;
};

/// Self time of every span (index-aligned with `spans`): its duration
/// minus the part of its interval that its child spans cover. Children on
/// other threads may overlap each other; their union is subtracted once.
std::vector<int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Per-op sum of the self times of spans named `name`, in op-id order,
/// with one entry per op span named `op_name` (0 where the op made no such
/// call).
std::vector<double> per_op_self_ns(const std::vector<SpanRecord>& spans,
                                   const std::vector<int64_t>& self_ns,
                                   const std::string& op_name,
                                   const std::string& name);

/// Durations (ns) of every span named `name`.
std::vector<double> durations_ns(const std::vector<SpanRecord>& spans,
                                 const std::string& name);

}  // namespace ggbench
