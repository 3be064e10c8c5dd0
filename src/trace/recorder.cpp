#include "trace/recorder.hpp"

#include <utility>

#include "common/check.hpp"

namespace gg {

TraceRecorder::TraceRecorder(int num_workers) {
  GG_CHECK(num_workers >= 1);
  buffers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i)
    buffers_.push_back(std::make_unique<spool::RecordBuffer>());
}

TraceRecorder::Writer TraceRecorder::writer(int worker) {
  GG_CHECK(worker >= 0 && static_cast<size_t>(worker) < buffers_.size());
  return Writer(this, static_cast<u32>(worker),
                buffers_[static_cast<size_t>(worker)].get());
}

void TraceRecorder::attach_spool(spool::SpoolSink* sink, u64 epoch_bytes) {
  spool_ = sink;
  if (epoch_bytes > 0) spool_epoch_bytes_ = epoch_bytes;
}

StrId TraceRecorder::intern(std::string_view s) {
  std::lock_guard lock(strings_mutex_);
  return strings_.intern(s);
}

StrId TraceRecorder::intern_source(std::string_view file, int line,
                                   std::string_view func) {
  std::lock_guard lock(strings_mutex_);
  return intern_src(strings_, file, line, func);
}

void TraceRecorder::seal_worker(u32 worker) {
  spool::RecordBuffer& buf = *buffers_[worker];
  spool_->seal_epoch(worker, buf,
                     [this](u32 from, std::vector<std::string>* out) {
                       std::lock_guard lock(strings_mutex_);
                       for (u32 i = from; i < strings_.size(); ++i)
                         out->push_back(std::string(strings_.get(i)));
                     });
}

Trace TraceRecorder::finish(TraceMeta meta, int threads) {
  Trace trace;
  trace.meta = std::move(meta);
  // Self-measurement: account the recorder's own buffer footprint before the
  // buffers are merged (and freed) into the trace.
  trace.meta.trace_buffer_bytes = 0;
  for (auto& buf : buffers_) trace.meta.trace_buffer_bytes += buf->payload_bytes();
  for (auto& buf : buffers_) buf->move_into(trace);
  {
    std::lock_guard lock(strings_mutex_);
    trace.strings = std::exchange(strings_, StringTable{});
  }
  trace.finalize(threads);
  return trace;
}

void TraceRecorder::finish_to_spool(TraceMeta meta) {
  GG_CHECK(spool_ != nullptr);
  for (u32 w = 0; w < buffers_.size(); ++w) {
    if (!buffers_[w]->empty()) seal_worker(w);
  }
  spool_->flush_strings([this](u32 from, std::vector<std::string>* out) {
    std::lock_guard lock(strings_mutex_);
    for (u32 i = from; i < strings_.size(); ++i)
      out->push_back(std::string(strings_.get(i)));
  });
  // The spooled equivalent of the buffer-footprint self-measurement: total
  // record payload sealed over the run.
  meta.trace_buffer_bytes = spool_->payload_bytes();
  spool_->finish(meta);
  {
    std::lock_guard lock(strings_mutex_);
    strings_ = StringTable{};
  }
  spool_ = nullptr;
}

}  // namespace gg
