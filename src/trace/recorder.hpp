// TraceRecorder: low-overhead collection of trace records from concurrent
// workers.
//
// Each worker appends records to its private buffer (no synchronization on
// the hot path — the paper's MIR profiler keeps overhead under 2.5% and so
// must we); finish() merges the buffers into a canonical Trace. String
// interning is the only shared mutable state and is mutex-protected; callers
// cache interned ids per call site.
//
// Crash safety (optional): attach_spool() hooks a spool::SpoolSink into the
// recorder. Appends then count bytes and, once a worker's buffer reaches
// the epoch threshold (or the sink's background flusher requests a
// time-based flush), the buffer is sealed into a checksummed epoch frame on
// disk — see trace/spool.hpp. With no sink attached every append is the
// same single push_back as before; the disabled path produces byte-identical
// traces.
#pragma once

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "trace/spool.hpp"
#include "trace/trace.hpp"

namespace gg {

class TraceRecorder {
 public:
  explicit TraceRecorder(int num_workers);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A handle bound to one worker's private buffer. Cheap to copy; not
  /// usable from other workers.
  class Writer {
   public:
    void task(const TaskRec& r) {
      buf_->tasks.push_back(r);
      on_append(sizeof r);
    }
    void fragment(const FragmentRec& r) {
#ifdef GG_MUT_RECORDER_DROP_FRAGMENT
      // Seeded bug for the mutation smoke-test: the recorder silently drops
      // every task's second fragment, the kind of event-loss bug
      // validate_trace's seq-contiguity check and the cross-engine
      // differential oracle exist to catch. Never enabled in production.
      if (r.seq == 1) return;
#endif
      buf_->fragments.push_back(r);
      on_append(sizeof r);
    }
    void join(const JoinRec& r) {
      buf_->joins.push_back(r);
      on_append(sizeof r);
    }
    void loop(const LoopRec& r) {
      buf_->loops.push_back(r);
      on_append(sizeof r);
    }
    void chunk(const ChunkRec& r) {
      buf_->chunks.push_back(r);
      on_append(sizeof r);
    }
    void bookkeep(const BookkeepRec& r) {
      buf_->bookkeeps.push_back(r);
      on_append(sizeof r);
    }
    void depend(const DependRec& r) {
      buf_->depends.push_back(r);
      on_append(sizeof r);
    }
    void stats(const WorkerStatsRec& r) {
      buf_->worker_stats.push_back(r);
      on_append(sizeof r);
    }

    /// Bytes of record payload held by this worker's buffer — the profiler's
    /// own memory footprint, reported in WorkerStatsRec::trace_bytes and
    /// summed into TraceMeta::trace_buffer_bytes.
    u64 footprint_bytes() const { return buf_->payload_bytes(); }

    /// Total bytes this worker has recorded: the live buffer plus everything
    /// already sealed to the spool. Equals footprint_bytes() when no spool
    /// is attached.
    u64 recorded_bytes() const { return sealed_bytes_ + footprint_bytes(); }

    /// Idle-path hook: seals the buffer if the spool's background flusher
    /// requested a time-based flush. No-op (one branch) without a spool.
    void poll_flush() {
      if (rec_->spool_ != nullptr && rec_->spool_->flush_due(worker_)) seal();
    }

    /// Seals whatever the buffer holds into an epoch frame now.
    void seal() {
      if (rec_->spool_ == nullptr || buf_->empty()) return;
      sealed_bytes_ += footprint_bytes();
      rec_->seal_worker(worker_);
      pending_bytes_ = 0;
    }

   private:
    friend class TraceRecorder;
    Writer(TraceRecorder* rec, u32 worker, spool::RecordBuffer* buf)
        : rec_(rec), worker_(worker), buf_(buf) {}

    void on_append(u64 bytes) {
      if (rec_->spool_ == nullptr) return;
      pending_bytes_ += bytes;
      if (pending_bytes_ >= rec_->spool_epoch_bytes_ ||
          rec_->spool_->flush_due(worker_)) {
        seal();
      }
    }

    TraceRecorder* rec_;
    u32 worker_;
    spool::RecordBuffer* buf_;
    u64 pending_bytes_ = 0;  // buffer bytes since the last seal
    u64 sealed_bytes_ = 0;   // total bytes already spooled by this worker
  };

  Writer writer(int worker);

  /// Attaches a spool sink: subsequent appends seal epoch frames into it.
  /// Must be called before any writer records (typically right after
  /// construction). The sink must outlive the recorder's last append.
  void attach_spool(spool::SpoolSink* sink, u64 epoch_bytes);

  spool::SpoolSink* spool() const { return spool_; }

  /// Thread-safe string interning (cache the result per call site).
  StrId intern(std::string_view s);
  StrId intern_source(std::string_view file, int line, std::string_view func);

  /// Merges all worker buffers into a Trace finalized with `threads`
  /// threads. The recorder is empty afterwards and may be reused.
  Trace finish(TraceMeta meta, int threads = 1);

  /// Spooled finish: seals every worker's remaining buffer, flushes the
  /// string-table tail and writes the clean footer carrying `meta` (with
  /// trace_buffer_bytes set to the total spooled payload). The caller then
  /// recovers the trace from the spool file — one code path for clean and
  /// crashed runs. Requires an attached spool.
  void finish_to_spool(TraceMeta meta);

 private:
  friend class Writer;

  /// Seals one worker's buffer into the sink (string delta first).
  void seal_worker(u32 worker);

  std::vector<std::unique_ptr<spool::RecordBuffer>> buffers_;
  std::mutex strings_mutex_;
  StringTable strings_;
  spool::SpoolSink* spool_ = nullptr;
  u64 spool_epoch_bytes_ = 64 * 1024;
};

}  // namespace gg
