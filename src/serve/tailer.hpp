// Polling spool tailer: the serve layer's ingestion edge.
//
// One SpoolTailer follows one live .ggspool file, reading newly appended
// bytes, delimiting them with the walker batch recovery uses
// (spool::next_frame) and folding every complete frame into an
// IncrementalTrace (trace/incremental.hpp) — the exact applier batch
// recovery uses, so the tail converges on the same trace a post-mortem
// load of the final file (load_trace_file_ex) would build.
//
// The robustness contract:
//  * A partially written frame at EOF is "in progress", not corrupt. The
//    tailer waits for the rest, retrying with bounded exponential backoff
//    (retry_initial_ns doubling to retry_max_ns, reset on growth), so an
//    idle spool costs ~0 CPU.
//  * A tail stuck past torn_deadline_ns is escalated ONLY when a later
//    checksum-valid frame is already visible in the stream — proof the
//    damage is not an in-flight write. Escalation abandons the stuck span
//    (one corrupt frame in the report) and resyncs at the valid header, so
//    one bad frame loses one epoch, not the session.
//  * A stuck tail at true EOF (the writer died mid-write) is never
//    escalated by the tailer itself; the session layer detects writer
//    death (crash footer / staleness) and calls finalize(), which maps the
//    unresolved tail to the batch-identical torn-tail diagnostics.
//
// poll() takes the current time as a parameter; tests drive a fake clock
// through the whole backoff/deadline state machine deterministically.
#pragma once

#include <memory>
#include <string>

#include "trace/incremental.hpp"

namespace gg::serve {

struct TailerOptions {
  /// First retry delay after an incomplete tail or an idle poll.
  u64 retry_initial_ns = 2'000'000;
  /// Backoff cap. Defaults to the spool sink's flush interval — polling
  /// faster than the writer flushes buys nothing.
  u64 retry_max_ns = 50'000'000;
  /// How long a tail may stay torn before it is eligible for escalation
  /// (and even then only past a later valid frame; see above).
  u64 torn_deadline_ns = 5'000'000'000;
};

enum class TailState : u8 {
  Opening,    ///< file not successfully opened yet (may not exist yet)
  Header,     ///< waiting for the complete spool header
  Streaming,  ///< caught up or mid-apply; tail is healthy
  Waiting,    ///< incomplete/stuck tail; backing off before the next read
  Sealed,     ///< clean footer applied: the writer shut down cleanly
  Crashed,    ///< crash footer applied: the writer died flushing
  Failed,     ///< unrecoverable stream (bad magic, implausible header)
};

const char* tail_state_name(TailState s);

struct TailStats {
  u64 bytes_consumed = 0;  ///< stream offset fully applied
  u64 frames_applied = 0;  ///< frames handed to the IncrementalTrace
  u64 reads = 0;           ///< pread() batches that returned new bytes
  u64 idle_polls = 0;      ///< polls skipped by backoff (the ~0-CPU path)
  u64 resyncs = 0;         ///< stuck tails abandoned past the deadline
};

class SpoolTailer {
 public:
  explicit SpoolTailer(std::string path, TailerOptions opts = {});
  ~SpoolTailer();

  SpoolTailer(const SpoolTailer&) = delete;
  SpoolTailer& operator=(const SpoolTailer&) = delete;

  /// One poll at `now_ns`: honor the backoff schedule, read appended
  /// bytes, apply complete frames, update the torn-tail state machine.
  /// Returns the number of frames applied this round.
  size_t poll(u64 now_ns);

  TailState state() const { return state_; }
  const TailStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }
  const std::string& fail_reason() const { return fail_reason_; }

  /// Earliest time the next poll() will actually read; before that it is
  /// an idle no-op. ~0 when the tailer wants to read immediately.
  u64 next_poll_ns() const { return next_poll_ns_; }

  /// Last file size observed (bytes). 0 before the first successful read.
  u64 file_size() const { return file_size_; }

  /// True once the file ends in a frame the backoff machinery is waiting
  /// out (torn payload, short header, garbled magic or overrun length).
  bool tail_stuck() const { return stuck_ != spool::Step::End; }

  /// Buffered-but-unapplied bytes plus the accumulated trace footprint —
  /// what the admission budget charges for this stream.
  u64 resident_bytes() const;

  /// The accumulating trace; nullptr until the spool header was parsed.
  spool::IncrementalTrace* trace() { return inc_.get(); }
  const spool::IncrementalTrace* trace() const { return inc_.get(); }

  /// End of life — the session layer decided the writer is gone (clean
  /// footer, crash footer, staleness, eviction). Maps any unresolved tail
  /// to the batch-identical diagnostics and finish()es the trace. Returns
  /// false when nothing recoverable was ingested. Idempotent.
  bool finalize();
  bool finalized() const { return finalized_; }

 private:
  bool ensure_open();
  size_t drain(u64 now_ns);
  void set_stuck(spool::Step kind, u64 offset, u64 len, u64 now_ns);
  bool try_resync();
  void schedule_retry(u64 now_ns, bool made_progress);

  std::string path_;
  TailerOptions opts_;
  int fd_ = -1;
  std::unique_ptr<spool::IncrementalTrace> inc_;
  std::string pending_;  ///< unapplied stream bytes, starting at base_
  u64 base_ = 0;         ///< file offset of pending_[0]
  u64 file_size_ = 0;
  TailState state_ = TailState::Opening;
  /// Where the last walk stopped short of the pending bytes' end; End
  /// while the tail sits on a frame boundary.
  spool::Step stuck_ = spool::Step::End;
  u64 stuck_off_ = 0;
  u64 stuck_len_ = 0;
  u64 stuck_since_ns_ = 0;
  u64 next_poll_ns_ = 0;
  u64 backoff_ns_ = 0;
  std::string fail_reason_;
  TailStats stats_;
  bool header_done_ = false;
  bool finalized_ = false;
  bool usable_ = false;
};

}  // namespace gg::serve
