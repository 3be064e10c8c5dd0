// Incremental spool ingestion: fold GGSPOOL1 frames into a growing Trace
// one frame at a time, without re-parsing the stream from byte 0.
//
// This is the refactor that turns batch spool recovery into a streaming
// primitive. recover_spool_bytes() (trace/spool.hpp) and the live tailer
// (src/serve/tailer.hpp) both drive this class, so a long-running ingestion
// daemon makes byte-for-byte the same keep/skip/degrade decisions as a
// post-mortem `gganalyze --recover` over the same stream — the equivalence
// the serve chaos test pins.
//
// Contract (identical to batch recovery):
//  * a frame whose checksum fails is skipped and counted in frames_corrupt
//    — except telemetry ('T') frames, which are advisory and degrade to
//    telemetry_corrupt without damaging the trace;
//  * per-worker epoch seqs grow monotonically from 0; a forward jump (the
//    epochs a skipped frame carried) is tolerated and counted in
//    epoch_gaps, so one bad frame loses one epoch, not the rest of the
//    worker's stream; a backward/duplicate seq is skipped as out-of-order;
//  * string deltas must extend the table contiguously;
//  * finish() stamps the same provenance notes and region repair that
//    batch recovery stamps, then finalizes the trace.
#pragma once

#include <string_view>
#include <vector>

#include "trace/spool.hpp"

namespace gg::spool {

/// What apply_frame() did with a frame — the tailer's signal for epoch
/// accounting, session sealing, and crash detection.
enum class FrameOutcome : u8 {
  Applied,            ///< folded into the trace (meta/strings/epoch/dump)
  Footer,             ///< clean footer applied: the writer shut down cleanly
  CrashFooter,        ///< crash provenance recorded: the writer died flushing
  Telemetry,          ///< telemetry snapshot kept (advisory)
  CorruptSkipped,     ///< checksum/decode failure, counted in frames_corrupt
  OutOfOrderSkipped,  ///< backward epoch seq / non-extending strings delta
  TelemetryCorrupt,   ///< corrupt 'T' frame: telemetry degraded, trace intact
};

/// One stream's accumulating recovery state. Construct once per spool,
/// apply frames in file order as they seal, call finish() at end-of-stream
/// (clean footer, crashed writer, or session eviction).
class IncrementalTrace {
 public:
  explicit IncrementalTrace(u32 num_workers);

  /// Applies one frame whose header was readable and whose payload is fully
  /// present. Verifies the checksum, then dispatches on type with exactly
  /// the batch-recovery semantics. `offset` is the frame's position in the
  /// stream, used verbatim in diagnostics so live and batch reports match.
  FrameOutcome apply_frame(FrameType type, u32 worker, u32 seq,
                           std::string_view payload, u64 stored_checksum,
                           u64 offset);

  // End-of-stream tail accounting, batch-identical wording. The batch scan
  // calls these the moment it hits the condition; a live tailer calls them
  // only once the condition is final (writer dead / session evicted),
  // because a live tail in the same state may legitimately still grow.
  void note_torn_header(u64 offset);   ///< < kFrameHeaderBytes remain
  void note_garbled_magic(u64 offset); ///< bytes at offset are not "GGSF"
  void note_overrun(u64 offset, u64 payload_len);  ///< len exceeds the file

  /// Live-tail escalation (no batch equivalent): a frame stuck at `offset`
  /// past the torn-tail deadline while later valid frames already exist in
  /// the stream — proof the damage is not an in-flight write. Counted as
  /// one corrupt frame; ingestion resumes at `resume_offset`, so one bad
  /// frame loses one epoch, not the session. Batch recovery over the same
  /// final bytes stops at such damage instead; the serve layer therefore
  /// only claims batch parity for streams whose damage sits at EOF.
  void note_abandoned(u64 offset, u64 resume_offset);

  bool have_meta() const { return have_meta_; }
  u32 num_workers() const { return num_workers_; }
  bool clean_footer() const { return report_.clean_footer; }
  bool crashed() const { return !report_.crash_reason.empty(); }
  u64 epochs_applied() const;

  /// Approximate heap footprint of the accumulated records and strings —
  /// the unit the serve admission budget charges per session.
  u64 resident_bytes() const { return resident_bytes_; }

  const RecoverReport& report() const { return report_; }
  RecoverReport& report() { return report_; }

  /// The accumulating trace. Records are in stream arrival order and NOT
  /// finalized until finish(); live mid-session queries must copy, then
  /// extend_region_to_records() + finalize the copy.
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  /// End of stream: synthesizes meta defaults when the 'M' frame was lost,
  /// repairs region bounds when the footer is missing, stamps recovered/
  /// crash/supervisor provenance notes, finalizes with `threads` threads.
  /// Returns false when nothing recoverable was ingested (no meta, no
  /// records). Idempotent.
  bool finish(int threads = 1);
  bool finished() const { return finished_; }

  /// Extends meta.region_end over every recovered record — what finish()
  /// does for a footer-less stream. Public so live queries on a session
  /// that is still tailing bound the region the same way.
  static void extend_region_to_records(Trace& t);

 private:
  Trace trace_;
  RecoverReport report_;
  std::vector<u32> next_seq_;
  u32 num_workers_ = 0;
  u64 resident_bytes_ = 0;
  bool have_meta_ = false;
  bool finished_ = false;
  bool usable_ = false;
};

}  // namespace gg::spool
