// Incremental spool ingestion: fold GGSPOOL1 frames into a growing Trace
// batch by batch, without re-parsing the stream from byte 0.
//
// This is the refactor that turns batch spool recovery into a streaming
// primitive. Three drivers feed apply_frames() the frames the one walker
// (spool::next_frame) delimits: recover_spool_bytes() (trace/spool.hpp)
// passes every frame of the stream at recovery's thread count, the live
// tailer (src/serve/tailer.hpp) each drain's frames at one thread, and the
// GGWIRE1 ingest (src/serve/ingest.hpp) one frame at a time. So a
// long-running ingestion daemon makes byte-for-byte the same
// keep/skip/degrade decisions as a post-mortem load of the same stream
// (load_trace_file_ex, trace/serialize.hpp) — the equivalence the serve
// chaos and wire parity tests pin.
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
//  * the driver stops at the walker's footer (FrameStep::footer) and
//    applies nothing after it;
//  * finish() stamps the same provenance notes and region repair that
//    batch recovery stamps, then finalizes the trace.
// Every decision, diagnostic and record position is the same whatever the
// thread count and however a stream is cut into apply_frames() calls.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "trace/spool.hpp"

namespace gg::spool {

/// Below this many bytes of frames, apply_frames() verifies and places on
/// the caller alone: thread start-up would cost more than it saves. A
/// live session's batches and small spools (a few thousand grains) stay
/// under it.
inline constexpr u64 kParallelApplyBytes = u64{1} << 20;

/// The number of blocks apply_frames() splits `bytes` of frames into at
/// `threads` threads: 1 at one thread or below kParallelApplyBytes, else
/// `threads`.
size_t apply_block_count(u64 bytes, int threads);

/// One stream's accumulating recovery state. Construct once per spool,
/// apply frames in file order as they seal, call finish() at end-of-stream
/// (clean footer, crashed writer, or session eviction).
class IncrementalTrace {
 public:
  explicit IncrementalTrace(u32 num_workers);

  /// Applies whole frames (Step::Frame) that follow the ones applied so
  /// far, in stream order, in three passes:
  ///  1. verify, in parallel over frames: every checksum, and for each 'E'
  ///     frame its counts against its bytes and every record's codec fault
  ///     check (spool::check_epoch_payload), allocating nothing;
  ///  2. apply, serially in frame order: the keep/skip/degrade decisions,
  ///     from pass 1's verdicts, checked in the order checksum, worker
  ///     range, backward seq, decodes, gap. 'M'/'S'/'D'/'C'/'F'/'T' frames
  ///     take effect here; each kept epoch gets its offset in every record
  ///     vector, and each vector then grows once;
  ///  3. place, in parallel over the kept epochs: decode each straight into
  ///     its slots (spool::place_epoch_payload).
  /// Passes 1 and 3 split their frames into apply_block_count() blocks of
  /// about equal bytes, one thread each. A frame's offset is its position
  /// in the stream, used verbatim in diagnostics so live and batch reports
  /// match.
  void apply_frames(std::span<const FrameStep> frames, int threads);

  /// End-of-stream tail accounting, batch-identical wording, for where the
  /// walk stopped: nothing for Step::End or the footer frame, else a
  /// torn-header, garbled-magic or overrun note (a torn payload reads as an
  /// overrun of the file). The
  /// batch walk calls this the moment it stops; a live tailer calls it only
  /// once the tail is final (writer dead / session evicted), because a live
  /// tail in the same state may legitimately still grow.
  void note_tail(Step step, u64 offset, u64 payload_len);

  /// Live-tail escalation (no batch equivalent): a frame stuck at `offset`
  /// past the torn-tail deadline while later valid frames already exist in
  /// the stream — proof the damage is not an in-flight write. Counted as
  /// one corrupt frame; ingestion resumes at `resume_offset`, so one bad
  /// frame loses one epoch, not the session. Batch recovery over the same
  /// final bytes stops at such damage instead; the serve layer therefore
  /// only claims batch parity for streams whose damage sits at EOF.
  void note_abandoned(u64 offset, u64 resume_offset);

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
  struct Verdict;
  struct Placement;
  /// Pass 2 of apply_frames for one frame: decides it from pass 1's
  /// verdict and, when it is a kept epoch, queues its placement at `end`,
  /// the record vectors' sizes so far, and advances `end` past it.
  void decide(const FrameStep& frame, const Verdict& verdict,
              RecordCounts& end, std::vector<Placement>& placements);

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
