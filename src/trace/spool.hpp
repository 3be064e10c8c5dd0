// Crash-safe trace spooling: epoch frames, the spool sink, and recovery.
//
// The in-memory TraceRecorder is all-or-nothing: a crashed, killed or hung
// run loses every record — exactly the runs an analyst most needs to see.
// The spool closes that gap. Workers still append to private buffers (the
// hot path stays unsynchronized, the paper's <2.5% overhead budget holds);
// periodically each buffer is *sealed* into a length-prefixed, checksummed
// epoch frame and appended to a per-run spool file. By default sealed
// frames are written through immediately ("durable epochs"), so a SIGKILL
// loses at most the one epoch per worker that was still accumulating;
// SIGSEGV/SIGABRT/SIGTERM and std::terminate additionally get an
// async-signal-safe emergency flush that appends any already-framed bytes
// plus a crash-provenance footer before the process dies.
//
// File layout ("GGSPOOL1" format):
//   header:  "GGSPOOL1\n" + u32 num_workers        (all integers LE)
//   frames:  u32 "GGSF" | u8 type | u32 worker | u32 seq |
//            u64 payload_len | u64 checksum | payload
// Frame types:
//   'M' meta          initial TraceMeta snapshot (program, team, clocks)
//   'S' string delta  newly-interned strings [first_id, first_id+count)
//   'E' epoch         one sealed per-worker record batch, seq-numbered
//   'D' dump          supervisor diagnostic text (hang/stall report)
//   'C' crash footer  crash provenance (signal / terminate / abort)
//   'F' clean footer  final TraceMeta; only a clean shutdown writes it
//   'T' telemetry     periodic self-telemetry snapshot (opaque payload,
//                     encoded by obs/exposition; see docs/FORMATS.md).
//                     Advisory only: a corrupt 'T' frame degrades to
//                     "telemetry unavailable", never to a damaged trace.
// The checksum is FNV-1a 64 over (type, worker, seq, payload) — cheap,
// async-signal-safe, and strong enough to reject torn or bit-flipped
// frames with the corpus's adversarial inputs.
//
// Recovery (recover_spool_*) replays the longest valid prefix: frames with
// bad checksums are skipped, a torn tail stops the scan, per-worker epoch
// sequence numbers must grow monotonically from 0 (a forward gap — epochs
// lost to a skipped frame — is tolerated and counted, so one bad frame
// loses one epoch, not the rest of the worker's stream; a backward or
// duplicate seq is skipped as out-of-order). A missing 'F' footer marks the
// trace as recovered/partial and stamps crash provenance into
// TraceMeta::notes, which reports surface (TraceMeta::recovered()).
// Every reader delimits frames with one walker (next_frame below), and
// the per-frame decisions live in trace/incremental.hpp
// (IncrementalTrace::apply_frames), which batch recovery here, the live
// tailer and the GGWIRE1 ingest (src/serve/) all drive — streaming
// ingestion, network ingestion and post-mortem recovery agree by
// construction. Recovery verifies checksums and decodes epochs in
// parallel, but decides what to keep serially, in frame order.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace gg::obs {
class Registry;
class Counter;
class Histogram;
}  // namespace gg::obs

namespace gg::spool {

// --- format constants -------------------------------------------------------

inline constexpr std::string_view kSpoolMagic = "GGSPOOL1\n";
/// The stream header: the magic, then the u32 worker count.
inline constexpr size_t kStreamHeaderBytes = kSpoolMagic.size() + 4;
inline constexpr char kFrameMagic[4] = {'G', 'G', 'S', 'F'};
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4 + 4 + 8 + 8;
/// A header declaring a longer payload is an overrun, never a frame.
inline constexpr u64 kMaxFramePayload = 1ull << 30;

enum class FrameType : u8 {
  Meta = 'M',
  Strings = 'S',
  Epoch = 'E',
  Dump = 'D',
  CrashFooter = 'C',
  CleanFooter = 'F',
  Telemetry = 'T',
};

/// FNV-1a 64: the frame checksum. Loop-only, noexcept, async-signal-safe.
u64 fnv1a(const void* data, size_t len, u64 seed = 0xcbf29ce484222325ull) noexcept;

// --- options ----------------------------------------------------------------

struct SpoolOptions {
  /// Spool file path; empty disables spooling entirely (the default — the
  /// disabled path is byte-identical to the plain in-memory recorder).
  std::string path;
  /// Seal a worker's buffer into an epoch frame once it holds this many
  /// payload bytes (the at-most-one-epoch-per-worker loss bound).
  u64 epoch_bytes = 64 * 1024;
  /// Write sealed frames through to the file at seal time (default). When
  /// false, sealed frames queue in a bounded ring drained by the background
  /// flusher; the emergency flush drains whatever is still queued.
  bool durable_epochs = true;
  /// Background flusher period: requests a time-based seal from every
  /// worker so long idle phases cannot keep records buffered indefinitely.
  /// 0 disables the flusher thread.
  TimeNs flush_interval_ns = 50'000'000;
  /// Install SIGSEGV/SIGABRT/SIGTERM + std::terminate emergency-flush
  /// handlers for the lifetime of the sink.
  bool crash_handlers = true;
  /// Self-telemetry: when `telemetry_source` is set it is called from the
  /// background flusher every `telemetry_interval_ns` and its (opaque)
  /// payload is appended as a 'T' frame, so a live run can be monitored by
  /// tailing the spool (`ggstat --follow`). An empty payload skips the
  /// frame. 0/null (the default) emits nothing and the spool stream is
  /// byte-identical to a build without telemetry.
  TimeNs telemetry_interval_ns = 0;
  std::function<std::string()> telemetry_source;
  /// When set, the sink publishes its own counters/histograms
  /// (spool.frames_written, spool.bytes_written, spool.records_sealed,
  /// spool.emergency_flushes, spool.flush_ns) into this registry. Null (the
  /// default) keeps the sink free of any telemetry branch cost.
  obs::Registry* telemetry = nullptr;
  /// When set, called (under the frame-emission lock, so frames arrive in
  /// stream order) with every complete frame's bytes and the spool-stream
  /// offset the frame starts at. This is the recorder's network-sink hook:
  /// a WireClient mirrors each tapped frame to a ggserved ingest socket as
  /// one EPOCH. The emergency crash flush bypasses the tap — it must stay
  /// async-signal-safe, so a mirrored stream can lose the unacked tail a
  /// crash leaves behind, exactly the wire protocol's documented bound.
  std::function<void(std::string_view frame_bytes, u64 spool_offset)>
      frame_tap;

  bool enabled() const { return !path.empty(); }
};

// --- the record batch a seal captures --------------------------------------

/// One worker's private record buffer — what TraceRecorder::Writer appends
/// to and what a seal drains into an epoch frame. Public so the spool can
/// serialize it and tests can build batches directly.
struct RecordBuffer {
  std::vector<TaskRec> tasks;
  std::vector<FragmentRec> fragments;
  std::vector<JoinRec> joins;
  std::vector<LoopRec> loops;
  std::vector<ChunkRec> chunks;
  std::vector<BookkeepRec> bookkeeps;
  std::vector<DependRec> depends;
  std::vector<WorkerStatsRec> worker_stats;

  bool empty() const { return records() == 0; }
  /// Records of all kinds.
  size_t records() const;
  void clear();
  /// In-memory payload footprint (sizeof-based, the recorder's
  /// self-measurement unit).
  u64 payload_bytes() const;
  /// Appends every record to the trace's vectors and clears the buffer.
  void move_into(Trace& trace);
};

// --- pure frame encoding (shared by the sink, spool_trace, and tests) ------

std::string encode_frame(FrameType type, u32 worker, u32 seq,
                         std::string_view payload);
std::string encode_meta_payload(const TraceMeta& meta);
std::string encode_strings_payload(u32 first_id,
                                   const std::vector<std::string>& strings);
std::string encode_epoch_payload(const RecordBuffer& buf);

// --- the sink ---------------------------------------------------------------

/// Copies newly-interned strings [from, table size) into *out, under
/// whatever lock protects the table. Supplied by the recorder so the sink
/// never touches recorder internals.
using StringsDeltaFn = std::function<void(u32 from, std::vector<std::string>* out)>;

/// Appends frames to one spool file. seal_epoch() may be called from any
/// worker concurrently; frames are written whole (one write(2) each on an
/// O_APPEND fd), so a crash can tear at most the final frame.
class SpoolSink {
 public:
  ~SpoolSink();

  SpoolSink(const SpoolSink&) = delete;
  SpoolSink& operator=(const SpoolSink&) = delete;

  /// Opens (truncates) the spool file and writes the header + 'M' frame.
  /// Returns nullptr with *error set on I/O failure.
  static std::unique_ptr<SpoolSink> open(const SpoolOptions& opts,
                                         const TraceMeta& initial_meta,
                                         int num_workers, std::string* error);

  /// Seals one worker's buffer: flushes the pending string delta (an 'S'
  /// frame) followed by an 'E' frame carrying the batch, then clears the
  /// buffer. The two frames are emitted adjacently so every StrId an epoch
  /// references is durable before the epoch itself.
  void seal_epoch(u32 worker, RecordBuffer& buf, const StringsDeltaFn& delta);

  /// Flushes any not-yet-spooled string-table tail (used at finish when the
  /// final buffers were already empty).
  void flush_strings(const StringsDeltaFn& delta);

  /// Appends a supervisor diagnostic dump ('D' frame).
  void append_dump(const std::string& text);

  /// Appends a self-telemetry snapshot ('T' frame, opaque payload). Called
  /// by the background flusher on the telemetry interval; public so the
  /// modeled path (spool_trace) and tests can emit snapshots directly.
  void append_telemetry(std::string_view payload);

  /// Writes the clean-shutdown footer ('F' frame with the final meta) and
  /// closes the file. Recovery treats its absence as a crashed run.
  void finish(const TraceMeta& final_meta);

  /// Closes without a footer (test hook modelling an unclean shutdown).
  void close_unclean();

  /// True when the background flusher asked this worker to seal (time-based
  /// flush); cleared by the next seal_epoch.
  bool flush_due(u32 worker) const {
    return flush_due_[worker].load(std::memory_order_relaxed);
  }

  /// Total epoch payload bytes sealed so far — the spooled equivalent of
  /// the recorder's buffer-footprint self-measurement.
  u64 payload_bytes() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }
  u64 epochs_sealed(u32 worker) const {
    return epoch_seq_[worker].load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

  /// Async-signal-safe: drains queued frames with write(2) and appends a
  /// 'C' crash footer naming the reason. Idempotent (first caller wins).
  /// Called from the signal/terminate handlers; public so the supervisor's
  /// abort path can flush explicitly before raising.
  void emergency_flush(int sig, const char* reason) noexcept;

 private:
  SpoolSink() = default;

  void write_frame_locked(FrameType type, u32 worker, u32 seq,
                          std::string_view payload);
  void enqueue_or_write(std::string frame_bytes);
  void write_all(const char* data, size_t len) noexcept;
  void flusher_main();
  void stop_flusher();

  // Bounded queue of framed-but-unwritten byte blobs (durable_epochs=false
  // mode). Producers claim slots with head_; the flusher (and the
  // emergency flush) consume Ready slots in order. Slot states make the
  // signal handler safe: a blob is freed only after leaving Ready, and the
  // handler never frees.
  struct Slot {
    std::atomic<int> state{0};  // 0 empty, 1 ready, 2 consumed
    std::string* data = nullptr;
  };
  static constexpr size_t kRingSlots = 256;

  std::string path_;
  SpoolOptions opts_;
  int fd_ = -1;
  int num_workers_ = 0;
  std::mutex file_mutex_;  // serializes frame emission order
  u32 strings_flushed_ = 1;  // id 0 (the empty string) is implicit
  u32 telemetry_seq_ = 0;  // guarded by file_mutex_
  u64 tap_offset_ = 0;  // guarded by file_mutex_; next frame's stream offset

  // Self-metrics (null when SpoolOptions::telemetry is unset). Counter
  // updates are lock-free atomics, safe even from the emergency flush.
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_emergency_ = nullptr;
  obs::Histogram* m_flush_ns_ = nullptr;
  std::vector<std::atomic<u32>> epoch_seq_;
  std::vector<std::atomic<bool>> flush_due_;
  std::atomic<u64> payload_bytes_{0};

  std::vector<Slot> ring_;
  std::atomic<u64> ring_head_{0};
  u64 ring_tail_ = 0;  // flusher-owned
  std::thread flusher_;
  std::atomic<bool> flusher_stop_{false};

  std::atomic<bool> closed_{false};
  std::atomic<bool> crashed_{false};
  bool handlers_registered_ = false;
  // Preassembled crash-footer frame; the handler only patches the reason
  // and checksum (no allocation in signal context).
  static constexpr size_t kCrashPayloadBytes = 64;
  char crash_frame_[kFrameHeaderBytes + kCrashPayloadBytes] = {};
};

// --- recovery ---------------------------------------------------------------

struct RecoverReport {
  u64 frames_total = 0;       ///< frames whose header was readable
  u64 frames_kept = 0;        ///< frames applied to the trace
  u64 frames_corrupt = 0;     ///< checksum/decode failures, skipped
  u64 frames_out_of_order = 0;///< backward/duplicate epoch seq, skipped
  /// Epochs lost to forward seq jumps: when an epoch frame is skipped as
  /// corrupt, the worker's next valid epoch arrives with seq > expected and
  /// is applied anyway, so one bad frame costs one epoch, not the rest of
  /// the worker's stream. This counts the epochs the jumps skipped over.
  u64 epoch_gaps = 0;
  bool torn_tail = false;     ///< file ends mid-frame (in-flight write)
  bool clean_footer = false;  ///< 'F' frame present: a clean shutdown
  std::string crash_reason;   ///< from the 'C' footer, "" if none
  std::string supervisor_dump;///< concatenated 'D' frames, "" if none
  std::string telemetry;      ///< last valid 'T' payload, "" if none
  u64 telemetry_frames = 0;   ///< valid 'T' frames seen
  /// Corrupt 'T' frames. Deliberately NOT part of frames_corrupt: telemetry
  /// is advisory, so its corruption degrades to "telemetry unavailable"
  /// without marking the trace itself damaged.
  u64 telemetry_corrupt = 0;
  std::vector<u64> epochs_per_worker;
  std::vector<std::string> diagnostics;  ///< human-readable skip reasons

  bool operator==(const RecoverReport&) const = default;

  bool partial() const { return !clean_footer; }
  /// Something was lost or skipped: the recovered trace is stamped
  /// "recovered ..." and needs the salvage pass before analysis.
  bool degraded() const {
    return partial() || frames_corrupt > 0 || frames_out_of_order > 0 ||
           epoch_gaps > 0 || torn_tail;
  }
  std::string summary() const;
};

struct RecoverResult {
  bool usable = false;  ///< a finalized (possibly partial) trace came back
  Trace trace;
  RecoverReport report;
};

/// Reconstructs a Trace from the longest valid prefix of spool frames.
/// Never throws on malformed input; !usable means nothing recoverable. A
/// partial recovery stamps provenance notes ("recovered ...", "crash ...",
/// "supervisor ...") that TraceMeta's provenance accessors expose. The
/// caller is expected to run the salvage pass afterwards — recovered
/// traces usually miss TaskEnds/joins for in-flight work.
///
/// `threads` is recovery's thread count: the frames' checksums are
/// verified and their epochs decoded on up to that many threads
/// (IncrementalTrace::apply_frames), and the trace is finalized on as many;
/// the keep/skip/degrade decisions are made serially, in frame order. 0
/// resolves it with resolve_threads (GG_THREADS, else the hardware
/// concurrency capped at 8). The trace and the report are the same for
/// every thread count.
RecoverResult recover_spool_bytes(std::string_view bytes, int threads = 0);
RecoverResult recover_spool_file(const std::string& path,
                                 std::string* error = nullptr,
                                 int threads = 0);

/// True if `bytes` starts with the spool magic (how the file loader tells
/// a spool from a text or binary trace).
bool looks_like_spool(std::string_view bytes);

// --- whole-trace spooling (modeled path: sim + deterministic tests) --------

/// Writes an existing trace through the real sink — records partitioned
/// per worker and sealed in interleaved epochs — so the simulator and the
/// fault corpus exercise the same frame/recover code paths as the threaded
/// runtime. Returns false on I/O failure.
bool spool_trace(const Trace& trace, const SpoolOptions& opts,
                 std::string* error = nullptr);

/// Pure in-memory variant of spool_trace for corpus construction: same
/// frame stream, no filesystem. Each entry of `telemetry` is appended as a
/// 'T' frame after successive seal rounds (leftovers before the footer).
std::string spool_trace_bytes(const Trace& trace, u64 epoch_bytes,
                              const std::vector<std::string>& telemetry = {});

/// Decodes an 'M'/'F' frame payload into *meta (strict; false on any
/// malformed field). Public so spool-aware tools (ggstat) can identify a
/// run without replaying its records.
bool decode_meta_payload(std::string_view payload, TraceMeta* meta);

/// One number per record type, in schema order (task, fragment, join,
/// loop, chunk, bookkeep, depend, worker stats): an epoch payload's record
/// counts, or where its records start in a trace's vectors.
using RecordCounts = std::array<size_t, 8>;

/// Checks an 'E' frame payload without storing its records: the record
/// counts it opens with must account for its bytes exactly, and every
/// record must decode without a codec fault (an enum past its maximum is
/// malformed). Allocates nothing; recovery sizes its record vectors only
/// from counts this accepted, so a corrupt count field cannot size an
/// allocation. On success *counts holds the counts.
bool check_epoch_payload(std::string_view payload, RecordCounts* counts);

/// Decodes a payload that check_epoch_payload accepted into `trace`'s
/// vectors, which already have room for it: the records of type k land at
/// [at[k], at[k] + counts[k]). Writes nothing else, so epochs placed into
/// disjoint ranges may be decoded concurrently.
void place_epoch_payload(std::string_view payload, Trace& trace,
                         const RecordCounts& at);

// --- the frame walker -------------------------------------------------------
//
// Every GGSPOOL1 reader delimits frames with these two functions: batch
// recovery and scan_frames here, the ggserved tailer and its resync scan,
// the GGWIRE1 push and ingest, ggspool-push --follow and ggstat. So they
// agree on where each frame lies, on what a damaged tail is, and on where
// the stream ends: after the first 'F' or 'C' frame whose checksum
// verifies. Bytes after that footer are not read, so a frame that a worker
// wrote after the crash footer, racing the emergency flush, is not
// recovered.

/// A stream header. Usable when it holds the magic and a worker count of
/// 1..4096; otherwise `error` says why, in recovery's wording.
struct StreamHeader {
  u32 num_workers = 0;
  std::string error;
  bool ok() const { return error.empty(); }
};
StreamHeader read_stream_header(std::string_view bytes);

/// What the walk found at an offset: a frame, or where and how it stops.
enum class Step : u8 {
  Frame,        ///< a whole frame
  End,          ///< no bytes left: the stream ends on a frame boundary
  TornHeader,   ///< fewer than kFrameHeaderBytes remain
  Garbled,      ///< the bytes there are not a frame magic
  Overrun,      ///< the header declares more than kMaxFramePayload bytes
  TornPayload,  ///< the header is whole, the payload is cut short
};

/// One step of the walk. A Frame sets every field; Overrun and TornPayload
/// set the header fields but leave `payload` empty; the rest set only
/// `step` and `offset`.
struct FrameStep {
  Step step = Step::End;
  u64 offset = 0;  ///< where the frame, or the damage, starts
  FrameType type = FrameType::Epoch;
  u32 worker = 0;
  u32 seq = 0;
  u64 payload_len = 0;  ///< as the header declares it
  u64 checksum = 0;     ///< as the header stores it
  std::string_view payload;
  /// An 'F' or 'C' frame whose checksum verifies: the walk ends after it.
  bool footer = false;

  /// Header plus payload: how far a Frame advances the walk.
  size_t size() const { return kFrameHeaderBytes + payload.size(); }
  /// Recomputes the checksum over (type, worker, seq, payload).
  bool verifies() const;
};

/// Decodes the frame header at `offset` in `bytes`. Only 'F' and 'C'
/// payloads are hashed here (to decide `footer`); every other frame's
/// checksum is left to the caller.
FrameStep next_frame(std::string_view bytes, u64 offset);

// --- frame scanning (fault injection + diagnostics) -------------------------

struct FrameSpan {
  size_t offset = 0;        ///< frame start (header) within the stream
  size_t size = 0;          ///< header + payload
  FrameType type = FrameType::Epoch;
  u32 worker = 0;
  u32 seq = 0;
};

/// The frames next_frame() walks, up to the first damaged header or the
/// verified footer. The fault layer uses this to aim corruption at
/// specific frames.
std::vector<FrameSpan> scan_frames(std::string_view bytes);

/// The frame checksum (FNV-1a over type, worker, seq, payload). Public so
/// tests can assemble frames by hand.
u64 frame_checksum(FrameType type, u32 worker, u32 seq, const void* payload,
                   size_t len) noexcept;

}  // namespace gg::spool
