// One serving session: a spool stream from its first frame to a finalized,
// queryable trace.
//
// A session is fed by one of two frame sources and owns the stream's whole
// life either way:
//   file  a SpoolTailer polling a .ggspool on disk (tick() drives it)
//   wire  the GGWIRE1 OFFER/EPOCH/SEAL steps an IngestConnection hands it,
//         keyed by the client's 128-bit token, not by its connection
//
//   Live ──clean footer / SEAL────────────▶ Sealed
//     │  └──crash footer──────────────────▶ Crashed  (recovery hand-off)
//     │  └──no traffic for stale_after_ns─▶ Stale    (footer-less loss)
//     │  └──unrecoverable stream──────────▶ Failed
//     └──(admission pressure)⇄ paused flag, file sessions only, orthogonal
//
// Every end runs one finalize: the tail note (the tailer's unresolved tail,
// or the SEAL's classification) → IncrementalTrace::finish() → the batch
// loader's spool hand-off (load_recovered: salvage when the stream was
// degraded, then validate), so a session's report is byte-identical to a
// batch gganalyze run over the same spool. Idle finalized sessions are
// evicted by the server after evict_after_ns to bound resident memory.
//
// Sessions lock themselves: the tick thread, connection threads and query
// threads may touch one session at once. Every answer reads the session
// under its lock; REPORT analyzes either the finalized trace, which never
// changes again, or a copy taken under the lock, so no analysis holds it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "serve/tailer.hpp"
#include "serve/wire.hpp"
#include "trace/trace.hpp"

namespace gg::serve {

enum class SessionState : u8 {
  Live,     ///< tailing a file or receiving a push
  Sealed,   ///< clean end: finalized, queryable
  Crashed,  ///< crash footer: recovered + salvaged, queryable
  Stale,    ///< footer-less writer death (staleness): recovered + salvaged
  Failed,   ///< nothing recoverable (bad magic / empty stream)
};

const char* session_state_name(SessionState s);

struct SessionOptions {
  TailerOptions tailer;
  /// No file growth and no footer for this long → the writer is presumed
  /// dead; a file session finalizes as a footer-less crash.
  u64 stale_after_ns = 10'000'000'000;
  /// A finalized session, file or wire, idle (no queries) this long is
  /// evicted by the server's sweep.
  u64 evict_after_ns = 60'000'000'000;
};

class Session {
 public:
  /// A file session tailing the spool at `path`.
  Session(u64 id, std::string path, const SessionOptions& opts);
  /// A wire session for the client holding `token`, created by its first
  /// HELLO at `now_ns`; it goes stale after `stale_after_ns` without
  /// traffic.
  Session(u64 id, wire::Token token, std::string name, u64 stale_after_ns,
          u64 now_ns);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One supervision round: poll the tailer (file sessions, unless
  /// paused), then the lifecycle transitions, staleness included. Returns
  /// frames applied.
  size_t tick(u64 now_ns);

  /// Admission backpressure for file sessions: a paused session stops
  /// reading (its writer keeps appending to the file — nothing is lost,
  /// ingestion just lags). pause() returns whether it paused a live tailer,
  /// resume() whether it resumed one.
  bool pause(u64 now_ns);
  bool resume(u64 now_ns);
  bool paused() const;
  /// A file session still polling its spool: not paused, not finalized.
  bool tailing() const;

  /// Forces the end-of-life transition now (server shutdown, eviction of a
  /// live session). Safe to call repeatedly.
  void finalize(u64 now_ns);

  // --- the wire frame source (connection threads) -------------------------

  /// What a protocol step decided; the connection turns this into an ACK.
  struct Apply {
    wire::Status status = wire::Status::Ok;
    u64 acked_seq = 0;
    std::string message;
  };

  /// OFFER: allocates the IncrementalTrace. Idempotent for matching worker
  /// counts (a resumed client may re-OFFER); a mismatch is a session error.
  Apply offer(u32 num_workers, u64 now_ns);

  /// EPOCH: dedupes on wire seq (seq <= acked is an already-applied
  /// retransmit), requires exactly acked+1 next, parses the embedded
  /// GGSPOOL1 frame header strictly and folds it into the trace with
  /// batch-recovery semantics.
  Apply apply_epoch(u32 seq, const wire::EpochMsg& msg, u64 now_ns);

  /// SEAL: stamps the end-of-stream tail note (torn/garbled/overrun — what
  /// a tailer would find at the source's EOF) and finalizes.
  Apply seal(const wire::SealMsg& msg, u64 now_ns);

  /// A new connection takes over the session; older connections observe
  /// the bumped generation and stand down.
  u64 adopt();
  u64 generation() const;
  bool offered() const;
  u64 acked_seq() const;

  // --- identity -----------------------------------------------------------

  u64 id() const { return id_; }
  /// The spool path; empty for wire sessions.
  const std::string& path() const { return path_; }
  /// The client's HELLO name; empty for file sessions.
  const std::string& name() const { return name_; }
  /// The client's token; zero for file sessions.
  const wire::Token& token() const { return token_; }
  bool wire() const { return !token_.zero(); }

  // --- state --------------------------------------------------------------

  SessionState state() const;
  /// Lock-free, so table-wide counts never wait on a busy session.
  bool finalized() const { return finalized_.load(std::memory_order_acquire); }
  /// Usable after finalize: false means nothing recoverable (Failed).
  bool usable() const;
  /// The later of the last traffic and the last query.
  u64 idle_since_ns() const;
  void touch_query(u64 now_ns);
  u64 resident_bytes() const;

  /// A copy of the recovery report: the accumulating one while live, the
  /// frozen one after finalize. Empty before the header or OFFER.
  std::optional<spool::RecoverReport> report() const;

  /// The finalized (salvaged, validated) trace; null until finalize and
  /// for Failed sessions. It never changes once set.
  const Trace* trace() const;

  // --- answers ------------------------------------------------------------

  /// One status line: `session <id> <path> <state> …` for files, `ingest
  /// <id> <name> token=… <state> … acked=…` for wire sessions. With `wait`
  /// false a session another thread holds answers "" instead of blocking
  /// (the watchdog must not wait on a wedged tick).
  std::string status_line(bool wait = true) const;

  /// The recovery summary line, or "no data yet".
  std::string summary() const;

  /// The full analysis report over the session's trace. While live this
  /// analyzes a copy of the accumulating trace with the repairs finalize
  /// would make — the live view converges on the finalized one. Empty when
  /// nothing is usable.
  std::string report_text() const;

 private:
  /// The end a forced finalize gives the stream as it stands now.
  SessionState natural_end_locked() const;
  /// The one finalize; returns the ACK message of a failure, or null.
  const char* finalize_locked(u64 now_ns, SessionState end,
                              spool::Step tail = spool::Step::End,
                              u64 tail_offset = 0, u64 tail_len = 0);
  const spool::IncrementalTrace* live_locked() const;
  const spool::RecoverReport* report_locked() const;
  u64 resident_locked() const;

  const u64 id_;
  const std::string path_;
  const std::string name_;
  const wire::Token token_;
  const u64 stale_after_ns_;

  mutable std::mutex mu_;
  std::unique_ptr<SpoolTailer> tailer_;  ///< the file source
  // The wire source: OFFER allocates inc_, finalize releases it.
  std::unique_ptr<spool::IncrementalTrace> inc_;
  u32 num_workers_ = 0;
  u64 acked_seq_ = 0;
  bool footer_seen_ = false;
  std::atomic<u64> generation_{0};

  SessionState state_ = SessionState::Live;
  Trace trace_;                 ///< valid once finalized_ && usable_
  spool::RecoverReport report_; ///< frozen at finalize
  u64 last_activity_ns_ = 0;
  u64 last_query_ns_ = 0;
  bool paused_ = false;
  bool usable_ = false;
  /// Set under mu_ once finalize_locked() has run to its end.
  std::atomic<bool> finalized_{false};
};

/// RecoverReport::degraded(), kept as a free function for existing callers.
bool recovery_degraded(const spool::RecoverReport& rep);

/// The analysis half of the query path: topology from the trace's own
/// metadata (generic4 fallback), full analyze(), textual report. Byte-for-
/// byte what `gganalyze` prints for the same trace.
std::string analysis_report_text(const Trace& trace);

}  // namespace gg::serve
