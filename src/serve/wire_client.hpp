// GGWIRE1 client: streams GGSPOOL1 frames into a ggserved ingest socket
// with acked durability and reconnect-and-resume.
//
// The client owns a 128-bit session token and a window of sent-but-unacked
// EPOCH frames. Every disconnect — reset, poisoned wire, server restart,
// send deadline — is handled the same way: close, back off (exponential
// with deterministic jitter), reconnect, re-HELLO with the token and the
// last acked seq, then retransmit the unacked window. The server dedupes
// anything it already applied, so a fault at any byte boundary loses at
// most the unacked tail; with the default per-frame ACKs that tail is the
// one in-flight epoch — the wire twin of the spool's ≤1-epoch-per-worker
// SIGKILL bound.
//
// If a reconnect finds the server's acked seq *behind* ours (the daemon
// restarted and lost its in-memory session), the already-dropped acked
// prefix cannot be retransmitted from the window: the client reports
// needs_restart() and a caller that still holds the source (push_bytes /
// ggspool-push) restarts the push from scratch on the same token — the
// final report is still byte-identical, only the wall-clock is lost.
//
// A fault::WireFaultPlan can be armed on the send path (tests): resets,
// partial writes, duplicated sends, bit flips, stalls and garbage
// preambles are injected deterministically, and the recovery machinery
// above is what digs the stream out.
#pragma once

#include <deque>
#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "serve/wire.hpp"

namespace gg::serve {

struct WireClientOptions {
  std::string socket_path;
  /// HELLO display name (shows up in SESSIONS listings).
  std::string name;
  /// Deterministic seed for the token and backoff jitter; 0 derives one
  /// from the process and clock (production default).
  u64 seed = 0;
  /// Reconnect/connect backoff, exponential with jitter, capped.
  u64 backoff_initial_ns = 10'000'000;
  u64 backoff_max_ns = 1'000'000'000;
  /// Connect + handshake attempts per operation before giving up. Covers
  /// daemon startup races: ECONNREFUSED/ENOENT while the socket appears.
  u32 max_attempts = 30;
  /// Max time one operation blocks waiting for ACK progress before the
  /// connection is declared dead and the reconnect path runs.
  u64 ack_deadline_ns = 5'000'000'000;
  /// Max sent-but-unacked EPOCH frames in flight.
  size_t window = 32;
  /// Armed send-path faults (tests); null sends clean.
  const fault::WireFaultPlan* fault = nullptr;
};

class WireClient {
 public:
  explicit WireClient(const WireClientOptions& opts);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Pushes one complete spool byte stream (header + frames) and seals.
  /// Walks the stream with spool::next_frame, as the tailer does: intact
  /// frames ship as EPOCHs, the walk ends after the verified footer, and
  /// the first non-delimitable damage becomes the SEAL's end kind.
  /// Restarts from scratch automatically when the server lost session
  /// state mid-push. False with *error on exhausted retries.
  bool push_bytes(std::string_view spool_bytes, std::string* error);
  bool push_file(const std::string& path, std::string* error);

  // Incremental API (live-follow, recorder sink). begin() declares the
  // worker count (the spool header's), send_frame() ships one complete
  // GGSPOOL1 frame at its stream offset, seal() ends the stream.
  bool begin(u32 num_workers, std::string* error);
  bool send_frame(std::string_view frame_bytes, u64 spool_offset,
                  std::string* error);
  bool seal(wire::EndKind end, u64 end_offset, u64 end_len,
            std::string* error);
  /// Polite close (the stream stays open server-side for resume).
  void bye();

  /// True when the server lost this session's state (daemon restart): the
  /// acked prefix is gone and only a from-scratch re-push can restore it.
  bool needs_restart() const { return needs_restart_; }
  /// Resets client-side stream state for a from-scratch re-push on the
  /// same token (push_bytes does this internally).
  void reset_stream();

  const wire::Token& token() const { return token_; }
  u64 acked_seq() const { return acked_; }
  u64 epochs_sent() const { return epochs_sent_; }
  u64 reconnects() const { return reconnects_; }
  u64 faults_injected() const { return faults_injected_; }
  bool sealed() const { return sealed_; }

 private:
  /// Connect + HELLO (+ OFFER + window retransmit) with capped backoff;
  /// no-op when the session is already up on this connection.
  bool ensure_session(std::string* error);
  void close_fd();
  void backoff_sleep(u32 attempt);
  /// Writes bytes (fault filter applied to epoch frames when `seq`
  /// matches an armed plan). False on any send failure — the caller runs
  /// the reconnect path.
  bool send_bytes(const std::string& bytes, u32 seq, bool is_epoch);
  /// Reads one ACK frame within the deadline. False on disconnect/poison/
  /// timeout — caller reconnects.
  bool read_ack(wire::AckMsg* ack, u64 deadline_ns);
  /// Reads and applies ACKs until the window shrinks to `max_window` (and
  /// the stream is sealed, when `need_sealed`).
  bool drain_acks_until(size_t max_window, bool need_sealed,
                        std::string* error);
  bool process_ack(const wire::AckMsg& ack, std::string* error);

  WireClientOptions opts_;
  wire::Token token_;
  u64 jitter_state_;
  int fd_ = -1;
  bool hello_done_ = false;
  bool offer_done_ = false;

  u32 num_workers_ = 0;
  bool begun_ = false;
  u64 acked_ = 0;
  u32 next_seq_ = 1;
  std::deque<std::pair<u32, std::string>> window_;  ///< unacked (seq, bytes)
  std::string pending_seal_;  ///< encoded SEAL awaiting its "sealed" ACK
  bool sealed_ = false;
  bool needs_restart_ = false;
  bool fatal_ = false;
  std::string fatal_reason_;

  wire::Decoder ack_decoder_;

  u64 epochs_sent_ = 0;
  u64 reconnects_ = 0;
  u64 faults_injected_ = 0;
};

/// The push step push_spool_stream and ggspool-push --follow share: sends
/// each whole frame of `bytes` from *offset on as one EPOCH, advancing
/// *offset past it, until the walker (spool::next_frame) stops. *tail gets
/// the stop: the verified footer frame, Step::End when the bytes end on a
/// frame boundary, or the damaged tail. False with *error on exhausted
/// retries.
bool push_frames(WireClient& client, std::string_view bytes, u64* offset,
                 spool::FrameStep* tail, std::string* error);

/// Seals the stream with the end kind of where a push walk stopped, so the
/// server stamps the tail notes batch recovery stamps.
bool seal_at(WireClient& client, const spool::FrameStep& tail,
             std::string* error);

/// Pushes one finished spool byte stream (header, frames, seal) through
/// `client`; push_bytes wraps it with the restart loop. Returns false with
/// *error on exhausted retries.
bool push_spool_stream(WireClient& client, std::string_view bytes,
                       std::string* error);

}  // namespace gg::serve
