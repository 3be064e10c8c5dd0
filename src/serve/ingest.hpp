// Network spool ingestion: GGWIRE1 connections feeding wire sessions.
//
// The wire twin of the filesystem tailer. Each pushing client owns one
// wire Session (serve/session.hpp) — keyed by its 128-bit token, NOT by its
// connection — that folds EPOCH-carried GGSPOOL1 frames straight into a
// spool::IncrementalTrace (no temp file). Connections are disposable:
// wire-level damage (bad magic, checksum failure, implausible length)
// poisons only the connection; the session survives and the client
// resumes by re-HELLOing with its token. The server ACKs every applied
// epoch with the highest durably-applied wire seq, and deduplicates
// anything at or below it on resume, so a crash or disconnect at any byte
// boundary loses at most the unacked tail — the same ≤1-epoch-per-worker
// bound SIGKILL recovery gives the filesystem path.
//
// Layering (socketless core, transport shell):
//   IngestConnection byte-in/byte-out protocol state machine that finds and
//                    creates its session in the Server (unit-testable
//                    without sockets; the fault proxy drives it through one)
//   IngestListener   AF_UNIX accept loop + per-connection threads, read
//                    deadlines (slowloris), connection caps, MSG_NOSIGNAL
//
// A wire session finalizes through the same path as a tailed file, so a
// stream pushed over the wire finalizes byte-identical to a batch load of
// the source spool (load_trace_file_ex; the chaos tests pin this).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "serve/wire.hpp"

namespace gg::obs {
class Registry;
class Counter;
class Gauge;
}  // namespace gg::obs

namespace gg::serve {

class Server;
class Session;

struct IngestOptions {
  /// Max concurrent *unfinished* wire streams; new HELLOs past the cap are
  /// shed (resume of an existing stream is always admitted — an accepted
  /// session is never abandoned by admission).
  size_t max_sessions = 64;
  /// Max concurrent ingest connections (transport-level cap).
  size_t max_connections = 64;
  /// Per-connection reassembly-buffer cap: a peer that streams frame bytes
  /// faster than they decode (or sends one huge torn frame) is disconnected
  /// — resumable — once the decoder buffers this much.
  u64 max_wire_buffer_bytes = 16ull << 20;
  /// No bytes from a connection for this long → structured timeout ACK and
  /// disconnect (slowloris guard). The stream survives for resume.
  u64 read_deadline_ns = 10'000'000'000;
  /// An unfinished stream with no traffic for this long is presumed
  /// abandoned and finalized with what arrived (the client is dead). Longer
  /// than a file's deadline: it covers WireClient's reconnect budget.
  u64 stale_after_ns = 30'000'000'000;
};

/// The serve.ingest.* metric handles, registered together. The server
/// holds one only when telemetry is on.
struct IngestMetrics {
  explicit IngestMetrics(obs::Registry& registry);
  obs::Counter* streams_created;
  obs::Counter* resumes;
  obs::Counter* offers_shed;
  obs::Counter* poisoned_connections;
  obs::Counter* read_timeouts;
  obs::Counter* epochs_applied;
  obs::Counter* epochs_duplicate;
  obs::Counter* streams_evicted;
  obs::Gauge* open_streams;
  obs::Gauge* streams;
};

/// The GGWIRE1 server-side state machine over one connection's byte
/// stream. Transport-free: feed raw bytes in, collect ACK bytes out —
/// unit tests drive it directly, IngestListener drives it from a socket.
class IngestConnection {
 public:
  /// Sessions come from `server`, whose admission level gates brand-new
  /// streams' OFFERs (the degrade ladder sheds those before it ever pauses
  /// tailers).
  explicit IngestConnection(Server* server);

  /// Feeds received bytes; appends response bytes to *out. Returns false
  /// once the connection must close (poisoned wire, protocol error, BYE,
  /// buffer cap) — the reason is in close_reason().
  bool on_bytes(std::string_view bytes, std::string* out, u64 now_ns);

  /// The structured timeout path (listener read deadline fired): appends
  /// the final timeout ACK to *out and closes the connection.
  void on_timeout(std::string* out);

  bool open() const { return open_; }
  const std::string& close_reason() const { return close_reason_; }

 private:
  bool on_frame(const wire::Frame& f, std::string* out, u64 now_ns);
  bool fail(wire::Status status, const std::string& reason,
            std::string* out);

  Server* server_;
  wire::Decoder decoder_;
  std::shared_ptr<Session> session_;
  u64 generation_ = 0;
  bool open_ = true;
  std::string close_reason_;
};

/// AF_UNIX ingest socket: accept loop + one thread per connection, with
/// read deadlines, connection caps, and SIGPIPE-proof writes.
class IngestListener {
 public:
  IngestListener(std::string socket_path, Server* server);
  ~IngestListener();

  IngestListener(const IngestListener&) = delete;
  IngestListener& operator=(const IngestListener&) = delete;

  bool start(std::string* error);
  void stop();

  const std::string& path() const { return path_; }
  size_t active_connections() const {
    return active_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void serve_connection(int fd);

  std::string path_;
  Server* server_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<size_t> active_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace gg::serve
