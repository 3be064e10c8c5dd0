// The ggserved core: one session table, supervision loop, query surface.
//
// A Server owns N sessions in one table with one id space: file sessions
// (one per tailed spool), found by scanning a directory for *.ggspool files
// and/or attached explicitly, and wire sessions, created by GGWIRE1 HELLOs
// on the ingest socket. Everything stateful happens inside tick() — one
// supervision round: scan for new spools, tick every session (poll live
// tailers, finalize stale streams), recompute the admission level, apply
// backpressure (pause/resume), evict idle or LRU finalized sessions. tick()
// takes its time from an injectable clock, so tests drive the entire
// lifecycle (backoff, staleness, eviction) deterministically with a fake
// clock.
//
// The table mutex guards only the table; each session locks itself, so a
// HELLO or a lookup never waits behind a REPORT's analysis.
//
// run() wraps tick() in a real-time loop with the socket endpoints and a
// watchdog thread mirroring rts/supervisor.hpp: the supervision loop
// heartbeats once per tick; if the heartbeat freezes past the stall
// deadline the watchdog dumps a structured diagnosis to stderr and
// publishes serve.watchdog_stalls — it never aborts (a serving daemon
// degrades, it does not die).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/ingest.hpp"
#include "serve/session.hpp"

namespace gg::obs {
class Registry;
class Counter;
}  // namespace gg::obs

namespace gg::serve {

class Endpoint;

struct ServerOptions {
  /// Directory scanned for *.ggspool files; empty disables scanning
  /// (sessions come from attach() / ATTACH only).
  std::string dir;
  /// AF_UNIX socket path for the query endpoint; empty disables it.
  std::string socket_path;
  /// AF_UNIX socket path for GGWIRE1 network ingestion; empty disables it.
  std::string ingest_socket_path;
  SessionOptions session;
  AdmissionOptions admission;
  IngestOptions ingest;
  /// Query-endpoint slowloris guard: a connection without a complete
  /// request line within this long gets "ERR timeout" and is closed.
  u64 query_read_deadline_ns = 5'000'000'000;
  /// Directory re-scan period.
  u64 scan_interval_ns = 500'000'000;
  /// run() loop sleep between ticks.
  u64 tick_sleep_ns = 2'000'000;
  /// Watchdog: ingest-loop heartbeat frozen this long == stall.
  u64 watchdog_stall_ns = 2'000'000'000;
  u64 watchdog_poll_ns = 10'000'000;
  /// run() returns once at least one session existed and all of them are
  /// finalized (the soak harness's clean-shutdown condition).
  bool exit_when_idle = false;
  /// Publishes serve.* metrics when set.
  obs::Registry* telemetry = nullptr;
  /// Injectable clock for tick-time (tests); null uses the steady clock.
  std::function<u64()> clock;
  /// Watchdog stall hook (tests); the stderr dump happens regardless.
  std::function<void(const std::string&)> on_stall;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches one spool path as a session. False when already attached.
  bool attach(const std::string& path);

  struct Hello {
    std::shared_ptr<Session> session;  ///< null when shed (at cap)
    bool created = false;              ///< false: resumed
  };
  /// GGWIRE1 HELLO admission: resumes the token's wire session
  /// unconditionally, creates a new one unless the unfinished wire-session
  /// cap is reached (shed).
  Hello hello(const wire::Token& token, const std::string& name, u64 now_ns);

  /// The one key resolver SUMMARY, REPORT and EVICT use. Tries, in order:
  /// exact path, numeric id, a unique basename or client name, a unique
  /// token prefix of at least 6 hex chars. A key that matches two sessions
  /// at one step resolves to none. Null when unknown or ambiguous.
  std::shared_ptr<Session> find(const std::string& key) const;

  /// One supervision round at the injected clock's current time.
  void tick();

  /// Answers one query-protocol request line (PING/STATUS/SESSIONS/
  /// SUMMARY/REPORT/TELEMETRY/ATTACH/EVICT/SHUTDOWN). Thread-safe; this is
  /// what the socket endpoint calls.
  std::string query(const std::string& request);

  /// Real-time serving loop: endpoint + watchdog + tick/sleep until
  /// stop() (or idle, with exit_when_idle). Finalizes every session on the
  /// way out. Returns 0 on a clean shutdown.
  int run();
  void stop() { stop_.store(true, std::memory_order_release); }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  /// The injected clock's current time (the steady clock by default).
  u64 now_ns() const;
  const ServerOptions& options() const { return opts_; }
  /// The serve.ingest.* handles; null without telemetry.
  const IngestMetrics* ingest_metrics() const { return ingest_metrics_.get(); }

  // Introspection (tests and the tool's final summary).
  size_t session_count() const;
  bool idle() const;  ///< at least one session existed, all finalized
  u64 ticks() const { return heartbeat_.load(std::memory_order_relaxed); }
  u64 watchdog_stalls() const {
    return watchdog_stalls_.load(std::memory_order_relaxed);
  }
  AdmissionController& admission() { return admission_; }
  /// Runs `fn` for every session, in id order, outside the table lock.
  void for_each_session(
      const std::function<void(const Session&)>& fn) const;
  /// Structured state dump (the watchdog's stall diagnosis; also STATUS).
  std::string diagnosis() const;

 private:
  using Table = std::map<u64, std::shared_ptr<Session>>;  // by id

  bool add_file_locked(const std::string& path);
  void scan_dir_locked(u64 now);
  std::vector<std::shared_ptr<Session>> snapshot() const;
  void apply_backpressure(const std::vector<std::shared_ptr<Session>>& all,
                          u64 now);
  void evict_sweep(const std::vector<std::shared_ptr<Session>>& all, u64 now);
  void evict_locked(Table::iterator it);
  /// Wire sessions in the table, and how many of them are still live.
  std::pair<size_t, size_t> wire_counts_locked() const;
  std::string status_locked() const;
  void finalize_all();
  void watchdog_main();

  ServerOptions opts_;
  AdmissionController admission_;
  std::unique_ptr<IngestMetrics> ingest_metrics_;
  mutable std::mutex mu_;  ///< guards the table, ids and the scan schedule
  Table sessions_;
  u64 next_id_ = 1;
  u64 next_scan_ns_ = 0;
  bool ever_attached_ = false;

  obs::Counter* m_ticks_ = nullptr;
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_attached_ = nullptr;
  obs::Counter* m_stalls_ = nullptr;

  std::atomic<u64> heartbeat_{0};
  std::atomic<u64> watchdog_stalls_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
  std::unique_ptr<Endpoint> endpoint_;
  std::unique_ptr<IngestListener> ingest_listener_;
};

}  // namespace gg::serve
