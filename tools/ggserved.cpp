// ggserved — fault-tolerant streaming ingestion daemon.
//
// Tails every *.ggspool file in a directory (and/or explicitly attached
// paths), folding sealed epoch frames into per-client incremental traces
// as they land, and answers queries over an AF_UNIX socket (client:
// `ggstat --connect`). The resilience contract lives in src/serve/:
//
//  * torn tails retry with bounded exponential backoff and only escalate
//    past a deadline when a later valid frame proves real damage — one bad
//    frame loses one epoch, never the session;
//  * writer death is detected via the crash-provenance footer or footer-
//    less staleness, and the session hands itself to the batch loader's
//    spool hand-off (load_recovered: salvage + validate), so its final
//    metrics are byte-identical to `gganalyze` over the same spool;
//  * one global admission budget bounds resident memory: heavy queries and
//    new wire streams are shed first, then tailers pause, then idle
//    finalized sessions are evicted — the daemon degrades, it never aborts;
//  * a watchdog thread supervises the ingest loop itself and dumps a
//    structured diagnosis to stderr if the heartbeat freezes.
//
//  * the --ingest-socket accepts GGWIRE1 pushes (client: ggspool-push or a
//    recorder's frame tap): token-keyed resumable sessions, acked epochs,
//    wire damage poisons only the connection — never an accepted stream.
//    Tailed and pushed spools are sessions of one table, with one id space
//    and the same query surface.
//
// Usage:
//   ggserved --dir <spool-dir> [options]
//     --socket <path>          query endpoint (AF_UNIX); off by default
//     --ingest-socket <path>   GGWIRE1 network ingestion socket; off by
//                              default
//     --ingest-sessions <n>    max concurrent unfinished wire streams (64)
//     --ingest-conns <n>       max concurrent ingest connections (64)
//     --ingest-stale-ms <ms>   abandoned wire stream finalized (def 30000)
//     --read-deadline-ms <ms>  per-connection slowloris deadline, both
//                              sockets (def 5000 query / 10000 ingest)
//     --budget <MiB>           admission budget (default 256)
//     --poll-ms <ms>           tick sleep (default 2)
//     --stale-ms <ms>          footer-less writer presumed dead (def 10000)
//     --evict-ms <ms>          idle finalized session, file or wire,
//                              evicted (def 60000)
//     --torn-deadline-ms <ms>  stuck-tail escalation deadline (def 5000)
//     --scan-ms <ms>           directory re-scan period (default 500)
//     --telemetry              publish serve.* metrics (TELEMETRY query)
//     --exit-when-idle         exit 0 once every session finalized (soak)
//     --attach <spool>         attach one file (repeatable; --dir optional)
//
// SIGTERM/SIGINT request a graceful shutdown: every live session is
// finalized (batch-identical recovery for crashed writers) and a final
// per-session summary goes to stderr. Exit 0 on clean shutdown, 1 on a
// setup failure (bad directory, unusable socket), 2 on a usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

gg::serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir d] [--attach spool]... [--socket s] [--budget MiB]\n"
      "       [--ingest-socket s] [--ingest-sessions n] [--ingest-conns n]\n"
      "       [--ingest-stale-ms n] [--read-deadline-ms n]\n"
      "       [--poll-ms n] [--stale-ms n] [--evict-ms n]\n"
      "       [--torn-deadline-ms n] [--scan-ms n] [--telemetry]\n"
      "       [--exit-when-idle]\n"
      "  tails *.ggspool files and accepts GGWIRE1 pushes, ingesting epochs\n"
      "  live with crash recovery, bounded memory and graceful degradation;\n"
      "  query it with `ggstat --connect <socket>`, push with\n"
      "  `ggspool-push --socket <ingest-socket>`.\n",
      argv0);
  return 2;
}

bool parse_ms(int argc, char** argv, int* i, gg::u64* out_ns) {
  if (*i + 1 >= argc) return false;
  const long v = std::atol(argv[++*i]);
  if (v <= 0) return false;
  *out_ns = static_cast<gg::u64>(v) * 1'000'000ull;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gg;

  serve::ServerOptions opts;
  std::vector<std::string> attach;
  bool telemetry = false;
  u64 budget_mib = 256;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.dir = argv[++i];
    } else if (arg == "--attach") {
      if (i + 1 >= argc) return usage(argv[0]);
      attach.push_back(argv[++i]);
    } else if (arg == "--socket") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.socket_path = argv[++i];
    } else if (arg == "--ingest-socket") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.ingest_socket_path = argv[++i];
    } else if (arg == "--ingest-sessions") {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::atol(argv[++i]);
      if (v <= 0) return usage(argv[0]);
      opts.ingest.max_sessions = static_cast<size_t>(v);
    } else if (arg == "--ingest-conns") {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::atol(argv[++i]);
      if (v <= 0) return usage(argv[0]);
      opts.ingest.max_connections = static_cast<size_t>(v);
    } else if (arg == "--ingest-stale-ms") {
      if (!parse_ms(argc, argv, &i, &opts.ingest.stale_after_ns))
        return usage(argv[0]);
    } else if (arg == "--read-deadline-ms") {
      if (!parse_ms(argc, argv, &i, &opts.query_read_deadline_ns))
        return usage(argv[0]);
      opts.ingest.read_deadline_ns = opts.query_read_deadline_ns;
    } else if (arg == "--budget") {
      if (i + 1 >= argc) return usage(argv[0]);
      const long v = std::atol(argv[++i]);
      if (v <= 0) return usage(argv[0]);
      budget_mib = static_cast<u64>(v);
    } else if (arg == "--poll-ms") {
      if (!parse_ms(argc, argv, &i, &opts.tick_sleep_ns))
        return usage(argv[0]);
    } else if (arg == "--stale-ms") {
      if (!parse_ms(argc, argv, &i, &opts.session.stale_after_ns))
        return usage(argv[0]);
    } else if (arg == "--evict-ms") {
      if (!parse_ms(argc, argv, &i, &opts.session.evict_after_ns))
        return usage(argv[0]);
    } else if (arg == "--torn-deadline-ms") {
      if (!parse_ms(argc, argv, &i, &opts.session.tailer.torn_deadline_ns))
        return usage(argv[0]);
    } else if (arg == "--scan-ms") {
      if (!parse_ms(argc, argv, &i, &opts.scan_interval_ns))
        return usage(argv[0]);
    } else if (arg == "--telemetry") {
      telemetry = true;
    } else if (arg == "--exit-when-idle") {
      opts.exit_when_idle = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.dir.empty() && attach.empty() &&
      opts.ingest_socket_path.empty()) {
    std::fprintf(stderr,
                 "error: need --dir, --attach, or --ingest-socket\n");
    return usage(argv[0]);
  }
  opts.admission.budget_bytes = budget_mib << 20;

  obs::Registry registry;
  if (telemetry) opts.telemetry = &registry;

  serve::Server server(opts);
  for (const std::string& path : attach) server.attach(path);

  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const int rc = server.run();
  g_server = nullptr;

  // Final per-session accounting — this is what the soak harness asserts:
  // every session either sealed cleanly, recovered from a crash, or was
  // explicitly failed/evicted, never silently dropped.
  std::fprintf(stderr, "ggserved: shutdown after %llu ticks, %zu sessions\n",
               static_cast<unsigned long long>(server.ticks()),
               server.session_count());
  server.for_each_session([](const serve::Session& s) {
    std::fprintf(stderr, "  %s\n", s.status_line().c_str());
  });
  return rc;
}
