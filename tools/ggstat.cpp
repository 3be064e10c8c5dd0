// ggstat — live spool monitor: pretty-prints the telemetry ('T') frames a
// running (or finished, or crashed) engine streams into its GGSPOOL1 file.
//
// Unlike gganalyze on a spool, ggstat never replays records: it walks frame
// headers, verifies only the frames it reads, and decodes the 'M' meta and
// 'T' telemetry payloads. That makes it cheap enough to run against a live
// spool while workers are still appending to it.
//
// Usage:
//   ggstat <run.ggspool> [options]
//     --follow         poll the file and print a progress line whenever a
//                      new telemetry frame lands; exits when the footer
//                      ('F' clean or 'C' crash) appears
//     --interval <ms>      base polling interval for --follow (default 100)
//     --max-interval <ms>  backoff ceiling for --follow when the file is
//                          not growing (default 2000)
//     --json           one-shot mode: emit the last snapshot as JSON
//                      instead of the aligned text dump
//   ggstat --connect <socket> [REQUEST ...]
//     sends one query line to a running ggserved (default STATUS) and
//     prints the response; e.g. `ggstat --connect /tmp/gg.sock SESSIONS`.
//
// --follow stats the file before touching it: an unchanged size means no
// read, no re-scan, and an exponentially backed-off sleep (interval
// doubling up to --max-interval, reset the moment the file grows), so
// following an idle spool costs ~0 CPU instead of a full re-parse per
// tick.
//
// Exit codes: 0 footer seen (clean or crash) or one-shot success; 1 the
// file is not a spool / unreadable; 2 usage error. A spool with no valid
// telemetry frames reports "telemetry unavailable" and still exits 0 —
// telemetry is advisory by design.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "serve/endpoint.hpp"
#include "trace/spool.hpp"
#include "trace/trace.hpp"

namespace {

using namespace gg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <run.ggspool> [--follow] [--interval ms]\n"
               "       [--max-interval ms] [--json]\n"
               "   or: %s --connect <socket> [REQUEST ...]\n"
               "  tails the spool's telemetry ('T') frames: run identity,\n"
               "  progress, epoch rate, per-worker health. --follow exits\n"
               "  when the run writes its footer (clean or crash).\n"
               "  --connect queries a running ggserved instead (default\n"
               "  request: STATUS).\n",
               argv0, argv0);
  return 2;
}

/// What one scan pass over the currently-readable bytes yields.
struct SpoolView {
  bool is_spool = false;
  std::optional<TraceMeta> meta;   ///< from the first valid 'M' frame
  obs::MetricsSnapshot telemetry;  ///< last valid 'T' payload, decoded
  u64 telemetry_frames = 0;        ///< valid 'T' frames
  u64 telemetry_corrupt = 0;       ///< 'T' frames failing checksum/decode
  u64 epoch_frames = 0;
  u64 frames_total = 0;
  bool clean_footer = false;
  bool crash_footer = false;
};

/// Walks the frames with spool::next_frame, so the scan stops where
/// recovery does: at a damaged header or after the verified footer.
SpoolView scan(std::string_view bytes) {
  SpoolView v;
  if (!spool::looks_like_spool(bytes)) return v;
  v.is_spool = true;
  for (u64 pos = spool::kStreamHeaderBytes;;) {
    const spool::FrameStep f = spool::next_frame(bytes, pos);
    if (f.step != spool::Step::Frame) break;
    pos += f.size();
    ++v.frames_total;
    switch (f.type) {
      case spool::FrameType::Meta:
      case spool::FrameType::CleanFooter: {
        if (!f.verifies()) break;
        TraceMeta meta;
        if (spool::decode_meta_payload(f.payload, &meta)) {
          v.meta = std::move(meta);  // footer meta supersedes the header's
        }
        break;
      }
      case spool::FrameType::Epoch:
        ++v.epoch_frames;
        break;
      case spool::FrameType::Telemetry: {
        obs::MetricsSnapshot snap;
        if (f.verifies() &&
            obs::decode_telemetry_payload(f.payload, &snap)) {
          v.telemetry = std::move(snap);  // keep the latest
          ++v.telemetry_frames;
        } else {
          ++v.telemetry_corrupt;
        }
        break;
      }
      default:
        break;  // strings/dump frames carry nothing ggstat reports
    }
    if (f.footer) {
      v.clean_footer = f.type == spool::FrameType::CleanFooter;
      v.crash_footer = !v.clean_footer;
      break;
    }
  }
  return v;
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    *ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  *ok = true;
  return std::move(ss).str();
}

double gauge_of(const obs::MetricsSnapshot& s, const std::string& name,
                double fallback = 0.0) {
  auto it = s.gauges.find(name);
  return it != s.gauges.end() ? it->second : fallback;
}

u64 counter_of(const obs::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it != s.counters.end() ? it->second : 0;
}

void print_identity(const SpoolView& v) {
  if (v.meta.has_value()) {
    std::printf("program %s (%s), %d workers on %s, clock %s\n",
                v.meta->program.c_str(), v.meta->runtime.c_str(),
                v.meta->num_workers, v.meta->topology.c_str(),
                v.meta->clock_source.empty() ? "unknown"
                                             : v.meta->clock_source.c_str());
  } else {
    std::printf("program (meta frame not yet written)\n");
  }
}

/// Per-worker health line from the engine.worker.N.* gauges. Worker state
/// values mirror rts::WorkerState: 0 idle, 1 exec, 2 taskwait, 3 loopwait.
void print_workers(const obs::MetricsSnapshot& s) {
  static const char* const kStates[] = {"idle", "exec", "taskwait",
                                        "loopwait"};
  for (int w = 0; w < 4096; ++w) {
    const std::string base = "engine.worker." + std::to_string(w) + ".";
    auto hb = s.gauges.find(base + "heartbeat");
    if (hb == s.gauges.end()) break;
    const int state = static_cast<int>(gauge_of(s, base + "state"));
    std::printf("  worker %2d: heartbeat %10.0f, %s, queue depth %.0f\n", w,
                hb->second,
                state >= 0 && state < 4 ? kStates[state] : "?",
                gauge_of(s, base + "queue_depth"));
  }
}

void print_snapshot(const SpoolView& v, bool json) {
  if (v.telemetry_frames == 0) {
    std::printf("telemetry unavailable (%s)\n",
                v.telemetry_corrupt > 0 ? "all frames corrupt"
                                        : "no 'T' frames in spool");
    return;
  }
  if (json) {
    obs::render_json(std::cout, v.telemetry);
    return;
  }
  obs::render_text(std::cout, v.telemetry);
  print_workers(v.telemetry);
}

int one_shot(const std::string& path, bool json) {
  bool ok = false;
  const std::string bytes = read_file(path, &ok);
  if (!ok) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  const SpoolView v = scan(bytes);
  if (!v.is_spool) {
    std::fprintf(stderr, "error: %s is not a GGSPOOL1 file\n", path.c_str());
    return 1;
  }
  if (!json) {
    print_identity(v);
    std::printf("frames %" PRIu64 " (%" PRIu64 " epochs, %" PRIu64
                " telemetry", v.frames_total, v.epoch_frames,
                v.telemetry_frames);
    if (v.telemetry_corrupt > 0) {
      std::printf(", %" PRIu64 " corrupt", v.telemetry_corrupt);
    }
    std::printf("), %s\n", v.clean_footer   ? "clean footer"
                           : v.crash_footer ? "CRASH footer"
                                            : "no footer (live or torn)");
  }
  print_snapshot(v, json);
  return 0;
}

int follow(const std::string& path, int interval_ms, int max_interval_ms) {
  u64 last_epochs = 0;
  u64 last_ts_ns = 0;
  u64 printed_frames = 0;
  bool printed_identity = false;
  // Backoff state: sleep doubles from the base interval up to the ceiling
  // while the file does not grow, and snaps back the moment it does. -1
  // means "size unknown" (first pass / file absent), which always reads.
  long long last_size = -1;
  int sleep_ms = interval_ms;
  for (;;) {
    struct stat st;
    const bool statted = ::stat(path.c_str(), &st) == 0;
    if (statted && static_cast<long long>(st.st_size) == last_size) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      sleep_ms = std::min(sleep_ms * 2, max_interval_ms);
      continue;  // unchanged: no read, no re-scan
    }
    if (statted) last_size = static_cast<long long>(st.st_size);
    sleep_ms = interval_ms;
    bool ok = false;
    const std::string bytes = read_file(path, &ok);
    if (ok) {
      const SpoolView v = scan(bytes);
      if (!v.is_spool && bytes.size() >= spool::kSpoolMagic.size()) {
        std::fprintf(stderr, "error: %s is not a GGSPOOL1 file\n",
                     path.c_str());
        return 1;
      }
      if (v.is_spool) {
        if (!printed_identity && v.meta.has_value()) {
          print_identity(v);
          printed_identity = true;
        }
        if (v.telemetry_frames > printed_frames) {
          printed_frames = v.telemetry_frames;
          const obs::MetricsSnapshot& s = v.telemetry;
          const u64 executed = counter_of(s, "engine.tasks_executed");
          const u64 spawned = counter_of(s, "engine.tasks_spawned");
          const double progress = gauge_of(s, "engine.progress");
          const double live = gauge_of(s, "engine.live_tasks");
          // Epoch rate across successive snapshots (wall-clock based).
          double epochs_per_sec = 0.0;
          const double epochs = gauge_of(s, "spool.epochs_sealed");
          if (last_ts_ns != 0 && s.ts_ns > last_ts_ns &&
              epochs >= static_cast<double>(last_epochs)) {
            epochs_per_sec = (epochs - static_cast<double>(last_epochs)) *
                             1e9 / static_cast<double>(s.ts_ns - last_ts_ns);
          }
          last_epochs = static_cast<u64>(epochs);
          last_ts_ns = s.ts_ns;
          const double pct =
              spawned > 0 ? 100.0 * static_cast<double>(executed) /
                                static_cast<double>(spawned)
                          : 0.0;
          std::printf("[T %3" PRIu64 "] grains %.0f, tasks %" PRIu64 "/%"
                      PRIu64 " (%.0f%%), live %.0f, steals %" PRIu64
                      ", epochs %.0f (%.1f/s)\n",
                      v.telemetry_frames, progress, executed, spawned, pct,
                      live, counter_of(s, "engine.steals"), epochs,
                      epochs_per_sec);
          std::fflush(stdout);
        }
        if (v.clean_footer || v.crash_footer) {
          std::printf("run finished: %s (%" PRIu64 " frames, %" PRIu64
                      " telemetry snapshots%s)\n",
                      v.clean_footer ? "clean" : "CRASHED", v.frames_total,
                      v.telemetry_frames,
                      v.telemetry_corrupt > 0 ? ", some corrupt" : "");
          if (v.telemetry_frames > 0) print_workers(v.telemetry);
          return 0;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int connect_mode(const std::string& socket_path,
                 const std::string& request) {
  std::string response, error;
  // Retry connection failures with capped backoff: scripts routinely start
  // ggserved and query it in the same breath, racing the socket's bind.
  if (!gg::serve::endpoint_request_retry(socket_path, request,
                                         /*max_attempts=*/20,
                                         /*backoff_initial_ns=*/10'000'000,
                                         /*backoff_max_ns=*/500'000'000,
                                         &response, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fwrite(response.data(), 1, response.size(), stdout);
  if (!response.empty() && response.back() != '\n') std::printf("\n");
  return response.rfind("ERR", 0) == 0 ? 1 : 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  if (std::string(argv[1]) == "--connect") {
    if (argc < 3) return usage(argv[0]);
    std::string request;
    for (int i = 3; i < argc; ++i) {
      if (!request.empty()) request += ' ';
      request += argv[i];
    }
    if (request.empty()) request = "STATUS";
    return connect_mode(argv[2], request);
  }
  const std::string path = argv[1];
  bool follow_mode = false, json = false;
  int interval_ms = 100;
  int max_interval_ms = 2000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow_mode = true;
    } else if (arg == "--interval") {
      if (i + 1 >= argc) return usage(argv[0]);
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms <= 0) {
        std::fprintf(stderr, "--interval expects a positive ms count\n");
        return 2;
      }
    } else if (arg == "--max-interval") {
      if (i + 1 >= argc) return usage(argv[0]);
      max_interval_ms = std::atoi(argv[++i]);
      if (max_interval_ms <= 0) {
        std::fprintf(stderr, "--max-interval expects a positive ms count\n");
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (follow_mode && json) {
    std::fprintf(stderr, "--follow and --json are mutually exclusive\n");
    return 2;
  }
  max_interval_ms = std::max(max_interval_ms, interval_ms);
  return follow_mode ? follow(path, interval_ms, max_interval_ms)
                     : one_shot(path, json);
}
