// ggspool-push — stream a GGSPOOL1 spool into a ggserved ingest socket.
//
// The network twin of dropping a spool file into the daemon's --dir: each
// complete frame ships as one GGWIRE1 EPOCH, acked durably by the daemon,
// and the final report is byte-identical to `gganalyze` over the same file.
// Two modes:
//
//   batch (default)  read the whole file, push it, seal, exit;
//   --follow         tail a growing spool like the daemon's own tailer,
//                    pushing frames as the writer seals them; seals the
//                    wire stream when the spool's footer lands (or, after
//                    --idle-ms of silence, with whatever the tail shows).
//
// Connection failures (daemon still starting, daemon restarting) retry
// with capped exponential backoff; mid-push disconnects resume on the
// client's session token with the server deduplicating acked epochs. If
// the daemon lost the session (restart), a batch push restarts from the
// file (WireClient::push_file) — the source of truth is always the spool
// on disk.
//
// --fault arms a deterministic client-side fault plan (chaos scripting):
//   reset | mid-frame-reset | partial-write | duplicate | bit-flip |
//   slowloris | garbage
//
// Exit: 0 pushed + sealed, 1 push failed, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "serve/wire_client.hpp"
#include "trace/spool.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spool> --socket <ingest-socket> [options]\n"
      "  --name <s>         session display name (default: file basename)\n"
      "  --follow           live-follow a growing spool\n"
      "  --idle-ms <n>      --follow: seal after this much silence (5000)\n"
      "  --seed <n>         deterministic token/jitter seed (0: derive)\n"
      "  --attempts <n>     connect/reconnect attempts per op (30)\n"
      "  --backoff-ms <n>   initial reconnect backoff (10)\n"
      "  --fault <kind>     arm a client-side fault plan (chaos testing):\n"
      "                     reset|mid-frame-reset|partial-write|duplicate|\n"
      "                     bit-flip|slowloris|garbage\n"
      "  --fault-seq <n>    1-based epoch seq the fault targets (1)\n"
      "  --fault-repeat <n> injections before the plan disarms (1)\n",
      argv0);
  return 2;
}

bool parse_fault_kind(const std::string& s, gg::fault::WireFaultPlan* plan) {
  using Kind = gg::fault::WireFaultPlan::Kind;
  if (s == "reset") plan->kind = Kind::ResetAtFrame;
  else if (s == "mid-frame-reset") plan->kind = Kind::ResetMidFrame;
  else if (s == "partial-write") plan->kind = Kind::PartialWrite;
  else if (s == "duplicate") plan->kind = Kind::DuplicateFrame;
  else if (s == "bit-flip") plan->kind = Kind::BitFlip;
  else if (s == "slowloris") plan->kind = Kind::Slowloris;
  else if (s == "garbage") plan->kind = Kind::GarbagePreamble;
  else return false;
  return true;
}

/// Live-follow: tail the growing spool, pushing every complete frame the
/// writer seals, until the footer arrives or the file goes silent for
/// idle_ms. Frames are delimited by push_frames, the step batch pushes
/// use, so an idle seal classifies the tail as batch recovery would.
int follow_push(gg::serve::WireClient& client, const std::string& path,
                gg::u64 idle_ms) {
  using namespace gg;
  std::string buf;
  u64 pos = 0;  // consumed offset into buf == stream offset
  bool begun = false;
  spool::FrameStep tail;  // where the last walk stopped
  u64 quiet_ms = 0;
  std::string error;
  const auto fail = [&error] {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  };

  while (true) {
    // Pull whatever the writer appended since the last look.
    std::ifstream in(path, std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const auto size = static_cast<size_t>(in.tellg());
      if (size > buf.size()) {
        in.seekg(static_cast<std::streamoff>(buf.size()));
        std::string delta(size - buf.size(), '\0');
        in.read(delta.data(), static_cast<std::streamsize>(delta.size()));
        buf += delta;
      }
    }

    bool progressed = false;
    if (!begun && buf.size() >= spool::kStreamHeaderBytes) {
      const spool::StreamHeader header = spool::read_stream_header(buf);
      if (!header.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     header.error.c_str());
        return 1;
      }
      if (!client.begin(header.num_workers, &error)) return fail();
      pos = spool::kStreamHeaderBytes;
      begun = true;
      progressed = true;
    }
    if (begun) {
      const u64 before = pos;
      if (!serve::push_frames(client, buf, &pos, &tail, &error))
        return fail();
      progressed = progressed || pos > before;
      // The footer ends the stream. A garbled magic or an overrun length
      // never comes from a live writer: the source is damaged, so seal
      // what we have rather than wait.
      if (tail.footer || tail.step == spool::Step::Garbled ||
          tail.step == spool::Step::Overrun) {
        return serve::seal_at(client, tail, &error) ? 0 : fail();
      }
    }

    if (progressed) {
      quiet_ms = 0;
      continue;
    }
    if (quiet_ms >= idle_ms) {
      // Writer went silent with no footer: seal with what the tail shows,
      // exactly how the daemon's own tailer classifies a stale spool.
      if (!begun && !client.begin(1, &error)) return fail();
      return serve::seal_at(client, tail, &error) ? 0 : fail();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    quiet_ms += 20;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gg;

  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];

  serve::WireClientOptions opts;
  fault::WireFaultPlan plan;
  bool follow = false;
  u64 idle_ms = 5000;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.socket_path = argv[++i];
    } else if (arg == "--name") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.name = argv[++i];
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--idle-ms") {
      if (i + 1 >= argc) return usage(argv[0]);
      idle_ms = static_cast<u64>(std::atol(argv[++i]));
    } else if (arg == "--seed") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.seed = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--attempts") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.max_attempts = static_cast<u32>(std::atol(argv[++i]));
    } else if (arg == "--backoff-ms") {
      if (i + 1 >= argc) return usage(argv[0]);
      opts.backoff_initial_ns =
          static_cast<u64>(std::atol(argv[++i])) * 1'000'000ull;
    } else if (arg == "--fault") {
      if (i + 1 >= argc || !parse_fault_kind(argv[++i], &plan))
        return usage(argv[0]);
    } else if (arg == "--fault-seq") {
      if (i + 1 >= argc) return usage(argv[0]);
      plan.target_seq = static_cast<u32>(std::atol(argv[++i]));
    } else if (arg == "--fault-repeat") {
      if (i + 1 >= argc) return usage(argv[0]);
      plan.repeat = static_cast<u32>(std::atol(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "error: --socket is required\n");
    return usage(argv[0]);
  }
  if (opts.name.empty()) {
    const size_t slash = path.find_last_of('/');
    opts.name = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  if (plan.enabled()) opts.fault = &plan;

  serve::WireClient client(opts);
  std::string error;
  int rc;
  if (follow) {
    rc = follow_push(client, path, idle_ms);
  } else {
    rc = client.push_file(path, &error) ? 0 : 1;
    if (rc != 0) std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  client.bye();
  std::fprintf(stderr,
               "ggspool-push: %s token=%s epochs=%llu acked=%llu "
               "reconnects=%llu faults=%llu %s\n",
               opts.name.c_str(), client.token().hex().substr(0, 12).c_str(),
               static_cast<unsigned long long>(client.epochs_sent()),
               static_cast<unsigned long long>(client.acked_seq()),
               static_cast<unsigned long long>(client.reconnects()),
               static_cast<unsigned long long>(client.faults_injected()),
               rc == 0 ? "sealed" : "FAILED");
  return rc;
}
