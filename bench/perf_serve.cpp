// perf_serve — multi-client GGWIRE1 ingestion stress benchmark.
//
//   perf_serve [--clients N] [--grains G] [--queries Q] [--quick]
//              [--out file.json]
//
// Three phases against a real ggserved core (serve::Server with ingest +
// query sockets), every timed run doubling as a correctness run:
//
//   throughput   N wire clients concurrently push distinct synthesized
//                spools while Q query threads hammer STATUS/SESSIONS over
//                the query socket; gates on every push sealing and on every
//                REPORT answer being byte-identical to the batch spool
//                loader (load_recovered) over the same source bytes.
//   ack-latency  one window=1 client (each EPOCH waits for its durable
//                ACK), per-frame round-trip percentiles.
//   degrade      a deliberately tiny admission budget: concurrent clients
//                have their OFFERs shed while the ladder is degraded, back
//                off, and are admitted as sealed streams get evicted —
//                gates on every shed client eventually sealing (graceful
//                degradation, not collapse).
//
// Gates are correctness-only, never wall time — shared runners are too
// noisy for timing gates. Numbers land in BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/wire_client.hpp"
#include "support/bench_support.hpp"
#include "trace/load_result.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"

namespace {

using namespace gg;

std::string temp_path(const char* tag) {
  static int counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("gg-perf-serve-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(counter++)))
      .string();
}

std::string make_spool_bytes(u64 seed, u64 grains) {
  SynthOptions opts;
  opts.seed = seed;
  opts.workers = 4;
  opts.grains = grains;
  return spool::spool_trace_bytes(synth_trace(opts), /*epoch_bytes=*/512);
}

/// The batch spool loader over the source bytes — the reference side of
/// the wire/batch parity gate.
std::string batch_report(const std::string& bytes) {
  const LoadResult lr = load_recovered(spool::recover_spool_bytes(bytes));
  return lr.usable() ? serve::analysis_report_text(*lr.trace) : "";
}

serve::WireClientOptions client_opts(const std::string& socket,
                                     const std::string& name, u64 seed) {
  serve::WireClientOptions o;
  o.socket_path = socket;
  o.name = name;
  o.seed = seed;
  o.backoff_initial_ns = 1'000'000;    // 1ms
  o.backoff_max_ns = 100'000'000;      // 100ms
  o.max_attempts = 100;
  return o;
}

u64 percentile(std::vector<u64> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = v.size() * static_cast<size_t>(p) / 100;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// Extracts the `level=<name>` token from a STATUS line.
std::string status_level(const std::string& status) {
  const size_t at = status.find("level=");
  if (at == std::string::npos) return {};
  const size_t end = status.find(' ', at);
  return status.substr(at + 6, end == std::string::npos ? std::string::npos
                                                        : end - at - 6);
}

struct ThroughputResult {
  bool pushes_ok = true;
  bool parity_ok = true;
  u64 wall_ns = 0;
  u64 epochs = 0;
  u64 queries_served = 0;
};

ThroughputResult run_throughput(int clients, int queries, u64 grains) {
  serve::ServerOptions sopts;
  sopts.ingest_socket_path = temp_path("ingest");
  sopts.socket_path = temp_path("query");
  serve::Server server(sopts);
  std::thread runner([&server] { server.run(); });

  std::vector<std::string> spools;
  std::vector<std::string> names;
  for (int c = 0; c < clients; ++c) {
    spools.push_back(make_spool_bytes(1000 + static_cast<u64>(c), grains));
    names.push_back("push-" + std::to_string(c));
  }

  ThroughputResult res;
  std::atomic<bool> pushing{true};
  std::atomic<u64> served{0};
  std::vector<std::thread> query_pool;
  for (int q = 0; q < queries; ++q) {
    query_pool.emplace_back([&, q] {
      u64 n = 0;
      while (pushing.load(std::memory_order_acquire)) {
        std::string resp, err;
        const char* verb = (n + static_cast<u64>(q)) % 2 == 0 ? "STATUS"
                                                              : "SESSIONS";
        if (serve::endpoint_request_retry(sopts.socket_path, verb,
                                          /*max_attempts=*/20,
                                          /*backoff_initial_ns=*/1'000'000,
                                          /*backoff_max_ns=*/50'000'000,
                                          &resp, &err))
          ++n;
      }
      served.fetch_add(n, std::memory_order_acq_rel);
    });
  }

  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  std::atomic<u64> epochs{0};
  const u64 t0 = obs::mono_ns();
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      serve::WireClient client(client_opts(
          sopts.ingest_socket_path, names[static_cast<size_t>(c)],
          500 + static_cast<u64>(c)));
      std::string err;
      if (!client.push_bytes(spools[static_cast<size_t>(c)], &err)) {
        std::fprintf(stderr, "error: push %s failed: %s\n",
                     names[static_cast<size_t>(c)].c_str(), err.c_str());
        failures.fetch_add(1, std::memory_order_acq_rel);
      }
      epochs.fetch_add(client.epochs_sent(), std::memory_order_acq_rel);
      client.bye();
    });
  }
  for (auto& t : pool) t.join();
  res.wall_ns = obs::mono_ns() - t0;
  pushing.store(false, std::memory_order_release);
  for (auto& t : query_pool) t.join();
  res.pushes_ok = failures.load() == 0;
  res.epochs = epochs.load();
  res.queries_served = served.load();

  // Parity: every stream's REPORT over the query socket must match batch
  // recovery over the same source bytes.
  for (int c = 0; c < clients; ++c) {
    const std::string batch = batch_report(spools[static_cast<size_t>(c)]);
    std::string resp, err;
    if (batch.empty() ||
        !serve::endpoint_request(sopts.socket_path,
                                 "REPORT " + names[static_cast<size_t>(c)],
                                 &resp, &err) ||
        resp != batch) {
      std::fprintf(stderr, "error: report parity failed for %s\n",
                   names[static_cast<size_t>(c)].c_str());
      res.parity_ok = false;
    }
  }

  server.stop();
  runner.join();
  return res;
}

struct AckLatencyResult {
  bool ok = true;
  u64 frames = 0;
  u64 p50_ns = 0;
  u64 p95_ns = 0;
  u64 p99_ns = 0;
};

AckLatencyResult run_ack_latency(u64 grains) {
  serve::ServerOptions sopts;
  sopts.ingest_socket_path = temp_path("ack");
  serve::Server server(sopts);
  std::thread runner([&server] { server.run(); });

  const std::string bytes = make_spool_bytes(77, grains);
  const auto frames = spool::scan_frames(bytes);

  serve::WireClientOptions copts =
      client_opts(sopts.ingest_socket_path, "ack-probe", 77);
  copts.window = 1;  // every EPOCH waits for its durable ACK: RTT per frame
  serve::WireClient client(copts);

  AckLatencyResult res;
  std::string err;
  std::vector<u64> rtts;
  if (!client.begin(spool::read_stream_header(bytes).num_workers, &err)) {
    std::fprintf(stderr, "error: ack-latency begin: %s\n", err.c_str());
    res.ok = false;
  }
  for (const auto& f : frames) {
    if (!res.ok) break;
    const u64 t0 = obs::mono_ns();
    if (!client.send_frame(
            std::string_view(bytes.data() + f.offset, f.size), f.offset,
            &err)) {
      std::fprintf(stderr, "error: ack-latency send: %s\n", err.c_str());
      res.ok = false;
      break;
    }
    rtts.push_back(obs::mono_ns() - t0);
  }
  if (res.ok &&
      !client.seal(serve::wire::EndKind::Clean, bytes.size(), 0, &err)) {
    std::fprintf(stderr, "error: ack-latency seal: %s\n", err.c_str());
    res.ok = false;
  }
  client.bye();
  res.frames = rtts.size();
  res.p50_ns = percentile(rtts, 50);
  res.p95_ns = percentile(rtts, 95);
  res.p99_ns = percentile(rtts, 99);

  server.stop();
  runner.join();
  return res;
}

struct DegradeResult {
  bool pushes_ok = true;
  bool shed_observed = false;
  u64 level_transitions = 0;
  u64 reconnects = 0;
  std::string max_level = "normal";
};

DegradeResult run_degrade(int clients, u64 grains) {
  serve::ServerOptions sopts;
  sopts.ingest_socket_path = temp_path("degrade");
  // A budget small enough that concurrent streams must cross the shed
  // threshold; sealed streams are evicted quickly so the ladder recovers
  // and shed clients get admitted on retry.
  sopts.admission.budget_bytes = 256 * 1024;
  sopts.admission.shed_fraction = 0.5;
  sopts.admission.pause_fraction = 0.75;
  sopts.session.evict_after_ns = 300'000'000;  // 300ms after seal
  serve::Server server(sopts);
  std::thread runner([&server] { server.run(); });

  std::atomic<bool> sampling{true};
  DegradeResult res;
  std::thread sampler([&] {
    std::string last;
    int rank_max = 0;
    while (sampling.load(std::memory_order_acquire)) {
      const std::string level = status_level(server.query("STATUS"));
      if (!level.empty() && level != last) {
        if (!last.empty()) ++res.level_transitions;
        last = level;
        const int rank = level == "normal" ? 0 : 1;
        if (level != "normal") res.shed_observed = true;
        if (rank >= rank_max) {
          rank_max = rank;
          if (level != "normal") res.max_level = level;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  std::atomic<u64> reconnects{0};
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      // Staggered starts: the first push degrades the ladder before later
      // OFFERs arrive, so later clients really are shed and must ride the
      // backoff loop until eviction recovers the budget.
      std::this_thread::sleep_for(std::chrono::milliseconds(25 * c));
      const std::string bytes =
          make_spool_bytes(3000 + static_cast<u64>(c), grains);
      serve::WireClient client(
          client_opts(sopts.ingest_socket_path,
                      "shed-" + std::to_string(c), 900 + static_cast<u64>(c)));
      std::string err;
      if (!client.push_bytes(bytes, &err)) {
        std::fprintf(stderr, "error: degrade push %d failed: %s\n", c,
                     err.c_str());
        failures.fetch_add(1, std::memory_order_acq_rel);
      }
      reconnects.fetch_add(client.reconnects(), std::memory_order_acq_rel);
      client.bye();
    });
  }
  for (auto& t : pool) t.join();
  sampling.store(false, std::memory_order_release);
  sampler.join();
  res.pushes_ok = failures.load() == 0;
  res.reconnects = reconnects.load();

  server.stop();
  runner.join();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 8;
  int queries = 2;
  u64 grains = 5000;
  std::string out_json = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      clients = std::atoi(value());
    } else if (arg == "--grains") {
      grains = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--queries") {
      queries = std::atoi(value());
    } else if (arg == "--quick") {
      clients = 4;
      grains = 1000;
    } else if (arg == "--out") {
      out_json = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients N] [--grains G] [--queries Q] "
                   "[--quick] [--out file.json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (clients < 1) clients = 1;

  bench::print_header(
      "GGWIRE1 multi-client ingestion stress (wire push vs batch parity)",
      "n/a (daemon-substrate benchmark; gates are correctness-only)");

  const ThroughputResult tp = run_throughput(clients, queries, grains);
  const double wall_ms = static_cast<double>(tp.wall_ns) / 1e6;
  const double eps = tp.wall_ns > 0
                         ? static_cast<double>(tp.epochs) /
                               (static_cast<double>(tp.wall_ns) / 1e9)
                         : 0.0;
  std::printf("throughput: clients=%d grains=%llu epochs=%llu wall=%.1fms "
              "epochs/s=%.0f queries=%llu pushes=%s parity=%s\n",
              clients, static_cast<unsigned long long>(grains),
              static_cast<unsigned long long>(tp.epochs), wall_ms, eps,
              static_cast<unsigned long long>(tp.queries_served),
              tp.pushes_ok ? "ok" : "FAIL", tp.parity_ok ? "ok" : "FAIL");

  const AckLatencyResult al = run_ack_latency(std::min<u64>(grains, 2000));
  std::printf("ack-latency: frames=%llu p50=%.1fus p95=%.1fus p99=%.1fus "
              "%s\n",
              static_cast<unsigned long long>(al.frames),
              static_cast<double>(al.p50_ns) / 1e3,
              static_cast<double>(al.p95_ns) / 1e3,
              static_cast<double>(al.p99_ns) / 1e3,
              al.ok ? "ok" : "FAIL");

  const DegradeResult dg = run_degrade(clients, grains);
  std::printf("degrade: pushes=%s shed_observed=%s transitions=%llu "
              "max_level=%s client_reconnects=%llu\n",
              dg.pushes_ok ? "ok" : "FAIL",
              dg.shed_observed ? "true" : "false",
              static_cast<unsigned long long>(dg.level_transitions),
              dg.max_level.c_str(),
              static_cast<unsigned long long>(dg.reconnects));

  const bool pass = tp.pushes_ok && tp.parity_ok && al.ok && dg.pushes_ok;

  std::ofstream os(out_json);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", out_json.c_str());
    return 1;
  }
  os << "{\n  \"bench\": \"perf_serve\",\n  \"clients\": " << clients
     << ",\n  \"grains\": " << grains << ",\n  \"throughput\": {"
     << "\"wall_ms\": " << wall_ms << ", \"epochs\": " << tp.epochs
     << ", \"epochs_per_s\": " << eps
     << ", \"queries_served\": " << tp.queries_served
     << ", \"pushes_ok\": " << (tp.pushes_ok ? "true" : "false")
     << ", \"parity_ok\": " << (tp.parity_ok ? "true" : "false")
     << "},\n  \"ack_latency\": {\"frames\": " << al.frames
     << ", \"p50_us\": " << static_cast<double>(al.p50_ns) / 1e3
     << ", \"p95_us\": " << static_cast<double>(al.p95_ns) / 1e3
     << ", \"p99_us\": " << static_cast<double>(al.p99_ns) / 1e3
     << ", \"ok\": " << (al.ok ? "true" : "false")
     << "},\n  \"degrade\": {"
     << "\"pushes_ok\": " << (dg.pushes_ok ? "true" : "false")
     << ", \"shed_observed\": " << (dg.shed_observed ? "true" : "false")
     << ", \"level_transitions\": " << dg.level_transitions
     << ", \"max_level\": \"" << dg.max_level << "\""
     << ", \"client_reconnects\": " << dg.reconnects
     << "},\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  os.close();
  std::printf("wrote %s\n", out_json.c_str());
  return pass ? 0 : 1;
}
