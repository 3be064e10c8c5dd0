// The serve layer, measured as probes of the traced `profile` run.
//
// The shipped ggserved daemon runs as its own process with default
// admission. One round runs against a freshly started daemon (the start is
// not timed):
//  * ingest phase, closed loop: 2 GGWIRE1 client threads each push 100
//    runs, one after another. A run is a 2,000-grain synthetic trace spooled
//    at the recorder's default 64 KiB epochs (~76 MB per round, inside the
//    256 MiB budget, so admission stays `normal`);
//  * query phase, closed loop on one client: 100 REPORTs, 80 % to 10 hot
//    sessions and 20 % to sessions not yet queried.
// This exercises wire decode, the incremental trace, session finalize, and
// the analysis layer on small traces: the analysis layer of `analyze`, at
// the opposite size. An answer cache would speed up the hot queries but not
// the cold ones, which fill the latency tail.
//
// Rounds are not an end-to-end workload: their wall time drifts by up to
// 80 % with the host's state (thousands of thread starts and socket
// hand-offs per round), far past any bound a regression check could use.
// Every answer is checked against batch recovery of the same bytes
// (perf_serve's parity rule).
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <random>
#include <thread>

#include "serve/endpoint.hpp"
#include "serve/server.hpp"  // analysis_report_text, recovery_degraded
#include "serve/wire_client.hpp"
#include "trace/salvage.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"
#include "workload.hpp"

namespace ggbench {

namespace {

using namespace gg;

constexpr int kClients = 2;
constexpr int kRunsPerClient = 100;
constexpr int kRuns = kClients * kRunsPerClient;
constexpr u64 kGrainsPerRun = 2000;
constexpr u64 kEpochBytes = 64 * 1024;
constexpr int kReports = 100;
constexpr int kHot = 10;
constexpr int kCold = 20;
constexpr int kProbeQueries = 10;
constexpr int kRounds = 3;
constexpr int64_t kDaemonDeadlineNs = 20'000'000'000;

std::string run_name(size_t i) { return "run-" + std::to_string(i); }

/// A ggserved child process with a query and an ingest socket.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill_now(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the daemon and returns once it answers PING and its ingest
  /// socket exists, so no timed client ever waits in connect backoff.
  bool start(const std::string& exe, const std::string& dir,
             std::string* error) {
    query_sock_ = dir + "/q.sock";
    ingest_sock_ = dir + "/i.sock";
    std::filesystem::remove(query_sock_);
    std::filesystem::remove(ingest_sock_);
    const std::string log = dir + "/ggserved.log";
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) {
      *error = "cannot open " + log;
      return false;
    }
    std::vector<std::string> args = {exe, "--socket", query_sock_,
                                      "--ingest-socket", ingest_sock_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    const int64_t deadline = now_ns() + kDaemonDeadlineNs;
    while (now_ns() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "ggserved exited during start-up (see " + log + ")";
        return false;
      }
      std::string resp, err;
      if (std::filesystem::exists(ingest_sock_) &&
          serve::endpoint_request(query_sock_, "PING", &resp, &err) &&
          resp == "PONG\n")
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *error = "ggserved did not answer PING";
    return false;
  }

  std::string request(const std::string& req) const {
    std::string resp, err;
    if (!serve::endpoint_request(query_sock_, req, &resp, &err))
      return "ERR transport: " + err;
    return resp;
  }

  /// SHUTDOWN and wait for exit; SIGKILL past the deadline counts as a
  /// failure.
  bool stop(std::string* error) {
    if (pid_ < 0) return true;
    request("SHUTDOWN");
    const int64_t deadline = now_ns() + kDaemonDeadlineNs;
    int status = 0;
    while (now_ns() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
        *error = "ggserved exited with status " + std::to_string(status);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill_now();
    *error = "ggserved did not shut down";
    return false;
  }

  const std::string& ingest_socket() const { return ingest_sock_; }

 private:
  void kill_now() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::string query_sock_;
  std::string ingest_sock_;
};

struct Inputs {
  std::vector<std::string> spools;
  u64 bytes = 0;
  u64 grains = 0;
};

Inputs make_inputs(u64 seed) {
  Inputs in;
  for (size_t i = 0; i < kRuns; ++i) {
    SynthOptions so;
    so.seed = seed * 1'000'003ull + i;
    so.grains = kGrainsPerRun;
    const Trace t = synth_trace(so);
    in.grains += t.grain_count();
    in.spools.push_back(spool::spool_trace_bytes(t, kEpochBytes));
    in.bytes += in.spools.back().size();
  }
  return in;
}

/// The batch `gganalyze --recover` pipeline over one run's bytes.
std::string batch_report(const std::string& bytes) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  if (!rr.usable) return {};
  if (serve::recovery_degraded(rr.report)) salvage_trace(rr.trace);
  if (!validate_trace(rr.trace).empty()) return {};
  return serve::analysis_report_text(rr.trace);
}

/// The REPORT targets of one round: 80 % to kHot sessions, 20 % to
/// sessions queried once each, in a seeded order.
std::vector<size_t> query_plan(std::mt19937_64& rng) {
  std::vector<size_t> ids(kRuns);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  std::vector<size_t> plan;
  for (int q = 0; q < kReports - kCold; ++q) plan.push_back(ids[q % kHot]);
  for (int c = 0; c < kCold; ++c) plan.push_back(ids[kHot + c]);
  std::shuffle(plan.begin(), plan.end(), rng);
  return plan;
}

struct Round {
  std::string why;  ///< first failure, "" when the round passed so far
  bool timed = false;  ///< the daemon started and the phases ran
  double ingest_s = 0;
  std::vector<std::pair<size_t, std::string>> answers;
  StatusLine status;

  void fail(const std::string& w) {
    if (why.empty()) why = w;
  }
};

Round run_round(const Config& cfg, const Inputs& in, std::mt19937_64& rng,
                Tracer& tr) {
  Round r;
  const std::vector<size_t> plan = query_plan(rng);
  Daemon d;
  std::string err;
  if (!d.start(cfg.ggserved, cfg.work_dir, &err)) {
    r.fail(err);
    return r;
  }
  {
    Span op(tr, "serve.round", nullptr);
    const int64_t t0 = now_ns();
    {
      Span ingest(tr, "serve.ingest", &op);
      std::vector<std::string> push_errors(kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (int k = 0; k < kRunsPerClient; ++k) {
            const size_t i = static_cast<size_t>(c * kRunsPerClient + k);
            Span push(tr, "serve.push", &ingest);
            serve::WireClientOptions o;
            o.socket_path = d.ingest_socket();
            o.name = run_name(i);
            o.seed = cfg.seed * 1'000'003ull + i + 1;
            std::string e;
            bool sealed = false;
            try {
              serve::WireClient client(o);
              sealed = client.push_bytes(in.spools[i], &e) && client.sealed();
              client.bye();
            } catch (const std::exception& ex) {
              e = ex.what();
            }
            if (!sealed && push_errors[c].empty())
              push_errors[c] = run_name(i) + " push failed: " + e;
          }
        });
      }
      for (std::thread& t : clients) t.join();
      for (const std::string& e : push_errors)
        if (!e.empty()) r.fail(e);
    }
    const int64_t t1 = now_ns();
    {
      Span query(tr, "serve.query", &op);
      for (const size_t i : plan) {
        Span report(tr, "serve.report", &query);
        r.answers.emplace_back(i, d.request("REPORT " + run_name(i)));
      }
    }
    r.ingest_s = static_cast<double>(t1 - t0) / 1e9;
    r.timed = true;
  }
  if (tr.enabled()) {
    // Layer probes outside the op: the cheaper query verbs.
    Span probe(tr, "bench.probe", nullptr);
    for (int q = 0; q < kProbeQueries; ++q) {
      const size_t i = plan[static_cast<size_t>(q) % plan.size()];
      std::string answer;
      {
        Span s(tr, "serve.summary", &probe);
        answer = d.request("SUMMARY " + run_name(i));
      }
      if (answer.rfind("ERR", 0) == 0) r.fail("SUMMARY answered " + answer);
      Span s(tr, "serve.status", &probe);
      d.request("STATUS");
    }
  }
  r.status = parse_status(d.request("STATUS"));
  if (!d.stop(&err)) r.fail(err);
  return r;
}

/// Checks a round's answers, status and pushes; "" when it passed.
std::string check_round(const Round& r, const Inputs& in,
                        std::map<size_t, std::string>& refs) {
  if (!r.why.empty()) return r.why;
  if (std::string s = check_status(r.status, kRuns); !s.empty()) return s;
  for (const auto& [i, answer] : r.answers) {
    auto it = refs.find(i);
    if (it == refs.end()) it = refs.emplace(i, batch_report(in.spools[i])).first;
    if (std::string s = check_report_answer(answer, it->second); !s.empty())
      return run_name(i) + ": " + s;
  }
  return {};
}

}  // namespace

void probe_serve(const Config& cfg, Tracer& tracer, Result& res) {
  std::mt19937_64 rng(cfg.seed);
  const Inputs in = make_inputs(cfg.seed);
  std::vector<Round> rounds;
  for (int k = 0; k < kRounds; ++k)
    rounds.push_back(run_round(cfg, in, rng, tracer));

  std::map<size_t, std::string> refs;
  std::vector<double> ingest_s;
  double shed = 0;
  std::vector<double> resident_mib;
  for (const Round& r : rounds) {
    const std::string why = check_round(r, in, refs);
    if (!why.empty()) res.log.push_back("serve round failed: " + why);
    res.ops.record(why.empty());
    if (!r.timed) continue;
    ingest_s.push_back(r.ingest_s);
    resident_mib.push_back(static_cast<double>(r.status.resident_bytes) /
                           (1024.0 * 1024.0));
    shed = std::max(shed, static_cast<double>(r.status.shed));
  }
  res.log.push_back("serve: " + std::to_string(kRuns) + " runs, " +
                    std::to_string(in.bytes) + " spool bytes, " +
                    std::to_string(in.grains) + " grains per round");
  res.log.push_back(describe("serve: ingest_s", ingest_s));

  // In-process probes: recovery and the REPORT analysis of single runs.
  {
    Span probe(tracer, "bench.probe", nullptr);
    for (size_t k = 0; k < kProbeQueries; ++k) {
      const size_t i = k * (kRuns / kProbeQueries);
      spool::RecoverResult rr;
      {
        Span s(tracer, "trace.recover_bytes", &probe);
        rr = spool::recover_spool_bytes(in.spools[i]);
      }
      std::string text;
      if (rr.usable) {
        Span s(tracer, "analysis.report_text", &probe);
        text = serve::analysis_report_text(rr.trace);
      }
      auto it = refs.find(i);
      if (it == refs.end())
        it = refs.emplace(i, batch_report(in.spools[i])).first;
      const std::string why = check_report_answer(text, it->second);
      if (!why.empty()) res.log.push_back("serve probe failed: " + why);
      res.ops.record(why.empty());
    }
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  auto ms = [](std::vector<double> ns, double p) {
    return percentile(std::move(ns), p) / 1e6;
  };
  const std::vector<double> reports = durations_ns(spans, "serve.report");
  const double report_text_ms =
      ms(durations_ns(spans, "analysis.report_text"), 50);
  const double mb = static_cast<double>(in.bytes) / 1e6;
  res.set("serve.push_ms", ms(durations_ns(spans, "serve.push"), 50), "ms");
  res.set("serve.push_p90_ms", ms(durations_ns(spans, "serve.push"), 90),
          "ms");
  res.set("serve.ingest_mb_per_s",
          mb / (ms(durations_ns(spans, "serve.ingest"), 50) / 1e3), "MB/s");
  res.set("serve.report_p50_ms", ms(reports, 50), "ms");
  res.set("serve.report_p90_ms", ms(reports, 90), "ms");
  res.set("trace.recover_ms",
          ms(durations_ns(spans, "trace.recover_bytes"), 50), "ms");
  res.set("analysis.report_text_ms", report_text_ms, "ms");
  res.set("serve.query_overhead_ms", ms(reports, 50) - report_text_ms, "ms");
  res.set("serve.summary_ms", ms(durations_ns(spans, "serve.summary"), 50),
          "ms");
  res.set("serve.status_ms", ms(durations_ns(spans, "serve.status"), 50),
          "ms");
  res.set("serve.resident_mb", median(resident_mib), "MiB");
  res.set("serve.shed", shed, "count");
}

}  // namespace ggbench
