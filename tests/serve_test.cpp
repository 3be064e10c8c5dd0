// Serving-layer tests: live spool tailing, session lifecycle, admission
// backpressure, the query server, and the chaos/parity bound.
//
// Everything time-dependent runs on a fake clock — backoff schedules,
// torn-tail deadlines, staleness, eviction — so every lifecycle path is
// deterministic. The live-tail edge cases (torn tail mid-frame, writer
// appending between reads, valid frames followed by garbage, footer-only
// loss) drive a seeded LiveSpoolWriter against a SpoolTailer and then pin
// the central robustness claim: the live ingest's finalized report and
// analysis are byte-identical to a batch load of the same final file
// (the spool hand-off every loader shares, load_recovered). The chaos test
// does the same with real forked writer processes killed by SIGKILL
// mid-write.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/tailer.hpp"
#include "trace/load_result.hpp"
#include "trace/salvage.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

namespace fs = std::filesystem;

constexpr u64 kMs = 1'000'000;
constexpr u64 kT0 = 1'000'000'000;  // fake clocks never start at 0

std::string temp_path(const char* tag) {
  static int counter = 0;
  return (fs::temp_directory_path() /
          ("gg-serve-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(counter++)))
      .string();
}

void write_file(const std::string& path, std::string_view bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

Trace make_trace(u64 seed, int workers = 4, u64 grains = 120) {
  SynthOptions opts;
  opts.seed = seed;
  opts.workers = workers;
  opts.grains = grains;
  return synth_trace(opts);
}

std::string make_spool_bytes(u64 seed, u64 epoch_bytes = 512) {
  return spool::spool_trace_bytes(make_trace(seed), epoch_bytes);
}

/// Cuts the clean footer off a finished spool stream (footer-only loss).
std::string strip_footer(std::string bytes) {
  const std::vector<spool::FrameSpan> frames = spool::scan_frames(bytes);
  if (!frames.empty() &&
      frames.back().type == spool::FrameType::CleanFooter) {
    bytes.resize(frames.back().offset);
  }
  return bytes;
}

/// The batch spool loader over a final file — the batch side of every
/// live/batch parity assertion in this suite.
struct BatchReplica {
  LoadResult lr;
  std::string report_text;
};

BatchReplica batch_recover(const std::string& path) {
  BatchReplica b;
  b.lr = load_recovered(spool::recover_spool_file(path));
  if (b.lr.usable()) b.report_text = serve::analysis_report_text(*b.lr.trace);
  return b;
}

/// Drives `tailer` and `writer` in lockstep: every iteration lets the
/// writer append one slice, polls, and advances the fake clock. Returns
/// the final fake time.
u64 interleave(serve::SpoolTailer& tailer, fault::LiveSpoolWriter& writer,
               u64 step_ns = 3 * kMs, int extra_polls = 64) {
  u64 now = kT0;
  while (!writer.done()) {
    writer.step();
    tailer.poll(now);
    now += step_ns;
  }
  for (int i = 0; i < extra_polls; ++i) {
    tailer.poll(now);
    now += step_ns;
  }
  return now;
}

void expect_parity(serve::SpoolTailer& tailer, const std::string& path,
                   const char* what) {
  const bool live_usable = tailer.finalize();
  ASSERT_NE(tailer.trace(), nullptr) << what;
  const LoadResult live = load_recovered({live_usable,
                                          std::move(tailer.trace()->trace()),
                                          tailer.trace()->report()});
  // A usable recovery always loads: salvage leaves a valid trace.
  EXPECT_EQ(live.usable(), live_usable) << what;
  const BatchReplica batch = batch_recover(path);
  EXPECT_EQ(live.usable(), batch.lr.usable()) << what;
  EXPECT_EQ(live.recovery->summary(), batch.lr.recovery->summary()) << what;
  EXPECT_EQ(live.recovery->diagnostics, batch.lr.recovery->diagnostics)
      << what;
  if (!live.usable() || !batch.lr.usable()) return;
  EXPECT_EQ(serve::analysis_report_text(*live.trace), batch.report_text)
      << what;
}

// --- tailer -----------------------------------------------------------------

TEST(ServeTailerTest, SlowWriterAppendingBetweenReadsSealsClean) {
  const std::string path = temp_path("slow") + ".ggspool";
  fault::LiveWriterPlan plan;
  plan.chunk_min = 1;
  plan.chunk_max = 7;  // every read sees a torn prefix of something
  fault::LiveSpoolWriter writer(path, make_spool_bytes(11), plan);
  serve::SpoolTailer tailer(path);
  interleave(tailer, writer);
  EXPECT_EQ(tailer.state(), serve::TailState::Sealed);
  EXPECT_FALSE(tailer.tail_stuck());
  EXPECT_GT(tailer.stats().frames_applied, 0u);
  expect_parity(tailer, path, "slow writer");
  fs::remove(path);
}

TEST(ServeTailerTest, BackoffDoublesCapsAndResetsOnGrowth) {
  const std::string path = temp_path("backoff") + ".ggspool";
  const std::string bytes = make_spool_bytes(12);
  // Half the stream on disk, then the writer stalls.
  write_file(path, std::string_view(bytes).substr(0, bytes.size() / 2));
  serve::TailerOptions opts;
  opts.retry_initial_ns = 2 * kMs;
  opts.retry_max_ns = 50 * kMs;
  serve::SpoolTailer tailer(path, opts);
  u64 now = kT0;
  tailer.poll(now);  // consumes everything available, tail torn
  std::vector<u64> delays;
  for (int i = 0; i < 10; ++i) {
    now = tailer.next_poll_ns();
    tailer.poll(now);
    delays.push_back(tailer.next_poll_ns() - now);
  }
  // No growth: doubling up to the 50ms cap, then flat.
  for (size_t i = 1; i < delays.size(); ++i) {
    EXPECT_EQ(delays[i], std::min<u64>(delays[i - 1] * 2, 50 * kMs)) << i;
  }
  EXPECT_EQ(delays.back(), 50 * kMs);
  // A poll before the scheduled time is an idle no-op (the ~0-CPU path).
  const u64 idle_before = tailer.stats().idle_polls;
  tailer.poll(tailer.next_poll_ns() - 1);
  EXPECT_EQ(tailer.stats().idle_polls, idle_before + 1);
  // Growth resets the backoff to the initial delay.
  write_file(path, std::string_view(bytes).substr(0, bytes.size() * 3 / 4));
  now = tailer.next_poll_ns();
  tailer.poll(now);
  EXPECT_EQ(tailer.next_poll_ns() - now, 2 * kMs);
  fs::remove(path);
}

TEST(ServeTailerTest, TornTailMidFrameWaitsThenMatchesBatch) {
  const std::string path = temp_path("torn") + ".ggspool";
  fault::LiveWriterPlan plan;
  plan.ending = fault::LiveWriterPlan::Ending::TornFrame;
  plan.torn_payload_bytes = 5;
  fault::LiveSpoolWriter writer(path, make_spool_bytes(13), plan);
  serve::SpoolTailer tailer(path);
  u64 now = interleave(tailer, writer);
  EXPECT_EQ(tailer.state(), serve::TailState::Waiting);
  EXPECT_TRUE(tailer.tail_stuck());
  // Even far past the torn deadline the tailer must NOT escalate: there is
  // no later valid frame, so the damage is indistinguishable from an
  // in-flight write. (The session layer's staleness clock owns this case.)
  now += 60'000 * kMs;
  tailer.poll(now);
  tailer.poll(now + 100 * kMs);
  EXPECT_EQ(tailer.stats().resyncs, 0u);
  EXPECT_TRUE(tailer.tail_stuck());
  expect_parity(tailer, path, "torn tail at EOF");
  fs::remove(path);
}

TEST(ServeTailerTest, ValidFramesThenGarbageMatchesBatch) {
  const std::string path = temp_path("garbage") + ".ggspool";
  // Footer gone, then tail rot: checksum-valid frames followed by noise
  // that never contains a 'G' able to fake a frame magic.
  std::string bytes = strip_footer(make_spool_bytes(14));
  for (int i = 0; i < 96; ++i) bytes.push_back(static_cast<char>(0xA5));
  fault::LiveSpoolWriter writer(path, bytes, {});
  serve::SpoolTailer tailer(path);
  u64 now = interleave(tailer, writer);
  EXPECT_EQ(tailer.state(), serve::TailState::Waiting);
  EXPECT_TRUE(tailer.tail_stuck());
  now += 60'000 * kMs;
  tailer.poll(now);  // garbage at EOF: no later valid frame, no resync
  EXPECT_EQ(tailer.stats().resyncs, 0u);
  expect_parity(tailer, path, "garbage tail");
  fs::remove(path);
}

TEST(ServeTailerTest, CorruptFrameTypedCrashFooterDoesNotEndTheTail) {
  // Only a footer whose checksum verifies ends a stream. Frame 44 of the
  // seed-22 spool is an epoch; typed 'C' its checksum fails, so batch and
  // live both skip it as corrupt and read on to the clean footer.
  const std::string path = temp_path("fakecrash") + ".ggspool";
  std::string bytes = spool::spool_trace_bytes(make_trace(22, 4, 200), 512);
  const std::vector<spool::FrameSpan> frames = spool::scan_frames(bytes);
  ASSERT_GT(frames.size(), 45u);
  ASSERT_EQ(frames[44].type, spool::FrameType::Epoch);
  bytes[frames[44].offset + 4] = static_cast<char>(spool::FrameType::CrashFooter);
  fault::LiveSpoolWriter writer(path, bytes, {});
  serve::SpoolTailer tailer(path);
  interleave(tailer, writer);
  EXPECT_EQ(tailer.state(), serve::TailState::Sealed);
  expect_parity(tailer, path, "corrupt frame typed C");
  EXPECT_EQ(tailer.trace()->report().frames_corrupt, 1u);
  EXPECT_TRUE(tailer.trace()->report().clean_footer);
  fs::remove(path);
}

TEST(ServeTailerTest, FrameAfterTheFooterIsNotRead) {
  // The verified footer ends the stream for batch and live alike: a dump
  // frame appended after it reaches neither the report nor the notes.
  const std::string path = temp_path("afterfooter") + ".ggspool";
  const std::string clean = make_spool_bytes(1);
  const std::string bytes =
      clean + spool::encode_frame(spool::FrameType::Dump, 0, 0, "late dump");
  fault::LiveSpoolWriter writer(path, bytes, {});
  serve::SpoolTailer tailer(path);
  interleave(tailer, writer);
  EXPECT_EQ(tailer.state(), serve::TailState::Sealed);
  expect_parity(tailer, path, "frame after the footer");
  const spool::RecoverResult whole = spool::recover_spool_bytes(clean);
  EXPECT_EQ(tailer.trace()->report().summary(), whole.report.summary());
  EXPECT_TRUE(tailer.trace()->report().supervisor_dump.empty());
  fs::remove(path);
}

TEST(ServeTailerTest, FooterlessCrashLosesNothingBeforeTheTail) {
  const std::string path = temp_path("nofooter") + ".ggspool";
  fault::LiveWriterPlan plan;
  plan.ending = fault::LiveWriterPlan::Ending::FooterlessCrash;
  fault::LiveSpoolWriter writer(path, make_spool_bytes(15), plan);
  serve::SpoolTailer tailer(path);
  interleave(tailer, writer);
  // The stream ends at a frame boundary: healthy tail, just no footer.
  EXPECT_EQ(tailer.state(), serve::TailState::Streaming);
  EXPECT_FALSE(tailer.tail_stuck());
  expect_parity(tailer, path, "footer-only loss");
  ASSERT_NE(tailer.trace(), nullptr);
  EXPECT_TRUE(tailer.trace()->report().partial());
  EXPECT_EQ(tailer.trace()->report().frames_corrupt, 0u);
  fs::remove(path);
}

TEST(ServeTailerTest, MidStreamGarbleResyncsPastDeadlineLosingOneFrame) {
  const std::string path = temp_path("resync") + ".ggspool";
  const std::string bytes = make_spool_bytes(16);
  // Garble the magic of the first epoch frame; everything after stays
  // intact, so the tailer has proof the damage is not an in-flight write.
  const std::vector<spool::FrameSpan> frames = spool::scan_frames(bytes);
  size_t victim = SIZE_MAX;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type == spool::FrameType::Epoch) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  fault::LiveWriterPlan plan;
  plan.garble_frame = victim;
  serve::TailerOptions topts;
  topts.torn_deadline_ns = 500 * kMs;
  fault::LiveSpoolWriter writer(path, bytes, plan);
  serve::SpoolTailer tailer(path, topts);
  u64 now = kT0;
  while (!writer.done()) {
    writer.step();
    tailer.poll(now);
    now += 3 * kMs;
  }
  // Let the deadline pass, then poll: the tailer must abandon the garbled
  // span, resync at the next valid frame, and run through to the footer.
  now += 600 * kMs;
  for (int i = 0; i < 64 && tailer.state() != serve::TailState::Sealed; ++i) {
    tailer.poll(now);
    now += 50 * kMs;
  }
  EXPECT_EQ(tailer.state(), serve::TailState::Sealed);
  EXPECT_EQ(tailer.stats().resyncs, 1u);
  ASSERT_TRUE(tailer.finalize());
  const spool::RecoverReport& rep = tailer.trace()->report();
  // One bad frame, one epoch: the abandoned span is one corrupt frame and
  // the worker's next epoch arrives with a seq jump of exactly one.
  EXPECT_EQ(rep.frames_corrupt, 1u);
  EXPECT_EQ(rep.epoch_gaps, 1u);
  bool noted = false;
  for (const std::string& d : rep.diagnostics) {
    if (d.find("abandoned after the torn-tail deadline") != std::string::npos)
      noted = true;
  }
  EXPECT_TRUE(noted);
  Trace trace = std::move(tailer.trace()->trace());
  salvage_trace(trace);
  EXPECT_TRUE(validate_trace(trace).empty());
  fs::remove(path);
}

TEST(ServeTailerTest, TruncationUnderTheTailFailsExplicitly) {
  const std::string path = temp_path("shrink") + ".ggspool";
  const std::string bytes = make_spool_bytes(17);
  // Stop short of the footer so the tailer keeps watching the file.
  write_file(path, std::string_view(bytes).substr(0, bytes.size() - 10));
  serve::SpoolTailer tailer(path);
  tailer.poll(kT0);
  EXPECT_NE(tailer.state(), serve::TailState::Failed);
  write_file(path, std::string_view(bytes).substr(0, 40));  // shrinks
  tailer.poll(kT0 + 100 * kMs);
  EXPECT_EQ(tailer.state(), serve::TailState::Failed);
  EXPECT_NE(tailer.fail_reason().find("truncated under the tail"),
            std::string::npos);
  fs::remove(path);
}

TEST(ServeTailerTest, MissingFileFinalizesUnusable) {
  serve::SpoolTailer tailer(temp_path("absent") + ".ggspool");
  tailer.poll(kT0);
  tailer.poll(kT0 + 100 * kMs);
  EXPECT_FALSE(tailer.finalize());
  EXPECT_EQ(tailer.fail_reason(), "spool never appeared");
}

// --- sessions ---------------------------------------------------------------

TEST(ServeSessionTest, StaleFooterlessWriterHandsOffToRecovery) {
  const std::string path = temp_path("stale") + ".ggspool";
  fault::LiveWriterPlan plan;
  plan.ending = fault::LiveWriterPlan::Ending::FooterlessCrash;
  fault::LiveSpoolWriter writer(path, make_spool_bytes(21), plan);
  writer.finish();  // the writer is already dead when we attach
  serve::SessionOptions opts;
  opts.stale_after_ns = 200 * kMs;
  serve::Session session(1, path, opts);
  u64 now = kT0;
  for (int i = 0; i < 200 && !session.finalized(); ++i) {
    session.tick(now);
    now += 20 * kMs;
  }
  ASSERT_TRUE(session.finalized());
  EXPECT_EQ(session.state(), serve::SessionState::Stale);
  EXPECT_TRUE(session.usable());
  ASSERT_NE(session.trace(), nullptr);
  EXPECT_TRUE(session.report()->partial());
  // The finalized report text is exactly the batch pipeline's.
  EXPECT_EQ(session.report_text(), batch_recover(path).report_text);
  fs::remove(path);
}

TEST(ServeSessionTest, CrashFooterUpgradesToCrashedWithProvenance) {
  const std::string path = temp_path("crash") + ".ggspool";
  // Replace the clean footer with a crash footer (u32 signal + reason
  // string + NUL) — what the PR 5 emergency flush writes.
  std::string bytes = strip_footer(make_spool_bytes(22));
  std::string payload;
  payload.push_back(9);  // u32 LE signal number
  for (int i = 0; i < 3; ++i) payload.push_back(0);
  payload += "SIGKILL mid-flush";
  payload.push_back('\0');
  std::string frame(spool::kFrameMagic, sizeof spool::kFrameMagic);
  frame.push_back(static_cast<char>(spool::FrameType::CrashFooter));
  for (int i = 0; i < 8; ++i) frame.push_back(0);  // worker=0, seq=0
  for (int i = 0; i < 8; ++i)
    frame.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  const u64 sum = spool::frame_checksum(spool::FrameType::CrashFooter, 0, 0,
                                        payload.data(), payload.size());
  for (int i = 0; i < 8; ++i)
    frame.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  frame += payload;
  bytes += frame;
  write_file(path, bytes);

  serve::Session session(2, path, {});
  u64 now = kT0;
  for (int i = 0; i < 200 && !session.finalized(); ++i) {
    session.tick(now);
    now += 20 * kMs;
  }
  ASSERT_TRUE(session.finalized());
  EXPECT_EQ(session.state(), serve::SessionState::Crashed);
  EXPECT_TRUE(session.usable());
  EXPECT_NE(session.report()->crash_reason.find("SIGKILL mid-flush"),
            std::string::npos);
  EXPECT_NE(session.status_line().find("crash="), std::string::npos);
  fs::remove(path);
}

TEST(ServeSessionTest, PausedSessionNeverGoesStale) {
  const std::string path = temp_path("paused") + ".ggspool";
  const std::string bytes = make_spool_bytes(23);
  write_file(path, std::string_view(bytes).substr(0, bytes.size() / 2));
  serve::SessionOptions opts;
  opts.stale_after_ns = 100 * kMs;
  serve::Session session(3, path, opts);
  u64 now = kT0;
  session.tick(now);
  session.pause(now);
  // Far beyond the staleness deadline: a paused session must not be
  // declared dead — its writer may be perfectly alive.
  for (int i = 0; i < 50; ++i) {
    now += 100 * kMs;
    session.tick(now);
  }
  EXPECT_FALSE(session.finalized());
  EXPECT_TRUE(session.paused());
  session.resume(now);
  write_file(path, bytes);  // the writer finished while we were paused
  for (int i = 0; i < 50 && !session.finalized(); ++i) {
    session.tick(now);
    now += 20 * kMs;
  }
  EXPECT_EQ(session.state(), serve::SessionState::Sealed);
  fs::remove(path);
}

// --- admission --------------------------------------------------------------

TEST(ServeAdmissionTest, LadderShedsQueriesThenPausesTailers) {
  serve::AdmissionOptions opts;
  opts.budget_bytes = 1000;
  serve::AdmissionController adm(opts, nullptr);

  adm.update(500, 1);
  EXPECT_EQ(adm.level(), serve::DegradeLevel::Normal);
  EXPECT_TRUE(adm.admit_heavy_query());

  adm.update(800, 1);  // >= 75%
  EXPECT_EQ(adm.level(), serve::DegradeLevel::SheddingQueries);
  EXPECT_FALSE(adm.admit_heavy_query());
  EXPECT_FALSE(adm.should_pause_tailers());

  adm.update(950, 1);  // >= 90%
  EXPECT_EQ(adm.level(), serve::DegradeLevel::PausingTailers);
  EXPECT_TRUE(adm.should_pause_tailers());
  EXPECT_FALSE(adm.admit_heavy_query());
  EXPECT_FALSE(adm.over_budget());

  adm.update(1200, 1);
  EXPECT_TRUE(adm.over_budget());

  adm.update(100, 1);  // pressure relieved
  EXPECT_EQ(adm.level(), serve::DegradeLevel::Normal);
  EXPECT_TRUE(adm.admit_heavy_query());
  EXPECT_EQ(adm.queries_shed(), 2u);
}

TEST(ServeAdmissionTest, DecisionsPublishThroughTheRegistry) {
  obs::Registry reg;
  serve::AdmissionOptions opts;
  opts.budget_bytes = 100;
  serve::AdmissionController adm(opts, &reg);
  adm.update(90, 2);
  (void)adm.admit_heavy_query();
  adm.note_paused();
  adm.note_evicted();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("serve.queries_shed"), 1u);
  EXPECT_EQ(snap.counters.at("serve.tailers_paused"), 1u);
  EXPECT_EQ(snap.counters.at("serve.sessions_evicted"), 1u);
  EXPECT_EQ(snap.gauges.at("serve.resident_bytes"), 90.0);
  EXPECT_EQ(snap.gauges.at("serve.budget_bytes"), 100.0);
  EXPECT_EQ(snap.gauges.at("serve.degrade_level"), 2.0);
  EXPECT_EQ(snap.gauges.at("serve.sessions"), 2.0);
}

// --- server -----------------------------------------------------------------

/// A server over a temp directory with a fake clock the test advances.
struct ServerFixture {
  std::string dir;
  u64 now = kT0;
  serve::ServerOptions opts;

  explicit ServerFixture(u64 budget = 256ull << 20) {
    dir = temp_path("srv");
    fs::create_directories(dir);
    opts.dir = dir;
    opts.admission.budget_bytes = budget;
    opts.scan_interval_ns = 10 * kMs;
    opts.clock = [this] { return now; };
  }
  ~ServerFixture() { fs::remove_all(dir); }

  void ticks(serve::Server& server, int n, u64 step = 20 * kMs) {
    for (int i = 0; i < n; ++i) {
      server.tick();
      now += step;
    }
  }
};

/// Extracts the numeric id from the SESSIONS line mentioning `needle`
/// ("session <id> <path> <state> ..."); empty when absent.
std::string session_id_for(const std::string& sessions,
                           const std::string& needle) {
  const size_t at = sessions.find(needle);
  if (at == std::string::npos) return {};
  const size_t line = sessions.rfind("session ", at);
  if (line == std::string::npos) return {};
  const size_t id_start = line + 8;
  const size_t id_end = sessions.find(' ', id_start);
  return sessions.substr(id_start, id_end - id_start);
}

TEST(ServeServerTest, ScansDirectoryIngestsAndAnswersQueries) {
  ServerFixture fx;
  write_file(fx.dir + "/a.ggspool", make_spool_bytes(31));
  write_file(fx.dir + "/b.ggspool", make_spool_bytes(32));
  write_file(fx.dir + "/ignored.txt", "not a spool");
  serve::Server server(fx.opts);
  fx.ticks(server, 30);
  EXPECT_EQ(server.session_count(), 2u);
  EXPECT_TRUE(server.idle());

  EXPECT_EQ(server.query("PING"), "PONG\n");
  const std::string sessions = server.query("SESSIONS");
  EXPECT_NE(sessions.find("a.ggspool sealed"), std::string::npos);
  EXPECT_NE(sessions.find("b.ggspool sealed"), std::string::npos);
  const std::string status = server.query("STATUS");
  EXPECT_NE(status.find("sessions=2"), std::string::npos);
  EXPECT_NE(status.find("level=normal"), std::string::npos);
  const std::string summary = server.query("SUMMARY " + fx.dir + "/a.ggspool");
  EXPECT_NE(summary.find("frames="), std::string::npos);
  // REPORT under normal pressure: the full analysis, batch-identical.
  const std::string report = server.query("REPORT " + fx.dir + "/a.ggspool");
  EXPECT_EQ(report, batch_recover(fx.dir + "/a.ggspool").report_text);
  // Sessions are addressable by their numeric id too.
  const std::string id = session_id_for(sessions, "a.ggspool");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(server.query("SUMMARY " + id), summary);
  // ...and by unique basename (SESSIONS prints absolute paths, humans type
  // the file name).
  EXPECT_EQ(server.query("SUMMARY a.ggspool"), summary);
  EXPECT_NE(server.query("SUMMARY nope").find("ERR"), std::string::npos);
  EXPECT_NE(server.query("BOGUS").find("ERR unknown command"),
            std::string::npos);
}

TEST(ServeServerTest, BackpressureShedsPausesAndRecovers) {
  ServerFixture fx(/*budget=*/1);  // 1 byte: everything is over budget
  fx.opts.session.stale_after_ns = 3600'000 * kMs;  // staleness off
  // Live (footer-less) spools so the sessions stay unfinalized and cannot
  // simply be evicted to relieve pressure.
  for (int i = 0; i < 3; ++i) {
    fault::LiveWriterPlan plan;
    plan.ending = fault::LiveWriterPlan::Ending::FooterlessCrash;
    fault::LiveSpoolWriter writer(
        fx.dir + "/w" + std::to_string(i) + ".ggspool",
        make_spool_bytes(40 + static_cast<u64>(i)), plan);
    writer.finish();
  }
  serve::Server server(fx.opts);
  fx.ticks(server, 10);
  EXPECT_EQ(server.session_count(), 3u);
  EXPECT_EQ(server.admission().level(), serve::DegradeLevel::PausingTailers);
  // Heavy queries are shed with a cheap refusal...
  const std::string refused = server.query("REPORT 1");
  EXPECT_EQ(refused.rfind("SHED", 0), 0u) << refused;
  // ...cheap ones still answered.
  EXPECT_EQ(server.query("PING"), "PONG\n");
  EXPECT_NE(server.query("SUMMARY 1").find("frames="), std::string::npos);
  // All but one live tailer paused: ingestion never deadlocks itself.
  size_t paused = 0, live = 0;
  server.for_each_session([&](const serve::Session& s) {
    if (s.paused()) ++paused;
    else ++live;
  });
  EXPECT_EQ(paused, 2u);
  EXPECT_EQ(live, 1u);
  EXPECT_GE(server.admission().tailers_paused(), 2u);
  const std::string status = server.query("STATUS");
  EXPECT_NE(status.find("level=pausing-tailers"), std::string::npos);
}

TEST(ServeServerTest, EvictsIdleFinalizedSessions) {
  ServerFixture fx;
  fx.opts.session.evict_after_ns = 500 * kMs;
  write_file(fx.dir + "/done.ggspool", make_spool_bytes(33));
  serve::Server server(fx.opts);
  fx.ticks(server, 10);
  EXPECT_EQ(server.session_count(), 1u);
  EXPECT_TRUE(server.idle());
  fx.now += 600 * kMs;  // idle past the eviction deadline
  server.tick();
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.admission().sessions_evicted(), 1u);
  // Explicit EVICT of a re-attached session works too.
  EXPECT_NE(server.query("ATTACH " + fx.dir + "/done.ggspool").find("OK"),
            std::string::npos);
  fx.ticks(server, 10);
  EXPECT_NE(server.query("EVICT " + fx.dir + "/done.ggspool").find("OK"),
            std::string::npos);
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(ServeServerTest, TelemetryQueryExposesServeMetrics) {
  obs::Registry reg;
  ServerFixture fx;
  fx.opts.telemetry = &reg;
  write_file(fx.dir + "/t.ggspool", make_spool_bytes(34));
  serve::Server server(fx.opts);
  fx.ticks(server, 10);
  const std::string prom = server.query("TELEMETRY PROM");
  EXPECT_NE(prom.find("gg_serve_ticks"), std::string::npos);
  EXPECT_NE(prom.find("gg_serve_sessions_attached"), std::string::npos);
  const std::string json = server.query("TELEMETRY JSON");
  EXPECT_NE(json.find("serve.frames_applied"), std::string::npos);
  serve::Server no_reg{serve::ServerOptions{}};
  EXPECT_EQ(no_reg.query("TELEMETRY"), "no telemetry\n");
}

TEST(ServeServerTest, DiagnosisDumpsSessionTable) {
  ServerFixture fx;
  write_file(fx.dir + "/d.ggspool", make_spool_bytes(35));
  serve::Server server(fx.opts);
  fx.ticks(server, 10);
  const std::string diag = server.diagnosis();
  EXPECT_NE(diag.find("ggserved stall diagnosis"), std::string::npos);
  EXPECT_NE(diag.find("d.ggspool"), std::string::npos);
}

TEST(ServeServerTest, RunExitsWhenIdleAndWatchdogSurvivesStalls) {
  ServerFixture fx;
  {
    fault::LiveWriterPlan plan;
    plan.ending = fault::LiveWriterPlan::Ending::FooterlessCrash;
    fault::LiveSpoolWriter writer(fx.dir + "/run.ggspool",
                                  make_spool_bytes(36), plan);
    writer.finish();
  }
  fx.opts.clock = nullptr;  // real clock: run() owns the loop
  fx.opts.exit_when_idle = true;
  // A footer-less spool keeps the session live until real-clock staleness,
  // and a tick sleep far above the stall deadline makes every sleep a
  // stall. The watchdog must diagnose (never abort) and run() still exits
  // cleanly once the session goes stale and finalizes.
  fx.opts.session.stale_after_ns = 600 * kMs;
  fx.opts.tick_sleep_ns = 300 * kMs;
  fx.opts.watchdog_stall_ns = 50 * kMs;
  fx.opts.watchdog_poll_ns = 5 * kMs;
  std::string stall_report;
  fx.opts.on_stall = [&](const std::string& report) { stall_report = report; };
  serve::Server server(fx.opts);
  EXPECT_EQ(server.run(), 0);
  EXPECT_GE(server.watchdog_stalls(), 1u);
  EXPECT_NE(stall_report.find("stall diagnosis"), std::string::npos);
  server.for_each_session([](const serve::Session& s) {
    EXPECT_TRUE(s.finalized());
    EXPECT_EQ(s.state(), serve::SessionState::Stale);
  });
}

// --- endpoint ---------------------------------------------------------------

TEST(ServeEndpointTest, RoundTripsOneRequestPerConnection) {
  const std::string sock = temp_path("sock");
  serve::Endpoint ep(sock, [](const std::string& req) {
    return "echo:" + req + "\n";
  });
  std::string err;
  ASSERT_TRUE(ep.start(&err)) << err;
  std::string response;
  ASSERT_TRUE(serve::endpoint_request(sock, "PING", &response, &err)) << err;
  EXPECT_EQ(response, "echo:PING\n");
  ASSERT_TRUE(serve::endpoint_request(sock, "STATUS all\n", &response, &err));
  EXPECT_EQ(response, "echo:STATUS all\n");
  ep.stop();
  EXPECT_FALSE(serve::endpoint_request(sock, "PING", &response, &err));
}

// --- chaos: forked writers, SIGKILL, live/batch parity ----------------------

TEST(ServeChaosTest, ForkKillWritersRecoverWithBatchParityAndLossBound) {
  const std::string dir = temp_path("chaos");
  fs::create_directories(dir);
  constexpr int kWriters = 4;

  // Writers 0 and 1 die by SIGKILL mid-write; 2 crashes footer-less on its
  // own; 3 shuts down cleanly. Each child writes slowly enough that the
  // kill lands mid-stream.
  std::vector<pid_t> pids;
  std::vector<std::string> paths;
  for (int w = 0; w < kWriters; ++w) {
    const std::string path = dir + "/worker" + std::to_string(w) + ".ggspool";
    paths.push_back(path);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::fclose(stderr);
      fault::LiveWriterPlan plan;
      plan.seed = 100 + static_cast<u64>(w);
      plan.chunk_max = 256;
      if (w == 2) plan.ending = fault::LiveWriterPlan::Ending::FooterlessCrash;
      fault::LiveSpoolWriter writer(
          path, make_spool_bytes(50 + static_cast<u64>(w), 512), plan);
      while (!writer.done()) {
        writer.step();
        ::usleep(1000);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  ::usleep(50'000);  // let every writer get frames down, none finish
  ::kill(pids[0], SIGKILL);
  ::kill(pids[1], SIGKILL);
  for (int w = 0; w < kWriters; ++w) {
    int status = 0;
    ::waitpid(pids[w], &status, 0);
  }

  // Serve the directory on a fake clock: tick until every session
  // finalized (the two killed writers and the footer-less one go stale,
  // the clean one seals).
  serve::ServerOptions opts;
  opts.dir = dir;
  opts.scan_interval_ns = 10 * kMs;
  opts.session.stale_after_ns = 300 * kMs;
  opts.session.evict_after_ns = 3600'000 * kMs;  // keep them for inspection
  opts.admission.budget_bytes = 64ull << 20;
  u64 now = kT0;
  opts.clock = [&now] { return now; };
  serve::Server server(opts);
  bool all_final = false;
  for (int i = 0; i < 500 && !all_final; ++i) {
    server.tick();
    now += 20 * kMs;
    all_final = server.session_count() == kWriters;
    server.for_each_session([&](const serve::Session& s) {
      all_final = all_final && s.finalized();
    });
  }
  ASSERT_TRUE(all_final);

  // Resident accounting never pushed past the budget: with four small
  // spools the degrade ladder must never have engaged.
  EXPECT_LE(server.admission().resident_bytes(),
            server.admission().budget_bytes());
  EXPECT_EQ(server.admission().level(), serve::DegradeLevel::Normal);

  for (int w = 0; w < kWriters; ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    const BatchReplica batch = batch_recover(paths[w]);
    EXPECT_TRUE(batch.lr.usable());
    bool seen = false;
    server.for_each_session([&](const serve::Session& s) {
      if (s.path() != paths[w]) return;
      seen = true;
      // Every session recovered (usable), none silently dropped.
      EXPECT_TRUE(s.finalized());
      EXPECT_TRUE(s.usable());
      ASSERT_TRUE(s.report().has_value());
      // Live/batch parity: same recovery report, same analysis text.
      EXPECT_EQ(s.report()->summary(), batch.lr.recovery->summary());
      EXPECT_EQ(s.report_text(), batch.report_text);
      // Loss bound: a SIGKILLed writer loses at most the one torn frame
      // at its tail — every complete frame before it is kept.
      EXPECT_LE(s.report()->frames_total - s.report()->frames_kept, 1u);
      if (w == 2) {
        EXPECT_EQ(s.state(), serve::SessionState::Stale);
        EXPECT_TRUE(s.report()->partial());
      } else if (w == 3) {
        EXPECT_EQ(s.state(), serve::SessionState::Sealed);
        EXPECT_FALSE(s.report()->partial());
      }
    });
    EXPECT_TRUE(seen);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gg
