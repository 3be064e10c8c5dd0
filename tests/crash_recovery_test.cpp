// Crash-recovery harness: fork a real spooled run, kill it at seeded
// points (SIGKILL mid-region, SIGSEGV in a task body, supervisor
// abort-on-stall), and assert the spool recovers an analyzable trace with
// the documented loss bound — at most one unflushed epoch per worker plus
// the records of tasks in flight at the instant of death. Also pins the
// deterministic halves of the contract: a cleanly-footered spool
// round-trips a trace exactly, losing only the footer loses zero records,
// and the supervisor detects a seeded taskwait-cycle hang both live
// (on_stall hook) and modeled (trace scan).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "check/genprog.hpp"
#include "fault/fault.hpp"
#include "front/front.hpp"
#include "rts/threaded_engine.hpp"
#include "sim/sim_engine.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

namespace fs = std::filesystem;

std::string temp_spool(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("gg-crash-") + tag + "-" +
           std::to_string(::getpid()) + ".ggspool"))
      .string();
}

struct ChildOutcome {
  int status = 0;
  bool signaled(int sig) const {
    return WIFSIGNALED(status) && WTERMSIG(status) == sig;
  }
};

/// Forks, runs `body` in the child (which must die or _exit), reaps it.
template <typename Body>
ChildOutcome run_child(Body body) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Keep the child's death quiet: the parent asserts on the spool, not
    // on stderr.
    std::fclose(stderr);
    body();
    ::_exit(0);
  }
  ChildOutcome out;
  ::waitpid(pid, &out.status, 0);
  return out;
}

/// Recovery + the prescribed salvage pass; asserts structural validity.
spool::RecoverResult recover_checked(const std::string& path) {
  std::string err;
  spool::RecoverResult rr = spool::recover_spool_file(path, &err);
  EXPECT_TRUE(rr.usable) << "recovery failed: " << err << " / "
                         << rr.report.summary();
  if (rr.usable) {
    if (rr.report.partial() || rr.report.frames_corrupt > 0 ||
        rr.report.torn_tail) {
      salvage_trace(rr.trace);
    }
    EXPECT_TRUE(validate_trace(rr.trace).empty())
        << "recovered trace invalid: " << rr.report.summary();
  }
  return rr;
}

constexpr int kWorkers = 2;
constexpr u64 kEpochBytes = 2 * 1024;
constexpr int kTasks = 400;

/// The spooled run every kill-point test executes: kTasks identical
/// compute tasks, self-SIGKILL after `kill_at` completions (0 = run to a
/// clean finish).
void spooled_run(const std::string& path, u64 kill_at) {
  rts::Options o;
  o.num_workers = kWorkers;
  o.spool.path = path;
  o.spool.epoch_bytes = kEpochBytes;
  o.spool.crash_handlers = false;  // SIGKILL is not catchable anyway
  rts::ThreadedEngine eng(o);
  eng.run("crash-matrix", [kill_at](front::Ctx& ctx) {
    static std::atomic<u64> finished{0};
    for (int i = 0; i < kTasks; ++i) {
      ctx.spawn(front::SrcLoc{"crash.c", 10, "victim"},
                [kill_at](front::Ctx& c) {
                  c.compute(500);
                  if (kill_at != 0 && finished.fetch_add(1) + 1 == kill_at) {
                    ::kill(::getpid(), SIGKILL);
                  }
                });
    }
    ctx.taskwait();
  });
}

TEST(CrashRecoveryTest, ForkKillMatrixEveryKillPoint) {
  // Seeded kill points spanning the region: first epochs barely sealed
  // through most of the run committed.
  u64 base = 0;
  if (const char* env = std::getenv("GG_TEST_SEED")) {
    base = std::strtoull(env, nullptr, 10);
  }
  const u64 kill_points[] = {5,   20 + base % 7,  60 + base % 13,
                             120, 200 + base % 31, 350};
  for (const u64 kill_at : kill_points) {
    const std::string path = temp_spool("matrix");
    const ChildOutcome out =
        run_child([&] { spooled_run(path, kill_at); });
    ASSERT_TRUE(out.signaled(SIGKILL))
        << "kill_at=" << kill_at << " status=" << out.status;

    const spool::RecoverResult rr = recover_checked(path);
    ASSERT_TRUE(rr.usable);
    EXPECT_FALSE(rr.report.clean_footer) << "kill_at=" << kill_at;

    // Loss bound: every sealed frame is written at seal time, so
    // each worker loses at most the one epoch still accumulating (plus
    // its in-flight task, whose fragment was never recorded). Completed
    // tasks are a lower bound witness: `kill_at` fragments existed.
    const u64 per_worker_slack = kEpochBytes / sizeof(FragmentRec) + 1;
    const u64 slack = kWorkers * (per_worker_slack + 1);
    EXPECT_GE(rr.trace.fragments.size() + slack, kill_at)
        << "kill_at=" << kill_at << ": lost more than one epoch per worker ("
        << rr.trace.fragments.size() << " fragments recovered)";
    EXPECT_TRUE(rr.trace.meta.recovered()) << "kill_at=" << kill_at;
    fs::remove(path);
  }
}

TEST(CrashRecoveryTest, CleanRunWritesCleanFooter) {
  const std::string path = temp_spool("clean");
  const ChildOutcome out = run_child([&] { spooled_run(path, 0); });
  EXPECT_TRUE(WIFEXITED(out.status) && WEXITSTATUS(out.status) == 0);
  const spool::RecoverResult rr = recover_checked(path);
  EXPECT_TRUE(rr.report.clean_footer);
  EXPECT_FALSE(rr.trace.meta.recovered());
  // Every spawned task completed, so every fragment must be present.
  EXPECT_GE(rr.trace.fragments.size(), static_cast<size_t>(kTasks));
  fs::remove(path);
}

TEST(CrashRecoveryTest, SigsegvEmergencyFlushStampsProvenance) {
  const std::string path = temp_spool("segv");
  const ChildOutcome out = run_child([&] {
    rts::Options o;
    o.num_workers = kWorkers;
    o.spool.path = path;
    o.spool.epoch_bytes = kEpochBytes;  // crash_handlers default: on
    rts::ThreadedEngine eng(o);
    eng.run("crash-segv", [](front::Ctx& ctx) {
      static std::atomic<u64> finished{0};
      for (int i = 0; i < kTasks; ++i) {
        ctx.spawn(front::SrcLoc{"crash.c", 20, "segv_task"},
                  [](front::Ctx& c) {
                    c.compute(500);
                    if (finished.fetch_add(1) + 1 == 80) {
                      ::raise(SIGSEGV);
                    }
                  });
      }
      ctx.taskwait();
    });
  });
  ASSERT_TRUE(out.signaled(SIGSEGV)) << "status=" << out.status;
  const spool::RecoverResult rr = recover_checked(path);
  EXPECT_FALSE(rr.report.clean_footer);
  // The emergency flush appended a 'C' footer naming the signal.
  EXPECT_NE(rr.report.crash_reason.find(std::to_string(SIGSEGV)),
            std::string::npos)
      << "crash_reason: " << rr.report.crash_reason;
  EXPECT_FALSE(rr.trace.meta.crash_note().empty());
  fs::remove(path);
}

// --- deterministic halves of the contract ----------------------------------

Trace sim_trace() {
  sim::SimOptions o;
  o.num_cores = 4;
  sim::SimEngine eng(o);
  check::ProgramSpec spec = check::generate_program(7);
  return check::run_spec(spec, eng);
}

TEST(CrashRecoveryTest, SpoolRoundTripPreservesEveryRecord) {
  const Trace original = sim_trace();
  const std::string bytes = spool::spool_trace_bytes(original, 512);
  const spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(rr.usable) << rr.report.summary();
  EXPECT_TRUE(rr.report.clean_footer);
  EXPECT_EQ(rr.trace.tasks.size(), original.tasks.size());
  EXPECT_EQ(rr.trace.fragments.size(), original.fragments.size());
  EXPECT_EQ(rr.trace.joins.size(), original.joins.size());
  EXPECT_EQ(rr.trace.loops.size(), original.loops.size());
  EXPECT_EQ(rr.trace.chunks.size(), original.chunks.size());
  EXPECT_EQ(rr.trace.bookkeeps.size(), original.bookkeeps.size());
  EXPECT_EQ(rr.trace.depends.size(), original.depends.size());
  EXPECT_EQ(rr.trace.worker_stats.size(), original.worker_stats.size());
  EXPECT_TRUE(validate_trace(rr.trace).empty());
}

TEST(CrashRecoveryTest, LosingOnlyTheFooterLosesZeroRecords) {
  // The documented loss bound at its edge: every epoch sealed and durable,
  // only the clean footer missing (the crash landed after the last seal).
  const Trace original = sim_trace();
  const std::string bytes = spool::spool_trace_bytes(original, 512);
  const auto frames = spool::scan_frames(bytes);
  ASSERT_GT(frames.size(), 2u);
  const std::string cut =
      fault::truncate_spool_at_frame(bytes, frames.size() - 1);
  spool::RecoverResult rr = spool::recover_spool_bytes(cut);
  ASSERT_TRUE(rr.usable) << rr.report.summary();
  EXPECT_TRUE(rr.report.partial());
  EXPECT_TRUE(rr.trace.meta.recovered());
  EXPECT_EQ(rr.trace.tasks.size(), original.tasks.size());
  EXPECT_EQ(rr.trace.fragments.size(), original.fragments.size());
  EXPECT_EQ(rr.trace.chunks.size(), original.chunks.size());
  EXPECT_EQ(rr.trace.depends.size(), original.depends.size());
  salvage_trace(rr.trace);
  EXPECT_TRUE(validate_trace(rr.trace).empty());
}

// --- supervisor -------------------------------------------------------------

TEST(CrashRecoveryTest, SupervisorDetectsHangAndHookReleasesIt) {
  const check::ProgramSpec spec = check::generate_hang_program(11);
  ASSERT_TRUE(spec.tokens != nullptr);

  rts::Options o;
  o.num_workers = 2;
  o.supervisor.enabled = true;
  o.supervisor.stall_timeout_ns = 200'000'000;   // 200ms
  o.supervisor.poll_interval_ns = 10'000'000;
  o.supervisor.dump_on_stall = false;  // keep the test's stderr quiet
  std::atomic<int> stalls{0};
  rts::SupervisorReport seen;
  o.supervisor.on_stall = [&](const rts::SupervisorReport& rep) {
    if (stalls.fetch_add(1) == 0) seen = rep;
    spec.tokens->release_all();
  };
  rts::ThreadedEngine eng(o);
  const Trace trace = check::run_spec(spec, eng);

  ASSERT_GE(stalls.load(), 1) << "supervisor never fired on a real deadlock";
  EXPECT_GE(seen.stalled_for_ns, o.supervisor.stall_timeout_ns);
  ASSERT_EQ(seen.workers.size(), 2u);
  // Both deadlocked tasks spin inside user code: at least one worker must
  // be sampled wedged in Exec.
  bool any_exec = false;
  for (const rts::WorkerSnapshot& w : seen.workers) {
    any_exec |= w.state == rts::WorkerState::Exec;
  }
  EXPECT_TRUE(any_exec) << seen.render();
  // The run completed after release; its trace carries the provenance.
  EXPECT_FALSE(trace.meta.supervisor_note().empty());
  EXPECT_TRUE(validate_trace(trace).empty());
}

TEST(CrashRecoveryTest, SupervisorAbortOnStallLeavesRecoverableSpool) {
  const std::string path = temp_spool("stall");
  const ChildOutcome out = run_child([&] {
    const check::ProgramSpec spec = check::generate_hang_program(13);
    rts::Options o;
    o.num_workers = 2;
    o.spool.path = path;
    o.spool.epoch_bytes = kEpochBytes;
    o.supervisor.enabled = true;
    o.supervisor.stall_timeout_ns = 200'000'000;
    o.supervisor.poll_interval_ns = 10'000'000;
    rts::ThreadedEngine eng(o);
    check::run_spec(spec, eng);  // never returns: no on_stall, so it aborts
  });
  ASSERT_TRUE(out.signaled(SIGABRT)) << "status=" << out.status;
  const spool::RecoverResult rr = recover_checked(path);
  EXPECT_FALSE(rr.report.clean_footer);
  EXPECT_NE(rr.report.crash_reason.find("supervisor"), std::string::npos)
      << "crash_reason: " << rr.report.crash_reason;
  // The 'D' frame carried the structured diagnostic into the spool.
  EXPECT_FALSE(rr.report.supervisor_dump.empty());
  EXPECT_NE(rr.report.supervisor_dump.find("no progress"),
            std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace gg
