// Property-based program generator for the differential oracle.
//
// generate_program() derives a random-but-reproducible task DAG / loop
// program from a seed: nested tasks, taskwaits, task dependences over a
// small handle pool, taskloops, and root-level parallel for-loops with
// static/dynamic/guided schedules and varied chunk sizes. The spec is pure
// data; run_spec() replays it through any front::Engine, and its behavior
// depends only on the spec — never on worker ids, timing, or schedule —
// which is the property the cross-engine comparison relies on.
//
// Join discipline: every non-root task that spawned children since its last
// taskwait gets a trailing taskwait. This keeps the presence of the root's
// implicit-barrier join schedule-INdependent: without it, a grandchild may
// or may not still be live when the root finishes, and engines would
// legitimately disagree about the barrier join's existence. The root itself
// may leave children unjoined — its implicit barrier then appears in every
// engine deterministically.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "front/front.hpp"
#include "trace/records.hpp"
#include "trace/trace.hpp"

namespace gg::check {

struct GenOptions {
  int max_tasks = 32;    ///< spawned-task budget (root excluded)
  int max_depth = 3;     ///< spawn nesting depth
  int max_actions = 7;   ///< actions per task body
  int max_loops = 2;     ///< parallel_for count (root only)
  bool with_deps = true;
  bool with_taskloop = true;
};

struct GenAction {
  enum class Kind : u8 {
    Compute,
    Spawn,
    Taskwait,
    ParallelFor,
    Taskloop,
    WaitToken,    ///< spin until a TokenBoard token is signalled (hang tests)
    SignalToken,  ///< signal a TokenBoard token
  };
  Kind kind = Kind::Compute;
  Cycles cycles = 0;  ///< Compute
  int child = -1;     ///< Spawn: index into ProgramSpec::tasks
  int token = -1;     ///< WaitToken / SignalToken: TokenBoard slot
  std::vector<u64> dep_in, dep_out;  ///< Spawn: dependence handles
  // ParallelFor / Taskloop.
  ScheduleKind sched = ScheduleKind::Static;
  u64 chunk = 0;
  u64 lo = 0, hi = 0;
  u64 grainsize = 1;                     ///< Taskloop
  Cycles iter_base = 0, iter_step = 0;   ///< per-iteration compute:
                                         ///< base + (i % 7) * step
  int src_line = 0;
  std::string src_func;  ///< stable label; outlives the SrcLoc handed out
};

struct GenTask {
  std::vector<GenAction> actions;
};

/// Shared token slots for WaitToken/SignalToken actions. Used only by
/// generate_hang_program(): a token cycle (A waits on what B signals last,
/// and vice versa) is a real deadlock on the threaded engine — the seeded
/// input for supervisor hang-detection tests. release_all() is the escape
/// hatch a test's on_stall hook pulls to let the program finish in-process.
struct TokenBoard {
  std::array<std::atomic<int>, 8> tokens{};
  std::atomic<bool> released{false};

  void reset() {
    for (auto& t : tokens) t.store(0, std::memory_order_relaxed);
    released.store(false, std::memory_order_relaxed);
  }
  void release_all() { released.store(true, std::memory_order_release); }
};

struct ProgramSpec {
  u64 seed = 0;
  std::vector<GenTask> tasks;  ///< [0] is the root body
  /// Non-null only for hang programs (WaitToken/SignalToken actions); reset
  /// at the start of every run_spec_body so specs stay reusable.
  std::shared_ptr<TokenBoard> tokens;
  std::string name() const { return "gen-" + std::to_string(seed); }
  /// Spawned tasks (root excluded), counting taskloop expansion leaves only
  /// implicitly (they are generated by the front end, not the spec).
  size_t spawned_tasks() const { return tasks.size() - 1; }
};

ProgramSpec generate_program(u64 seed, const GenOptions& opts = {});

/// A seeded program that DEADLOCKS on the threaded engine: a small benign
/// prefix plus two tasks whose WaitToken/SignalToken actions form a token
/// cycle (each waits for the token the other would signal only afterwards).
/// Workers end up spinning inside task bodies with no grain ever completing
/// — exactly the no-progress stall the runtime supervisor must detect.
/// Never produced by generate_program(); do not run through the simulator
/// or the differential oracle (it would hang them). The spec's TokenBoard
/// lets a test's on_stall hook release the cycle in-process.
ProgramSpec generate_hang_program(u64 seed);

/// Replays the spec's root body on a context (pure; reusable any number of
/// times). The spec must outlive the call: SrcLoc labels point into it.
void run_spec_body(const ProgramSpec& spec, front::Ctx& ctx);

/// Full engine run of a spec.
Trace run_spec(const ProgramSpec& spec, front::Engine& eng);

}  // namespace gg::check
