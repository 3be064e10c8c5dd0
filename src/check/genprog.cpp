#include "check/genprog.hpp"

#include <thread>

#include "common/check.hpp"
#include "common/prng.hpp"

namespace gg::check {

namespace {

/// Loop trip-count bound.
constexpr u64 kMaxIters = 24;

/// Deterministic per-iteration cost (pure in the iteration index).
Cycles iter_cost(const GenAction& a, u64 i) {
  return a.iter_base + (i % 7) * a.iter_step;
}

class Generator {
 public:
  Generator(u64 seed, const GenOptions& opts)
      : opts_(opts), rng_(mix64(seed ^ 0x67656e70726f67ull)) {
    spec_.seed = seed;
  }

  ProgramSpec generate() {
    spec_.tasks.emplace_back();  // root placeholder, filled below
    fill_task(0, /*depth=*/0, /*is_root=*/true);
    // A program with neither a spawn nor a loop has no grains and exercises
    // nothing; give such roots one child (left unjoined, so the implicit
    // barrier is covered too).
    bool has_grain = spec_.tasks.size() > 1;
    for (const GenAction& a : spec_.tasks[0].actions) {
      if (a.kind == GenAction::Kind::ParallelFor ||
          a.kind == GenAction::Kind::Taskloop) {
        has_grain = true;
      }
    }
    if (!has_grain) {
      GenAction a;
      a.kind = GenAction::Kind::Spawn;
      a.src_line = next_line_++;
      spec_.tasks[0].actions.push_back(std::move(a));
      const int child = new_task(/*depth=*/1);
      GenAction& back = spec_.tasks[0].actions.back();
      back.child = child;
      back.src_func = std::to_string(child);
      back.src_func.insert(back.src_func.begin(), 't');
    }
    return std::move(spec_);
  }

 private:
  u64 pick(u64 n) { return rng_.bounded(n); }  // uniform in [0, n)

  int new_task(int depth) {
    const int idx = static_cast<int>(spec_.tasks.size());
    spec_.tasks.emplace_back();
    ++spawned_;
    fill_task(idx, depth, /*is_root=*/false);
    return idx;
  }

  void fill_task(int index, int depth, bool is_root) {
    const int n_actions = 1 + static_cast<int>(
        pick(static_cast<u64>(opts_.max_actions)));
    int loops_left = is_root ? opts_.max_loops : 0;
    bool unjoined_spawn = false;
    std::vector<GenAction> actions;
    for (int i = 0; i < n_actions; ++i) {
      GenAction a;
      const u64 roll = pick(100);
      const bool can_spawn =
          depth < opts_.max_depth && spawned_ < opts_.max_tasks;
      if (roll < 35 || (!can_spawn && loops_left == 0)) {
        a.kind = GenAction::Kind::Compute;
        a.cycles = 20 + pick(4000);
      } else if (roll < 65 && can_spawn) {
        a.kind = GenAction::Kind::Spawn;
        if (opts_.with_deps && pick(100) < 35) {
          // Handles drawn from a tiny pool so chains actually form.
          const u64 n_in = pick(3);
          for (u64 k = 0; k < n_in; ++k) a.dep_in.push_back(1 + pick(4));
          if (pick(2) == 0) a.dep_out.push_back(1 + pick(4));
        }
        a.src_line = next_line_++;
        // The child is generated (and numbered) after the action fields:
        // spec task indices follow depth-first spawn order, mirroring the
        // capture order all engines elaborate in.
        actions.push_back(a);
        actions.back().child = new_task(depth + 1);
        actions.back().src_func = std::to_string(actions.back().child);
        actions.back().src_func.insert(actions.back().src_func.begin(), 't');
        unjoined_spawn = true;
        continue;
      } else if (roll < 75) {
        a.kind = GenAction::Kind::Taskwait;
        unjoined_spawn = false;
      } else if (loops_left > 0) {
        a.kind = GenAction::Kind::ParallelFor;
        --loops_left;
        const u64 s = pick(3);
        a.sched = s == 0 ? ScheduleKind::Static
                  : s == 1 ? ScheduleKind::Dynamic
                           : ScheduleKind::Guided;
        a.chunk = pick(5);  // 0 = schedule default
        a.lo = pick(4);
        // Occasionally an empty loop (hi == lo) to cover the zero-width
        // LoopRec path in every engine.
        a.hi = a.lo + (pick(10) == 0 ? 0 : 1 + pick(kMaxIters));
        a.iter_base = 30 + pick(600);
        a.iter_step = pick(90);
        a.src_line = next_line_++;
        a.src_func = "loop";
        a.src_func += std::to_string(a.src_line);
      } else if (opts_.with_taskloop && can_spawn && pick(4) == 0) {
        a.kind = GenAction::Kind::Taskloop;
        a.lo = 0;
        a.hi = 2 + pick(10);
        a.grainsize = 1 + pick(4);
        a.iter_base = 40 + pick(400);
        a.iter_step = pick(50);
        a.src_line = next_line_++;
        a.src_func = "tl";
        a.src_func += std::to_string(a.src_line);
        // taskloop spawns ~hi/grainsize leaves plus interior splitters;
        // charge a conservative estimate against the task budget.
        spawned_ += static_cast<int>((a.hi - a.lo) / a.grainsize + 1);
        unjoined_spawn = false;  // implicit taskgroup joins everything
      } else {
        a.kind = GenAction::Kind::Compute;
        a.cycles = 20 + pick(4000);
      }
      actions.push_back(std::move(a));
    }
    // Join discipline (see header): non-root tasks never leave children
    // unjoined. The root keeps them ~half the time so the implicit barrier
    // is exercised, deterministically.
    if (unjoined_spawn && (!is_root || pick(2) == 0)) {
      GenAction w;
      w.kind = GenAction::Kind::Taskwait;
      actions.push_back(std::move(w));
    }
    spec_.tasks[static_cast<size_t>(index)].actions = std::move(actions);
  }

  GenOptions opts_;
  Xoshiro256 rng_;
  ProgramSpec spec_;
  int spawned_ = 0;
  int next_line_ = 10;  ///< stable fake line numbers, unique per site
};

void run_task(const ProgramSpec& spec, int index, front::Ctx& ctx) {
  for (const GenAction& a : spec.tasks[static_cast<size_t>(index)].actions) {
    switch (a.kind) {
      case GenAction::Kind::Compute:
        ctx.compute(a.cycles);
        break;
      case GenAction::Kind::Spawn: {
        const front::SrcLoc loc{"gen.c", a.src_line, a.src_func.c_str()};
        const int child = a.child;
        auto body = [&spec, child](front::Ctx& c) {
          run_task(spec, child, c);
        };
        if (a.dep_in.empty() && a.dep_out.empty()) {
          ctx.spawn(loc, body);
        } else {
          front::Depends deps;
          deps.in = a.dep_in;
          deps.out = a.dep_out;
          ctx.spawn(loc, deps, body);
        }
        break;
      }
      case GenAction::Kind::Taskwait:
        ctx.taskwait();
        break;
      case GenAction::Kind::ParallelFor: {
        const front::SrcLoc loc{"gen.c", a.src_line, a.src_func.c_str()};
        front::ForOpts fo;
        fo.sched = a.sched;
        fo.chunk = a.chunk;
        ctx.parallel_for(loc, a.lo, a.hi, fo,
                         [&a](u64 i, front::Ctx& c) {
                           c.compute(iter_cost(a, i));
                         });
        break;
      }
      case GenAction::Kind::Taskloop: {
        const front::SrcLoc loc{"gen.c", a.src_line, a.src_func.c_str()};
        ctx.taskloop(loc, a.lo, a.hi, a.grainsize,
                     [&a](u64 i, front::Ctx& c) {
                       c.compute(iter_cost(a, i));
                     });
        break;
      }
      case GenAction::Kind::WaitToken: {
        TokenBoard* board = spec.tokens.get();
        if (board == nullptr || a.token < 0) break;
        auto& slot = board->tokens[static_cast<size_t>(a.token)];
        // Spin (not block): models user code wedged in a busy-wait, which
        // is the hang the supervisor's heartbeat sampling must attribute.
        while (slot.load(std::memory_order_acquire) == 0 &&
               !board->released.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        break;
      }
      case GenAction::Kind::SignalToken: {
        TokenBoard* board = spec.tokens.get();
        if (board == nullptr || a.token < 0) break;
        board->tokens[static_cast<size_t>(a.token)].store(
            1, std::memory_order_release);
        break;
      }
    }
  }
}

}  // namespace

ProgramSpec generate_program(u64 seed, const GenOptions& opts) {
  Generator gen(seed, opts);
  return gen.generate();
}

ProgramSpec generate_hang_program(u64 seed) {
  // Benign prefix: a handful of ordinary tasks so the stalled run still has
  // completed grains (and a realistic spool) before the deadlock bites.
  GenOptions opts;
  opts.max_tasks = 6;
  opts.max_depth = 2;
  opts.max_actions = 4;
  opts.max_loops = 0;
  opts.with_deps = false;
  opts.with_taskloop = false;
  ProgramSpec spec = generate_program(seed ^ 0x68616e67ull, opts);
  spec.seed = seed;
  spec.tokens = std::make_shared<TokenBoard>();

  // Two deadlocking tasks closing a token cycle: each waits for the token
  // the other signals only AFTER its own wait — neither ever advances.
  Xoshiro256 rng(mix64(seed ^ 0x746f6b656eull));
  const int t0 = static_cast<int>(rng.bounded(4));
  const int t1 = 4 + static_cast<int>(rng.bounded(4));
  auto deadlock_task = [&](int wait_tok, int signal_tok) {
    GenTask task;
    GenAction compute;
    compute.kind = GenAction::Kind::Compute;
    compute.cycles = 50 + rng.bounded(500);
    task.actions.push_back(compute);
    GenAction wait;
    wait.kind = GenAction::Kind::WaitToken;
    wait.token = wait_tok;
    task.actions.push_back(wait);
    GenAction signal;
    signal.kind = GenAction::Kind::SignalToken;
    signal.token = signal_tok;
    task.actions.push_back(signal);
    spec.tasks.push_back(std::move(task));
    return static_cast<int>(spec.tasks.size() - 1);
  };
  const int task_a = deadlock_task(t0, t1);
  const int task_b = deadlock_task(t1, t0);
  for (int child : {task_a, task_b}) {
    GenAction spawn;
    spawn.kind = GenAction::Kind::Spawn;
    spawn.child = child;
    spawn.src_line = 900 + child;
    spawn.src_func = "hang";
    spawn.src_func += std::to_string(child);
    spec.tasks[0].actions.push_back(std::move(spawn));
  }
  GenAction wait;
  wait.kind = GenAction::Kind::Taskwait;
  spec.tasks[0].actions.push_back(std::move(wait));
  return spec;
}

void run_spec_body(const ProgramSpec& spec, front::Ctx& ctx) {
  GG_CHECK(!spec.tasks.empty());
  if (spec.tokens) spec.tokens->reset();
  run_task(spec, 0, ctx);
}

Trace run_spec(const ProgramSpec& spec, front::Engine& eng) {
  return eng.run(spec.name(),
                 [&spec](front::Ctx& ctx) { run_spec_body(spec, ctx); });
}

}  // namespace gg::check
