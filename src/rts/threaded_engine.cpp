#include "rts/threaded_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "common/check.hpp"
#include "common/par_for.hpp"
#include "common/prng.hpp"
#include "obs/exposition.hpp"
#include "obs/span.hpp"
#include "rts/preempt.hpp"

namespace gg::rts {

namespace {

// Low-overhead timestamps: modern x86 TSCs are constant/invariant, so one
// process-wide calibration against steady_clock converts ticks to ns. This
// is what keeps profiling overhead in the couple-percent range the paper
// reports for the MIR profiler (steady_clock calls alone would cost ~10x
// more per grain event).
#if defined(__x86_64__) || defined(__i386__)
inline u64 tsc_now() { return __builtin_ia32_rdtsc(); }

double tsc_ns_per_tick() {
  static const double ratio = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const u64 c0 = tsc_now();
    // Busy-wait ~2ms for a stable ratio.
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(2)) {
    }
    const u64 c1 = tsc_now();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                t1 - t0)
                                .count());
    return ns / static_cast<double>(c1 - c0);
  }();
  return ratio;
}
#endif

}  // namespace

using front::Ctx;
using front::ForOpts;
using front::LoopFn;
using front::SrcLoc;
using front::TaskFn;

// ---------------------------------------------------------------------------
// Internal structures

struct ThreadedEngine::Task {
  TaskFn body;
  TaskId uid = 0;
  Task* parent = nullptr;
  u32 child_index = 0;
  StrId src = 0;
  bool inlined = false;
  std::atomic<u32> live_children{0};
  std::atomic<u32> refs{1};

  // Task-dependence state (OpenMP depend clauses). `dep_mutex` guards the
  // finished flag and the successor list; a successor registered before the
  // predecessor finishes is released (pred_count decrement, enqueue at 0)
  // by the predecessor's completing worker.
  std::mutex dep_mutex;
  bool dep_finished = false;
  std::vector<Task*> dep_successors;
  std::atomic<u32> pred_count{0};
};

/// Per-executing-task dependence bookkeeping: OpenMP dependences order
/// sibling tasks, so the map lives in the spawning context (single
/// threaded, no locking). Referenced tasks are kept alive with a ref.
struct ThreadedEngine::DepMap {
  struct Entry {
    Task* last_writer = nullptr;
    std::vector<Task*> readers;
  };
  std::map<u64, Entry> entries;
};

/// Scheduler-introspection counters, one cache-line-padded slot per worker.
/// Incremented only by the owning worker, only when profiling is on (plain
/// u64 adds, no synchronization — the task hot path stays within the
/// paper's 2.5% overhead budget), and read by the main thread after the
/// worker threads joined.
struct alignas(64) SchedCounters {
  u64 tasks_spawned = 0;
  u64 tasks_executed = 0;
  u64 tasks_inlined = 0;
  u64 steals = 0;
  u64 steal_failures = 0;
  u64 cas_failures = 0;
  u64 deque_pushes = 0;
  u64 deque_pops = 0;
  u64 taskwait_helps = 0;
  TimeNs idle_ns = 0;
};

struct ThreadedEngine::Worker {
  // The deque and its contention counter are what thieves touch; the
  // alignment keeps them off the cache lines of the owner-private fields.
  alignas(64) ChaseLevDeque<Task*> queue;
  // CAS races lost on this deque (the owner's pops and thieves' steals),
  // counted while profiling; the telemetry sampler reads it live.
  std::atomic<u64> queue_contention{0};
  alignas(64) int id = 0;
  std::thread thread;  // not started for worker 0 (the caller's thread)
  TraceRecorder::Writer writer;
  Xoshiro256 rng;
  u32 loop_seq = 0;           // loops started by this thread
  LoopId finished_loop = 0;   // last loop this worker fully drained
  SchedCounters cnt;          // padded: no false sharing with neighbors

  // Supervision fields: written by the owning worker (relaxed stores on the
  // idle/transition paths only), sampled by the watchdog. The heartbeat
  // ticks in the scheduling loops, so a worker wedged inside user code
  // shows state==Exec with a frozen heartbeat in the stall dump.
  std::atomic<u64> heartbeat{0};
  std::atomic<u8> state{static_cast<u8>(WorkerState::Idle)};
  std::atomic<TaskId> current_task{kNoTask};

  Worker(int id_, TraceRecorder::Writer w, u64 seed)
      : id(id_), writer(w), rng(seed) {}
};

/// Cached metric handles for the engine's self-telemetry. Registry lookups
/// take a mutex, so the hot paths hold raw pointers resolved once per run;
/// a null telem_ (telemetry disabled, the default) costs each site exactly
/// one untaken branch.
struct ThreadedEngine::EngineTelemetry {
  obs::Registry* reg;
  obs::Counter* tasks_spawned;
  obs::Counter* tasks_executed;
  obs::Counter* tasks_inlined;
  obs::Counter* steals;
  obs::Counter* steal_failures;
  obs::Histogram* task_latency_ns;
  obs::Histogram* chunk_latency_ns;
  obs::Histogram* queue_depth;
  // Sampler-thread state for the progress-stall gauge (flusher-owned).
  u64 last_progress = 0;
  u64 last_change_mono_ns = 0;

  explicit EngineTelemetry(obs::Registry* r)
      : reg(r),
        tasks_spawned(r->counter("engine.tasks_spawned")),
        tasks_executed(r->counter("engine.tasks_executed")),
        tasks_inlined(r->counter("engine.tasks_inlined")),
        steals(r->counter("engine.steals")),
        steal_failures(r->counter("engine.steal_failures")),
        task_latency_ns(r->histogram("engine.task_latency_ns")),
        chunk_latency_ns(r->histogram("engine.chunk_latency_ns")),
        queue_depth(r->histogram("engine.queue_depth")) {}
};

struct ThreadedEngine::LoopState {
  LoopId uid = 0;
  StrId src = 0;
  ScheduleKind sched = ScheduleKind::Static;
  u64 chunk_min = 1;
  u64 lo = 0, hi = 0;
  u64 total = 0;
  int team = 1;
  const LoopFn* body = nullptr;
  std::atomic<u64> cursor{0};
  std::atomic<u64> iters_done{0};
  std::atomic<int> active{0};
  std::atomic<bool> done{false};
  std::vector<std::vector<std::pair<u64, u64>>> static_chunks;
  std::vector<u32> static_pos;  // per-thread; each slot touched only by owner

  /// Claims the next chunk for `thread`, or nullopt when the schedule has no
  /// more work for it.
  std::optional<std::pair<u64, u64>> claim(int thread) {
    switch (sched) {
      case ScheduleKind::Static: {
        auto& pos = static_pos[static_cast<size_t>(thread)];
        const auto& mine = static_chunks[static_cast<size_t>(thread)];
        if (pos >= mine.size()) return std::nullopt;
        return mine[pos++];
      }
      case ScheduleKind::Dynamic: {
        const u64 got = cursor.fetch_add(chunk_min, std::memory_order_relaxed);
        if (got >= hi) return std::nullopt;
        return std::make_pair(got, std::min(got + chunk_min, hi));
      }
      case ScheduleKind::Guided: {
        u64 got = cursor.load(std::memory_order_relaxed);
        while (true) {
          if (got >= hi) return std::nullopt;
          const u64 remaining = hi - got;
          const u64 size =
              std::max<u64>(chunk_min,
                            remaining / (2 * static_cast<u64>(team)));
          const u64 take = std::min(size, remaining);
          if (cursor.compare_exchange_weak(got, got + take,
                                           std::memory_order_relaxed)) {
            return std::make_pair(got, got + take);
          }
        }
      }
    }
    return std::nullopt;
  }
};

// ---------------------------------------------------------------------------
// Execution context

class ThreadedEngine::CtxImpl final : public Ctx {
 public:
  CtxImpl(ThreadedEngine* eng, Worker* w, Task* task)
      : eng_(eng), w_(w), task_(task) {}

  void spawn(const SrcLoc& loc, TaskFn body) override {
    spawn_impl(loc, nullptr, std::move(body));
  }

  void spawn(const SrcLoc& loc, const front::Depends& deps,
             TaskFn body) override {
    spawn_impl(loc, &deps, std::move(body));
  }

  void spawn_impl(const SrcLoc& loc, const front::Depends* deps, TaskFn body) {
    GG_CHECK_MSG(!in_chunk_,
                 "spawning tasks from loop chunks is not supported (the "
                 "profiler does not support nested parallelism)");
    ThreadedEngine& eng = *eng_;
    const TimeNs fork_time = eng.now();
    Task* child = eng.make_task(std::move(body), task_, intern_loc(loc),
                                fork_time, static_cast<u16>(w_->id),
                                /*inlined=*/false);
    child->child_index = next_child_index_++;

    // Resolve dependences against earlier siblings (OpenMP last-writer /
    // reader rules). Structural edges are recorded even when the
    // predecessor already finished; runtime blocking counts live preds.
    //
    // Creation guard: pred_count starts at 1 so that predecessors finishing
    // DURING registration cannot release (and race with) a half-registered
    // child; the guard is dropped at the end of this function.
    u32 live_regs = 0;
    std::vector<TaskId> live_pred_uids;
    if (deps != nullptr && !deps->empty()) {
      child->pred_count.store(1, std::memory_order_relaxed);
      live_regs = resolve_dependences(
          *deps, child, eng.supervising_ ? &live_pred_uids : nullptr);
    }
    const bool has_live_preds = live_regs > 0;
    // While the creation guard is still held the child cannot be enqueued,
    // so registering it as blocked here cannot race with its release.
    if (eng.supervising_ && has_live_preds) {
      eng.register_blocked(child->uid, std::move(live_pred_uids));
    }

    // Runtime internal cutoffs: execute inline instead of deferring. A task
    // with unsatisfied dependences can never run inline.
    bool inline_child = false;
    const Options& o = eng.opts_;
    if (!has_live_preds) {
      if (o.task_throttle_per_worker > 0 &&
          eng.live_tasks_.load(std::memory_order_relaxed) >=
              o.task_throttle_per_worker * static_cast<u64>(o.num_workers)) {
        inline_child = true;
      }
      if (!inline_child && o.inline_queue_limit > 0) {
        const size_t qsize = o.scheduler == SchedulerKind::WorkStealing
                                 ? w_->queue.size_estimate()
                                 : eng.central_queue_.size_estimate();
        if (qsize >= o.inline_queue_limit) inline_child = true;
      }
    }
    child->inlined = inline_child;

    // Snapshot the fields the profiler needs BEFORE the child becomes
    // visible to thieves: once pushed it can be stolen, executed, and freed
    // while this spawner is still recording.
    const TaskId child_uid = child->uid;
    const u32 child_index = child->child_index;
    const StrId child_src = child->src;

    const bool guarded = deps != nullptr && !deps->empty();
    // creation_cost ends HERE — before the child becomes visible to
    // thieves. The fork graph node spans [create_time, create_time +
    // creation_cost] and carries a Creation edge to the child's first
    // fragment, so the critical path sums both; if the cost included the
    // enqueue (the spawner can wait descheduled at the preemption point
    // after the deque push publishes the child), the child could execute
    // entirely inside the creation window and the summed path would exceed
    // the wall-clock makespan. The enqueue wait is still in the trace, as
    // the gap between the fork node and the parent's next fragment.
    const TimeNs created = eng.now();
    if (!inline_child) {
      child->parent->refs.fetch_add(1, std::memory_order_relaxed);
      child->parent->live_children.fetch_add(1, std::memory_order_relaxed);
      eng.live_tasks_.fetch_add(1, std::memory_order_relaxed);
      if (!guarded) eng.push_task(child, *w_);
      // else: enqueued when the creation guard drops below.
    }
    ++children_since_join_;

    if (eng.profiling()) {
      ++w_->cnt.tasks_spawned;
      if (inline_child) ++w_->cnt.tasks_inlined;
      if (auto* tm = eng.telem_.get()) {
        tm->tasks_spawned->add();
        if (inline_child) tm->tasks_inlined->add();
      }
      end_fragment(fork_time, FragmentEnd::Fork, child_uid);
      TaskRec rec;
      rec.uid = child_uid;
      rec.parent = task_->uid;
      rec.child_index = child_index;
      rec.src = child_src;
      rec.create_time = fork_time;
      rec.create_core = static_cast<u16>(w_->id);
      rec.creation_cost = created - fork_time;
      rec.inlined = inline_child;
      w_->writer.task(rec);
    }

    if (inline_child) {
      // Inline implies no live predecessors were registered; clear the
      // guard (nobody will ever decrement it) and run.
      if (guarded) child->pred_count.store(0, std::memory_order_relaxed);
      eng.exec_task(child, *w_);
    } else if (guarded) {
      // Drop the creation guard: if every registered predecessor already
      // finished (each decrements once), this spawner enqueues; otherwise
      // the last finishing predecessor does. After this line the child may
      // run and be freed at any moment — the dependence map's retain keeps
      // the pointer valid, but no further mutation of *child is allowed.
      if (child->pred_count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (eng.supervising_) eng.unregister_blocked(child_uid);
        eng.push_task(child, *w_);
      }
    }
    frag_start_ = eng.now();
  }

  /// Computes the child's predecessors per OpenMP rules: `in` waits on the
  /// handle's last writer; `out` waits on the last writer and every reader
  /// since, then becomes the new last writer. Returns the number of LIVE
  /// predecessors registered (each will decrement the child's pred_count);
  /// their uids are appended to `live_preds` when non-null (supervision).
  u32 resolve_dependences(const front::Depends& deps, Task* child,
                          std::vector<TaskId>* live_preds) {
    if (!dep_map_) dep_map_ = std::make_unique<DepMap>();
    ThreadedEngine& eng = *eng_;
    std::vector<Task*> preds;
    auto add_pred = [&](Task* p) {
      if (p == nullptr || p == child) return;
      for (Task* q : preds) {
        if (q == p) return;
      }
      preds.push_back(p);
    };
    for (u64 h : deps.in) {
      auto it = dep_map_->entries.find(h);
      if (it != dep_map_->entries.end()) add_pred(it->second.last_writer);
    }
    for (u64 h : deps.out) {
      auto it = dep_map_->entries.find(h);
      if (it != dep_map_->entries.end()) {
        add_pred(it->second.last_writer);
        for (Task* r : it->second.readers) add_pred(r);
      }
    }
    u32 live_regs = 0;
    for (Task* p : preds) {
      if (eng.profiling()) {
        DependRec d;
        d.pred = p->uid;
        d.succ = child->uid;
        w_->writer.depend(d);
      }
      std::lock_guard lock(p->dep_mutex);
      if (!p->dep_finished) {
        p->dep_successors.push_back(child);
        child->pred_count.fetch_add(1, std::memory_order_relaxed);
        ++live_regs;
        if (live_preds != nullptr) live_preds->push_back(p->uid);
      }
    }
    // Update the map; it holds a ref on every task it references.
    auto retain = [&](Task* t) {
      t->refs.fetch_add(1, std::memory_order_relaxed);
      return t;
    };
    for (u64 h : deps.in) {
      dep_map_->entries[h].readers.push_back(retain(child));
    }
    for (u64 h : deps.out) {
      auto& e = dep_map_->entries[h];
      if (e.last_writer != nullptr) eng.release_task(e.last_writer);
      for (Task* r : e.readers) eng.release_task(r);
      e.readers.clear();
      e.last_writer = retain(child);
    }
    return live_regs;
  }

  /// Releases the dependence map's task references (called when the task's
  /// execution ends and the context is destroyed).
  ~CtxImpl() override {
    if (!dep_map_) return;
    for (auto& [h, e] : dep_map_->entries) {
      if (e.last_writer != nullptr) eng_->release_task(e.last_writer);
      for (Task* r : e.readers) eng_->release_task(r);
    }
  }

  void taskwait() override {
    GG_CHECK_MSG(!in_chunk_, "taskwait inside loop chunks is not supported");
    ThreadedEngine& eng = *eng_;
    if (children_since_join_ == 0 &&
        task_->live_children.load(std::memory_order_acquire) == 0) {
      return;  // structurally a no-op: nothing to synchronize with
    }
    const TimeNs t0 = eng.now();
    const u32 jseq = next_join_seq_++;
    if (eng.profiling()) end_fragment(t0, FragmentEnd::Join, jseq);
    eng.help_until(*w_, task_->live_children);
    const TimeNs t1 = eng.now();
    if (eng.profiling()) {
      JoinRec j;
      j.task = task_->uid;
      j.seq = jseq;
      j.start = t0;
      j.end = t1;
      j.core = static_cast<u16>(w_->id);
      w_->writer.join(j);
    }
    children_since_join_ = 0;
    frag_start_ = eng.now();
  }

  void parallel_for(const SrcLoc& loc, u64 lo, u64 hi, const ForOpts& opts,
                    const LoopFn& body) override {
    GG_CHECK_MSG(task_->uid == kRootTask && !in_chunk_,
                 "parallel_for is only supported from the root task (no "
                 "nested parallelism)");
    eng_->run_parallel_for(*w_, task_, loc, lo, hi, opts, body, frag_start_,
                           *this);
  }

  int worker() const override { return w_->id; }
  int num_workers() const override { return eng_->opts_.num_workers; }

 private:
  friend class ThreadedEngine;

  StrId intern_loc(const SrcLoc& loc) {
    return eng_->recorder_->intern_source(loc.file, loc.line, loc.func);
  }

  /// Emits the fragment [frag_start_, end) with the given end reason.
  void end_fragment(TimeNs end, FragmentEnd reason, u64 ref) {
    FragmentRec f;
    f.task = task_->uid;
    f.seq = next_fragment_seq_++;
    f.start = frag_start_;
    f.end = end;
    f.core = static_cast<u16>(w_->id);
    f.counters.compute = end - frag_start_;
    f.end_reason = reason;
    f.end_ref = ref;
    w_->writer.fragment(f);
  }

  ThreadedEngine* eng_;
  Worker* w_;
  Task* task_;
  TimeNs frag_start_ = 0;
  u32 next_fragment_seq_ = 0;
  u32 next_join_seq_ = 0;
  u32 next_child_index_ = 0;
  u32 children_since_join_ = 0;
  bool in_chunk_ = false;
  std::unique_ptr<DepMap> dep_map_;  // lazily created on first depend spawn
};

// ---------------------------------------------------------------------------
// Engine

ThreadedEngine::ThreadedEngine(Options opts) : opts_(opts) {
  GG_CHECK(opts_.num_workers >= 1);
}

ThreadedEngine::~ThreadedEngine() = default;

front::RegionId ThreadedEngine::alloc_region(const std::string& name,
                                             u64 bytes,
                                             front::PagePlacement placement,
                                             int touch_node) {
  // Real executions have real memory; regions are provenance only.
  (void)placement;
  (void)touch_node;
  region_notes_.push_back("region " + name + " bytes=" + std::to_string(bytes));
  return next_region_++;
}

TimeNs ThreadedEngine::now() const {
#if defined(__x86_64__) || defined(__i386__)
  if (!opts_.strict_clock) {
    return static_cast<TimeNs>(
        static_cast<double>(tsc_now() - tsc_base_) * tsc_ns_per_tick());
  }
#endif
  return static_cast<TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - region_start_)
          .count());
}

ThreadedEngine::Task* ThreadedEngine::make_task(TaskFn body, Task* parent,
                                                StrId src, TimeNs create_time,
                                                u16 create_core, bool inlined) {
  (void)create_time;
  (void)create_core;
  Task* t = new Task();
  t->body = std::move(body);
  t->uid = parent == nullptr ? kRootTask
                             : next_task_id_.fetch_add(1,
                                                       std::memory_order_relaxed);
  t->parent = parent;
  t->src = src;
  t->inlined = inlined;
  return t;
}

void ThreadedEngine::release_task(Task* task) {
  if (task->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete task;
}

void ThreadedEngine::push_task(Task* task, Worker& w) {
  if (opts_.profile) ++w.cnt.deque_pushes;
  if (opts_.scheduler == SchedulerKind::WorkStealing) {
    w.queue.push(task);
    if (telem_ != nullptr)
      telem_->queue_depth->observe(w.queue.size_estimate());
  } else {
    central_queue_.push(task);
  }
}

ThreadedEngine::Task* ThreadedEngine::get_task(Worker& w) {
  const bool prof = opts_.profile;
  if (opts_.scheduler == SchedulerKind::CentralQueue) {
    if (auto t = central_queue_.pop()) {
      if (prof) ++w.cnt.deque_pops;
      return *t;
    }
    return nullptr;
  }
  bool lost = false;
  if (auto t = w.queue.pop(prof ? &lost : nullptr)) {
    if (prof) ++w.cnt.deque_pops;
    return *t;
  }
  if (lost) {
    ++w.cnt.cas_failures;
    w.queue_contention.fetch_add(1, std::memory_order_relaxed);
  }
  // Steal: visit every other worker once, starting at a random victim.
  const int n = opts_.num_workers;
  if (n <= 1) return nullptr;
  const int start = static_cast<int>(w.rng.bounded(static_cast<u64>(n)));
  for (int i = 0; i < n; ++i) {
    const int victim = (start + i) % n;
    if (victim == w.id) continue;
    Worker& v = *workers_[static_cast<size_t>(victim)];
    if (auto t = v.queue.steal(prof ? &lost : nullptr)) {
      if (prof) ++w.cnt.steals;
      if (telem_ != nullptr) telem_->steals->add();
      return *t;
    }
    if (prof) {
      ++w.cnt.steal_failures;
      if (lost) {
        ++w.cnt.cas_failures;
        v.queue_contention.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (telem_ != nullptr) telem_->steal_failures->add();
  }
  return nullptr;
}

void ThreadedEngine::exec_task(Task* task, Worker& w) {
  preempt_point(PreemptPoint::TaskExec);
  if (opts_.profile) ++w.cnt.tasks_executed;
  u8 prev_state = static_cast<u8>(WorkerState::Idle);
  TaskId prev_task = kNoTask;
  if (track_worker_health()) {
    prev_state = w.state.exchange(static_cast<u8>(WorkerState::Exec),
                                  std::memory_order_relaxed);
    prev_task = w.current_task.exchange(task->uid, std::memory_order_relaxed);
  }
  CtxImpl ctx(this, &w, task);
  ctx.frag_start_ = now();
  const TimeNs exec_start = ctx.frag_start_;
  task->body(ctx);
  const TimeNs t1 = now();
  if (profiling()) ctx.end_fragment(t1, FragmentEnd::TaskEnd, 0);
  if (telem_ != nullptr) {
    telem_->tasks_executed->add();
    telem_->task_latency_ns->observe(
        t1 > exec_start ? static_cast<u64>(t1 - exec_start) : 0);
  }

  // Release dependence successors: the last finishing predecessor enqueues
  // the waiting task on its own worker's queue.
  {
    std::vector<Task*> succs;
    {
      std::lock_guard lock(task->dep_mutex);
      task->dep_finished = true;
      succs = std::move(task->dep_successors);
    }
    for (Task* s : succs) {
      if (s->pred_count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (supervising_) unregister_blocked(s->uid);
        push_task(s, w);
      }
    }
  }
  if (supervising_ || telem_ != nullptr)
    progress_.fetch_add(1, std::memory_order_relaxed);
  if (track_worker_health()) {
    w.state.store(prev_state, std::memory_order_relaxed);
    w.current_task.store(prev_task, std::memory_order_relaxed);
  }

  Task* parent = task->parent;
  if (parent != nullptr && !task->inlined) {
    live_tasks_.fetch_sub(1, std::memory_order_relaxed);
    parent->live_children.fetch_sub(1, std::memory_order_release);
    release_task(parent);
  }
  release_task(task);
}

void ThreadedEngine::help_until(Worker& w, const std::atomic<u32>& counter) {
  const bool prof = opts_.profile;
  u8 prev_state = static_cast<u8>(WorkerState::Idle);
  if (track_worker_health()) {
    prev_state = w.state.exchange(static_cast<u8>(WorkerState::Taskwait),
                                  std::memory_order_relaxed);
  }
  while (counter.load(std::memory_order_acquire) != 0) {
    if (Task* t = get_task(w)) {
      if (prof) ++w.cnt.taskwait_helps;
      exec_task(t, w);
    } else if (prof) {
      if (track_worker_health())
        w.heartbeat.fetch_add(1, std::memory_order_relaxed);
      w.writer.poll_flush();
      const TimeNs i0 = now();
      preempt_point(PreemptPoint::Idle);
      std::this_thread::yield();
      w.cnt.idle_ns += now() - i0;
    } else {
      preempt_point(PreemptPoint::Idle);
      std::this_thread::yield();
    }
  }
  if (track_worker_health())
    w.state.store(prev_state, std::memory_order_relaxed);
}

void ThreadedEngine::worker_main(int id) {
  Worker& w = *workers_[static_cast<size_t>(id)];
  preempt_thread_start(id);
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (Task* t = get_task(w)) {
      exec_task(t, w);
      continue;
    }
    auto loop = load_loop();
    if (loop && !loop->done.load(std::memory_order_acquire) &&
        w.id < loop->team && w.finished_loop != loop->uid) {
      participate_in_loop(loop, w);
      continue;
    }
    if (track_worker_health())
        w.heartbeat.fetch_add(1, std::memory_order_relaxed);
    w.writer.poll_flush();
    if (opts_.profile) {
      const TimeNs i0 = now();
      preempt_point(PreemptPoint::Idle);
      std::this_thread::yield();
      w.cnt.idle_ns += now() - i0;
    } else {
      preempt_point(PreemptPoint::Idle);
      std::this_thread::yield();
    }
  }
  preempt_thread_stop();
}

void ThreadedEngine::participate_in_loop(const std::shared_ptr<LoopState>& L,
                                         Worker& w) {
  L->active.fetch_add(1, std::memory_order_acq_rel);
  // Re-check after registering: if all iterations are already claimed we
  // leave silently so latecomers do not pollute the trace with book-keeping
  // for a loop they never worked on.
  if (L->done.load(std::memory_order_acquire) ||
      (L->sched != ScheduleKind::Static &&
       L->cursor.load(std::memory_order_relaxed) >= L->hi)) {
    w.finished_loop = L->uid;
    L->active.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  u32 bk_seq = 0;
  u32 chunk_seq = 0;
  bool worked = false;
  while (true) {
    preempt_point(PreemptPoint::LoopClaim);
    const TimeNs bk0 = now();
    auto range = L->claim(w.id);
    const TimeNs bk1 = now();
    if (profiling() && (worked || range.has_value())) {
      BookkeepRec b;
      b.loop = L->uid;
      b.thread = static_cast<u16>(w.id);
      b.core = static_cast<u16>(w.id);
      b.seq_on_thread = bk_seq++;
      b.start = bk0;
      b.end = bk1;
      b.got_chunk = range.has_value();
      w.writer.bookkeep(b);
    }
    if (!range) break;
    worked = true;
    CtxImpl ctx(this, &w, root_task_for_loops_);
    ctx.in_chunk_ = true;
    const TimeNs c0 = now();
    for (u64 i = range->first; i < range->second; ++i) (*L->body)(i, ctx);
    const TimeNs c1 = now();
    if (profiling()) {
      ChunkRec c;
      c.loop = L->uid;
      c.thread = static_cast<u16>(w.id);
      c.core = static_cast<u16>(w.id);
      c.seq_on_thread = chunk_seq++;
      c.iter_begin = range->first;
      c.iter_end = range->second;
      c.start = c0;
      c.end = c1;
      c.counters.compute = c1 - c0;
      w.writer.chunk(c);
    }
    if (telem_ != nullptr)
      telem_->chunk_latency_ns->observe(
          c1 > c0 ? static_cast<u64>(c1 - c0) : 0);
    L->iters_done.fetch_add(range->second - range->first,
                            std::memory_order_acq_rel);
    if (supervising_ || telem_ != nullptr)
      progress_.fetch_add(1, std::memory_order_relaxed);
  }
  w.finished_loop = L->uid;
  L->active.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadedEngine::run_parallel_for(Worker& w, Task* root_task,
                                      const SrcLoc& loc, u64 lo, u64 hi,
                                      const ForOpts& opts, const LoopFn& body,
                                      TimeNs frag_start, CtxImpl& ctx) {
  (void)frag_start;
  auto L = std::make_shared<LoopState>();
  L->uid = next_loop_id_.fetch_add(1, std::memory_order_relaxed);
  L->src = recorder_->intern_source(loc.file, loc.line, loc.func);
  L->sched = opts.sched;
  L->lo = lo;
  L->hi = hi;
  L->total = hi > lo ? hi - lo : 0;
  L->team = opts.num_threads > 0
                ? std::min(opts.num_threads, opts_.num_workers)
                : opts_.num_workers;
  L->body = &body;
  L->cursor.store(lo, std::memory_order_relaxed);

  if (opts.sched == ScheduleKind::Static) {
    const u64 team = static_cast<u64>(L->team);
    const u64 csize =
        opts.chunk > 0 ? opts.chunk
                       : std::max<u64>(1, (L->total + team - 1) / team);
    L->chunk_min = csize;
    L->static_chunks.assign(static_cast<size_t>(L->team), {});
    L->static_pos.assign(static_cast<size_t>(L->team), 0);
    u64 pos = lo;
    u64 index = 0;
    while (pos < hi) {
      const u64 end = std::min(pos + csize, hi);
      L->static_chunks[static_cast<size_t>(index % team)].emplace_back(pos,
                                                                       end);
      pos = end;
      ++index;
    }
  } else {
    L->chunk_min = std::max<u64>(1, opts.chunk);
  }

  const TimeNs loop_start = now();
  if (profiling()) ctx.end_fragment(loop_start, FragmentEnd::Loop, L->uid);

  const u32 loop_seq = w.loop_seq++;
  if (L->total > 0) {
    store_loop(L);
    participate_in_loop(L, w);
    // Wait for every participant to drain; help with stray tasks meanwhile.
    u8 prev_state = static_cast<u8>(WorkerState::Idle);
    if (track_worker_health()) {
      prev_state = w.state.exchange(static_cast<u8>(WorkerState::LoopWait),
                                    std::memory_order_relaxed);
    }
    while (!(L->iters_done.load(std::memory_order_acquire) == L->total &&
             L->active.load(std::memory_order_acquire) == 0)) {
      if (Task* t = get_task(w)) {
        exec_task(t, w);
      } else if (profiling()) {
        if (track_worker_health())
        w.heartbeat.fetch_add(1, std::memory_order_relaxed);
        w.writer.poll_flush();
        const TimeNs i0 = now();
        preempt_point(PreemptPoint::Idle);
        std::this_thread::yield();
        w.cnt.idle_ns += now() - i0;
      } else {
        preempt_point(PreemptPoint::Idle);
        std::this_thread::yield();
      }
    }
    if (track_worker_health())
      w.state.store(prev_state, std::memory_order_relaxed);
    L->done.store(true, std::memory_order_release);
    store_loop(nullptr);
  }
  const TimeNs loop_end = now();

  if (profiling()) {
    LoopRec rec;
    rec.uid = L->uid;
    rec.enclosing_task = root_task->uid;
    rec.src = L->src;
    rec.sched = opts.sched;
    rec.chunk_param = opts.chunk;
    rec.iter_begin = lo;
    rec.iter_end = hi;
    rec.num_threads = static_cast<u16>(L->team);
    rec.starting_thread = static_cast<u16>(w.id);
    rec.seq = loop_seq;
    rec.start = loop_start;
    rec.end = loop_end;
    w.writer.loop(rec);
  }
  ctx.frag_start_ = now();
}

// ---------------------------------------------------------------------------
// Supervision

void ThreadedEngine::register_blocked(TaskId uid, std::vector<TaskId> preds) {
  std::lock_guard lock(blocked_mutex_);
  blocked_tasks_[uid] = std::move(preds);
}

void ThreadedEngine::unregister_blocked(TaskId uid) {
  std::lock_guard lock(blocked_mutex_);
  blocked_tasks_.erase(uid);
}

SupervisorReport ThreadedEngine::build_supervisor_report(
    TimeNs stalled_ns, const std::vector<u64>& window_beats) {
  SupervisorReport rep;
  rep.stalled_for_ns = stalled_ns;
  rep.progress = progress_.load(std::memory_order_relaxed);
  rep.live_tasks = live_tasks_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    WorkerSnapshot s;
    s.worker = w.id;
    s.state = static_cast<WorkerState>(w.state.load(std::memory_order_relaxed));
    s.heartbeat = w.heartbeat.load(std::memory_order_relaxed);
    s.heartbeat_stuck = i < window_beats.size() && s.heartbeat == window_beats[i];
    s.current_task = w.current_task.load(std::memory_order_relaxed);
    s.queue_depth = opts_.scheduler == SchedulerKind::WorkStealing
                        ? w.queue.size_estimate()
                        : central_queue_.size_estimate();
    rep.workers.push_back(s);
  }
  {
    std::lock_guard lock(blocked_mutex_);
    for (const auto& [uid, preds] : blocked_tasks_) {
      rep.blocked.push_back(BlockedTask{uid, preds});
    }
  }
  rep.detect_dependence_cycle();
  return rep;
}

void ThreadedEngine::watchdog_main() {
  using clock = std::chrono::steady_clock;
  const auto poll = std::chrono::nanoseconds(
      std::max<u64>(opts_.supervisor.poll_interval_ns, 1'000'000));
  auto window_start = clock::now();
  u64 last_progress = progress_.load(std::memory_order_relaxed);
  std::vector<u64> window_beats(workers_.size(), 0);
  auto snapshot_beats = [&] {
    for (size_t i = 0; i < workers_.size(); ++i) {
      window_beats[i] = workers_[i]->heartbeat.load(std::memory_order_relaxed);
    }
  };
  snapshot_beats();
  auto rearm = [&] {
    window_start = clock::now();
    last_progress = progress_.load(std::memory_order_relaxed);
    snapshot_beats();
  };
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    if (watchdog_stop_.load(std::memory_order_acquire)) break;
    if (root_done_.load(std::memory_order_acquire)) {
      rearm();  // region over; only shutdown latency remains
      continue;
    }
    const u64 prog = progress_.load(std::memory_order_relaxed);
    if (prog != last_progress) {
      rearm();
      continue;
    }
    const u64 elapsed_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             window_start)
            .count());
    if (elapsed_ns < opts_.supervisor.stall_timeout_ns) continue;

    // Stall: no grain completed for a full deadline while the region is
    // still running. (A single legitimate computation longer than the
    // deadline is indistinguishable from a hang — the knob is the contract.)
    SupervisorReport rep = build_supervisor_report(elapsed_ns, window_beats);
    const std::string text = rep.render();
    {
      // Collapse to one provenance note ("supervisor ..."), newline -> "; ".
      std::string line = text;
      while (!line.empty() && line.back() == '\n') line.pop_back();
      for (char& c : line) {
        if (c == '\n') c = ';';
      }
      std::lock_guard lock(supervisor_note_mutex_);
      supervisor_notes_.push_back("supervisor " + line);
    }
    if (opts_.supervisor.dump_on_stall) {
      if (spool_sink_) spool_sink_->append_dump(text);
      std::fputs(text.c_str(), stderr);
    }
    if (opts_.supervisor.on_stall) {
      opts_.supervisor.on_stall(rep);  // may unblock the program
      rearm();
      continue;
    }
    // Graceful abort-with-flush: stamp the crash footer with the stall
    // reason (every sealed frame is already written), then die loudly.
    if (spool_sink_) spool_sink_->emergency_flush(0, "supervisor stall");
    std::abort();
  }
}

Trace ThreadedEngine::run(const std::string& program_name,
                          const TaskFn& root) {
  recorder_ = std::make_unique<TraceRecorder>(opts_.num_workers);
  // Telemetry context for this run: an explicit registry wins; GG_TELEMETRY
  // falls back to the process-wide one. Disabled (both null) leaves telem_
  // null and every instrumentation site bit-identical to the seed path.
  telemetry_ready_.store(false, std::memory_order_release);
  telem_.reset();
  {
    obs::Registry* reg = opts_.telemetry;
    if (reg == nullptr && obs::env_enabled()) reg = &obs::process_registry();
    if (reg != nullptr && opts_.profile)
      telem_ = std::make_unique<EngineTelemetry>(reg);
  }
  next_task_id_.store(1);
  next_loop_id_.store(1);
  live_tasks_.store(0);
  shutdown_.store(false);
  root_done_.store(false);
  store_loop(nullptr);
  progress_.store(0);
  watchdog_stop_.store(false);
  supervising_ = opts_.supervisor.enabled;
  {
    std::lock_guard lock(supervisor_note_mutex_);
    supervisor_notes_.clear();
  }
  {
    std::lock_guard lock(blocked_mutex_);
    blocked_tasks_.clear();
  }

  // Everything the final meta carries except the (unknown) region end; the
  // spool header's 'M' frame uses the same fields so a crashed run still
  // recovers with full identification.
  auto make_meta = [&](TimeNs region_end) {
    TraceMeta meta;
    meta.program = program_name;
    meta.runtime = opts_.scheduler == SchedulerKind::WorkStealing
                       ? "threaded/ws"
                       : "threaded/central";
    meta.topology = "host";
    meta.num_workers = opts_.num_workers;
    meta.num_cores = opts_.num_workers;
    meta.ghz = 1.0;  // cycles are nanoseconds in threaded executions
    meta.region_start = 0;
    meta.region_end = region_end;
    meta.notes = region_notes_;
    {
      std::lock_guard lock(supervisor_note_mutex_);
      for (const std::string& n : supervisor_notes_) meta.notes.push_back(n);
    }
    meta.profiled = opts_.profile;
#if defined(__x86_64__) || defined(__i386__)
    meta.clock_source = opts_.strict_clock ? "steady_clock" : "tsc";
#else
    meta.clock_source = "steady_clock";
#endif
    return meta;
  };

  spool_sink_.reset();
  if (opts_.profile && opts_.spool.enabled()) {
    spool::SpoolOptions sopts = opts_.spool;
    if (telem_ != nullptr) {
      // Live monitoring: the sink samples this engine's atomics on a timer
      // and appends 'T' frames a `ggstat --follow` can tail. The callback
      // is gated by telemetry_ready_ — the sink opens before the workers
      // exist.
      sopts.telemetry = telem_->reg;
      if (sopts.telemetry_interval_ns == 0)
        sopts.telemetry_interval_ns = 10'000'000;
      if (!sopts.telemetry_source)
        sopts.telemetry_source = [this] { return telemetry_payload(); };
    }
    std::string spool_err;
    spool_sink_ = spool::SpoolSink::open(sopts, make_meta(0),
                                         opts_.num_workers, &spool_err);
    if (spool_sink_) {
      recorder_->attach_spool(spool_sink_.get(), opts_.spool.epoch_bytes);
    } else {
      region_notes_.push_back("spool disabled: " + spool_err);
    }
  }

  workers_.clear();
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        i, recorder_->writer(i), mix64(0x9e3779b9u + static_cast<u64>(i))));
  }

  region_start_ = std::chrono::steady_clock::now();
#if defined(__x86_64__) || defined(__i386__)
  tsc_ns_per_tick();  // calibrate before the region starts
  tsc_base_ = tsc_now();
#endif
  if (telem_ != nullptr) {
    telem_->last_progress = 0;
    telem_->last_change_mono_ns = obs::mono_ns();
    telemetry_ready_.store(true, std::memory_order_release);
  }
  // Register with a schedule controller (if installed) BEFORE the worker
  // threads exist: worker 0 is the first registrant, so it takes the token
  // deterministically and the whole region is explored serialized.
  preempt_thread_start(0);
  for (int i = 1; i < opts_.num_workers; ++i) {
    Worker* w = workers_[static_cast<size_t>(i)].get();
    w->thread = std::thread([this, i] { worker_main(i); });
  }
  // The watchdog never takes the schedule-controller token: it only samples
  // atomics and fires on wall-clock deadlines.
  if (supervising_) watchdog_ = std::thread([this] { watchdog_main(); });

  Task* root_task = make_task(root, nullptr,
                              recorder_->intern("<root>"), 0, 0, false);
  root_task_for_loops_ = root_task;
  Worker& w0 = *workers_[0];
  if (profiling()) {
    TaskRec rec;
    rec.uid = kRootTask;
    rec.parent = kNoTask;
    rec.src = root_task->src;
    w0.writer.task(rec);
  }

  // Execute the root body as the implicit task of the parallel region, with
  // an implicit barrier (drain of all outstanding tasks) at the end.
  CtxImpl ctx(this, &w0, root_task);
  if (track_worker_health()) {
    w0.state.store(static_cast<u8>(WorkerState::Exec),
                   std::memory_order_relaxed);
    w0.current_task.store(kRootTask, std::memory_order_relaxed);
  }
  ctx.frag_start_ = now();
  root_task->body(ctx);
  const TimeNs body_end = now();

  const bool need_implicit_join =
      ctx.children_since_join_ > 0 ||
      live_tasks_.load(std::memory_order_acquire) > 0;
  if (need_implicit_join) {
    const u32 jseq = ctx.next_join_seq_++;
    if (profiling()) ctx.end_fragment(body_end, FragmentEnd::Join, jseq);
    if (track_worker_health()) {
      w0.state.store(static_cast<u8>(WorkerState::Taskwait),
                     std::memory_order_relaxed);
    }
    while (live_tasks_.load(std::memory_order_acquire) != 0) {
      if (Task* t = get_task(w0)) {
        exec_task(t, w0);
      } else if (profiling()) {
        if (track_worker_health())
          w0.heartbeat.fetch_add(1, std::memory_order_relaxed);
        w0.writer.poll_flush();
        const TimeNs i0 = now();
        preempt_point(PreemptPoint::Idle);
        std::this_thread::yield();
        w0.cnt.idle_ns += now() - i0;
      } else {
        preempt_point(PreemptPoint::Idle);
        std::this_thread::yield();
      }
    }
    if (track_worker_health()) {
      w0.state.store(static_cast<u8>(WorkerState::Idle),
                     std::memory_order_relaxed);
    }
    const TimeNs barrier_end = now();
    if (profiling()) {
      JoinRec j;
      j.task = kRootTask;
      j.seq = jseq;
      j.start = body_end;
      j.end = barrier_end;
      j.core = 0;
      w0.writer.join(j);
      ctx.frag_start_ = barrier_end;
    }
  }
  const TimeNs region_end = now();
  if (profiling()) ctx.end_fragment(region_end, FragmentEnd::TaskEnd, 0);
  root_done_.store(true, std::memory_order_release);

  // The shutdown store happens while this thread still holds the schedule
  // token (if a controller is installed), and the token is handed over
  // BEFORE the joins: joining while holding it would deadlock the
  // serialized schedule, and storing the flag after releasing it would make
  // the workers' final idle iterations nondeterministic.
  shutdown_.store(true, std::memory_order_release);
  preempt_thread_stop();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (watchdog_.joinable()) {
    watchdog_stop_.store(true, std::memory_order_release);
    watchdog_.join();
  }
  release_task(root_task);
  root_task_for_loops_ = nullptr;

  // Scheduler introspection: every worker thread has joined, so their
  // counters (and the deques' owner-only resize counts) are safe to read
  // from here. trace_bytes is sampled before the stats record itself is
  // appended, making it the footprint of the worker's grain events proper.
  if (opts_.profile) {
    for (auto& w : workers_) {
      WorkerStatsRec s;
      s.worker = static_cast<u16>(w->id);
      s.tasks_spawned = w->cnt.tasks_spawned;
      s.tasks_executed = w->cnt.tasks_executed;
      s.tasks_inlined = w->cnt.tasks_inlined;
      s.steals = w->cnt.steals;
      s.steal_failures = w->cnt.steal_failures;
      s.cas_failures = w->cnt.cas_failures;
      s.deque_pushes = w->cnt.deque_pushes;
      s.deque_pops = w->cnt.deque_pops;
      s.deque_resizes = w->queue.resize_count();
      s.taskwait_helps = w->cnt.taskwait_helps;
      s.idle_ns = w->cnt.idle_ns;
      s.trace_bytes = w->writer.recorded_bytes();
      w->writer.stats(s);
    }
  }

  TraceMeta meta = make_meta(region_end);
  if (telem_ != nullptr && opts_.profile) {
    // Self-measured recorder overhead: time the per-grain instrumentation
    // primitive (two clock reads plus one buffer append), scale by the
    // grains recorded, compare to region wall time. Stamped as a provenance
    // note so reports can flag runs that bust the paper's 2.5% budget.
    std::vector<FragmentRec> scratch;
    scratch.reserve(512);
    const TimeNs c0 = now();
    for (int i = 0; i < 512; ++i) {
      FragmentRec f;
      f.start = now();
      f.end = now();
      scratch.push_back(f);
    }
    const TimeNs c1 = now();
    const double per_grain = static_cast<double>(c1 - c0) / 512.0;
    const u64 grains = progress_.load(std::memory_order_relaxed);
    const double pct =
        region_end > 0
            ? 100.0 * per_grain * static_cast<double>(grains) /
                  static_cast<double>(region_end)
            : 0.0;
    char note[128];
    std::snprintf(note, sizeof note,
                  "recorder overhead_pct=%.3f grains=%llu est_ns_per_grain=%.0f",
                  pct, static_cast<unsigned long long>(grains), per_grain);
    meta.notes.push_back(note);
    telem_->reg->gauge("engine.recorder_overhead_pct")->set(pct);
    telem_->reg->gauge("engine.progress")
        ->set(static_cast<double>(grains));
  }
  if (!opts_.profile) {
    // Produce an empty (but well-formed) trace carrying only the makespan —
    // used by the profiling-overhead experiment.
    TraceRecorder empty(1);
    Trace t = empty.finish(meta);
    recorder_.reset();
    return t;
  }
  // The workers have joined, so the end-of-run recovery and finalize may
  // use every hardware thread.
  const int finalize_threads = resolve_threads(0);
  Trace trace;
  if (recorder_->spool() != nullptr) {
    // Spooled run: seal the tails, write the clean footer, then reconstruct
    // the trace from the spool file — the exact pipeline a crashed run's
    // recovery uses, so it is exercised on every clean shutdown too.
    recorder_->finish_to_spool(meta);
    std::string rec_err;
    spool::RecoverResult rr = spool::recover_spool_file(
        opts_.spool.path, &rec_err, finalize_threads);
    spool_sink_.reset();
    if (rr.usable) {
      trace = std::move(rr.trace);
    } else {
      // The spool file went bad under us (disk trouble): return an empty
      // but well-formed trace that says why instead of dying here.
      trace.meta = meta;
      trace.meta.notes.push_back("spool recovery failed: " +
                                 (rec_err.empty() ? rr.report.summary()
                                                  : rec_err));
      trace.finalize();
    }
  } else {
    trace = recorder_->finish(meta, finalize_threads);
  }
  recorder_.reset();
  if (opts_.fault_plan) {
    const fault::InjectionReport rep = fault::inject(trace, *opts_.fault_plan);
    trace.meta.notes.push_back(
        "fault_injection seed=" + std::to_string(opts_.fault_plan->seed) +
        " " + rep.summary());
  }
  return trace;
}

std::string ThreadedEngine::telemetry_payload() {
  // Called from the spool's flusher thread. Reads only atomics that exist
  // for supervision/accounting already (heartbeats, worker state, progress,
  // queue bounds), so the sampler never races worker-private state. The
  // ready gate covers the window where the sink is open but the workers
  // are not yet constructed (and the next run's reset).
  if (telem_ == nullptr || !telemetry_ready_.load(std::memory_order_acquire))
    return {};
  obs::Registry& reg = *telem_->reg;
  const u64 tnow = obs::mono_ns();
  const u64 prog = progress_.load(std::memory_order_relaxed);
  reg.gauge("engine.progress")->set(static_cast<double>(prog));
  reg.gauge("engine.live_tasks")
      ->set(static_cast<double>(live_tasks_.load(std::memory_order_relaxed)));
  if (prog != telem_->last_progress) {
    telem_->last_progress = prog;
    telem_->last_change_mono_ns = tnow;
  }
  // Heartbeat lag: how long since any grain completed — the supervisor's
  // stall signal, exported continuously.
  reg.gauge("engine.progress_stall_ns")
      ->set(static_cast<double>(tnow - telem_->last_change_mono_ns));
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    const std::string prefix = "engine.worker." + std::to_string(i);
    reg.gauge(prefix + ".heartbeat")
        ->set(static_cast<double>(w.heartbeat.load(std::memory_order_relaxed)));
    reg.gauge(prefix + ".state")
        ->set(static_cast<double>(w.state.load(std::memory_order_relaxed)));
    reg.gauge(prefix + ".queue_depth")
        ->set(static_cast<double>(w.queue.size_estimate()));
    reg.gauge(prefix + ".queue_contention")
        ->set(static_cast<double>(
            w.queue_contention.load(std::memory_order_relaxed)));
  }
  if (spool_sink_ != nullptr) {
    reg.gauge("spool.payload_bytes")
        ->set(static_cast<double>(spool_sink_->payload_bytes()));
    u64 epochs = 0;
    for (int w = 0; w < opts_.num_workers; ++w)
      epochs += spool_sink_->epochs_sealed(static_cast<u32>(w));
    reg.gauge("spool.epochs_sealed")->set(static_cast<double>(epochs));
  }
  obs::MetricsSnapshot snap = reg.snapshot();
  snap.ts_ns = tnow;
  return obs::encode_telemetry_payload(snap);
}

}  // namespace gg::rts
