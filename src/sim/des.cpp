#include "sim/des.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "trace/recorder.hpp"

namespace gg::sim {

namespace {

constexpr u32 kNoLoop = ~u32{0};

class Simulator {
 public:
  Simulator(const Program& prog, const SimOptions& opts)
      : prog_(prog),
        opts_(opts),
        ncores_(std::min(opts.num_cores, opts.topology.num_cores())),
        mem_(opts.topology, prog.regions, ncores_),
        recorder_(1),
        writer_(recorder_.writer(0)) {
    GG_CHECK(ncores_ >= 1);
    GG_CHECK(!prog_.tasks.empty() && prog_.tasks.front().is_root);
  }

  Trace run();

 private:
  // -- per-task dynamic state ------------------------------------------------
  struct TaskState {
    TimeNs ready_at = 0;  ///< when the enqueue became visible (no thief may
                          ///< start the task earlier — avoids DES
                          ///< event-atomicity anachronisms)
    u32 dep_pending = 0;  ///< unfinished dependence predecessors
    bool finished = false;
    std::vector<u32> dep_succs;  ///< tasks waiting on this one
    u32 live_children = 0;
    u32 children_since_join = 0;
    u32 next_frag_seq = 0;
    u32 next_join_seq = 0;
    u32 pending_join_seq = 0;
    TimeNs join_start = 0;
    bool waiting = false;  // suspended in taskwait / implicit barrier
    bool ready = false;    // wait condition satisfied; resumable
  };

  struct Frame {
    u32 task = 0;
    size_t pc = 0;
    TimeNs frag_start = 0;
    Counters frag_cnt;
    enum class Block : u8 { None, InlineChild, Children, Barrier, Loop };
    Block block = Block::None;
  };

  struct Core {
    int id = 0;
    TimeNs time = 0;
    bool sleeping = false;
    bool has_event = false;
    std::optional<Frame> current;
    std::vector<Frame> stack;  // suspended frames; back() is the top
    std::deque<u32> deque;     // WS deque: back = bottom (owner side)
    Xoshiro256 rng{0};
    // per-loop participation bookkeeping
    u32 participating_loop = kNoLoop;
    u32 finished_loop = kNoLoop;
    u32 loop_bk_seq = 0;
    u32 loop_chunk_seq = 0;
    bool loop_worked = false;
    // Modeled scheduler-introspection counters (mirror of the threaded
    // engine's SchedCounters; the DES has no CAS races or deque growth, so
    // those fields stay zero in the emitted stats).
    u64 tasks_spawned = 0;
    u64 tasks_executed = 0;
    u64 tasks_inlined = 0;
    u64 steals = 0;
    u64 steal_failures = 0;
    u64 queue_pushes = 0;
    u64 queue_pops = 0;
    u64 taskwait_helps = 0;
    TimeNs idle_ns = 0;
    TimeNs sleep_since = 0;  // valid while sleeping
  };

  struct LoopRun {
    u32 def_index = 0;
    LoopId uid = 0;
    u64 cursor = 0;
    u64 done_iters = 0;
    u64 total = 0;
    u64 chunk_min = 1;
    int team = 1;
    std::vector<std::vector<std::pair<u64, u64>>> static_chunks;
    std::vector<u32> static_pos;
    TimeNs start_time = 0;
    TimeNs max_end = 0;
    u16 starting_core = 0;
    u32 seq = 0;
    bool done = false;   ///< all iterations executed
    int active = 0;      ///< workers that got chunks but have not yet
                         ///< recorded their final empty book-keeping step
  };

  // -- helpers ---------------------------------------------------------------
  TimeNs ns(Cycles c) const { return opts_.topology.cycles_to_ns(c); }

  void schedule(Core& c) {
    if (!c.has_event) {
      c.has_event = true;
      events_.push({c.time, c.id});
    }
  }

  void wake(Core& c, TimeNs at) {
    if (c.sleeping) {
      c.sleeping = false;
      --sleeping_count_;
      c.time = std::max(c.time, at);
      c.idle_ns += c.time - c.sleep_since;  // modeled time parked
      schedule(c);
    }
  }

  void wake_all(TimeNs at) {
    for (auto& c : cores_) wake(c, at);
  }

  void sleep(Core& c) {
    if (!c.sleeping) {
      c.sleeping = true;
      ++sleeping_count_;
      c.sleep_since = c.time;
    }
  }

  int active_cores() const { return ncores_ - sleeping_count_; }

  /// Charges one deferred-task queue operation (enqueue/dequeue/steal).
  /// Lock-serialized runtimes fully serialize on the lock; lock-free ones
  /// still pay a global coherence-bandwidth share. See SimPolicy.
  void charge_queue_op(Core& c) {
    const SimPolicy& pol = opts_.policy;
    const Cycles serial =
        pol.lock_serialized ? pol.lock_cycles : pol.coherence_serial_cycles;
    if (ncores_ == 1) {
      c.time += ns(serial);
      return;
    }
    const TimeNs start = std::max(queue_busy_until_, c.time);
    queue_busy_until_ = start + ns(serial);
    c.time = queue_busy_until_;
  }

  StrId remap_str(StrId program_str) {
    // Program strings and trace strings are separate tables; intern lazily.
    if (program_str >= str_map_.size()) str_map_.resize(program_str + 1, 0);
    // Index 0 always maps to 0. Others are interned on first use; an
    // interned id is never 0 for a non-empty string, so 0 means "unmapped".
    if (program_str == 0) return 0;
    if (str_map_[program_str] == 0) {
      str_map_[program_str] =
          recorder_.intern(prog_.strings.get(program_str));
    }
    return str_map_[program_str];
  }

  // -- record emission -------------------------------------------------------
  // Fragments end at the moment the runtime call began (matching the
  // threaded engine): spawn/taskwait/loop-setup costs live between
  // fragments, in the fork/join node intervals, never in grain exec time.
  void emit_fragment_end_at(Core& c, Frame& f, TimeNs end, FragmentEnd reason,
                            u64 ref) {
    FragmentRec rec;
    rec.task = f.task;
    rec.seq = tstate_[f.task].next_frag_seq++;
    rec.start = f.frag_start;
    rec.end = end;
    rec.core = static_cast<u16>(c.id);
    rec.counters = f.frag_cnt;
    rec.end_reason = reason;
    rec.end_ref = ref;
    writer_.fragment(rec);
    f.frag_cnt = Counters{};
  }

  void emit_fragment_end(Core& c, Frame& f, FragmentEnd reason, u64 ref) {
    emit_fragment_end_at(c, f, c.time, reason, ref);
  }

  void emit_task_rec(u32 child, u16 core, TimeNs create_time,
                     TimeNs creation_cost, bool inlined) {
    const TaskDef& def = prog_.tasks[child];
    TaskRec rec;
    rec.uid = child;
    rec.parent = def.parent;
    rec.child_index = def.child_index;
    rec.src = remap_str(def.src);
    rec.create_time = create_time;
    rec.create_core = core;
    rec.creation_cost = creation_cost;
    rec.inlined = inlined;
    writer_.task(rec);
  }

  // -- core behavior ---------------------------------------------------------
  void step(int core_id, TimeNs t) {
    Core& c = cores_[static_cast<size_t>(core_id)];
    c.has_event = false;
    c.time = std::max(c.time, t);
    if (done_) return;
    if (c.current.has_value()) {
      exec_one_op(c);
    } else {
      find_work(c);
    }
  }

  void exec_one_op(Core& c);
  void find_work(Core& c);
  void start_task(Core& c, u32 task);
  void complete_current(Core& c);
  void on_task_finished(u32 task, TimeNs at);
  bool participate_in_loop(Core& c);
  std::optional<std::pair<u64, u64>> claim_chunk(LoopRun& L, int core);
  void run_chunk(Core& c, LoopRun& L, u64 lo, u64 hi);
  void begin_loop(Core& c, Frame& f, u32 loop_index);
  void finish_root(Core& c, Frame& f);

  // -- members ---------------------------------------------------------------
  const Program& prog_;
  SimOptions opts_;
  int ncores_;
  MemoryModel mem_;
  TraceRecorder recorder_;
  TraceRecorder::Writer writer_;

  std::vector<TaskState> tstate_;
  std::vector<Core> cores_;
  std::deque<u32> central_;
  std::optional<LoopRun> loop_;
  u64 live_tasks_ = 0;
  int sleeping_count_ = 0;
  LoopId next_loop_uid_ = 1;
  TimeNs queue_busy_until_ = 0;  // global queue lock / coherence timeline
  u32 root_loop_seq_ = 0;
  bool done_ = false;
  TimeNs region_end_ = 0;

  using Ev = std::pair<TimeNs, int>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events_;
  std::vector<StrId> str_map_;
  std::vector<u8> inlined_;  // task index -> executed inline (undeferred)
};

void Simulator::start_task(Core& c, u32 task) {
  if (task != 0) {
    ++c.tasks_executed;  // root's implicit task is not counted (matches rts)
    if (!c.stack.empty() &&
        (c.stack.back().block == Frame::Block::Children ||
         c.stack.back().block == Frame::Block::Barrier)) {
      ++c.taskwait_helps;  // picked up while a frame waits on this core
    }
  }
  Frame f;
  f.task = task;
  f.pc = 0;
  f.frag_start = c.time;
  c.current = f;
}

void Simulator::on_task_finished(u32 task, TimeNs at) {
  const TaskDef& def = prog_.tasks[task];
  TaskState& pts = tstate_[def.parent];
  tstate_[task].finished = true;
  pts.live_children--;
  live_tasks_--;
  if (pts.waiting && pts.live_children == 0) {
    pts.ready = true;
    wake_all(at);
  }
  // Root implicit barrier waits for the global count.
  TaskState& root = tstate_[0];
  if (live_tasks_ == 0 && root.waiting) {
    root.ready = true;
    wake_all(at);
  }
}

void Simulator::complete_current(Core& c) {
  Frame f = *c.current;
  c.current.reset();
  emit_fragment_end(c, f, FragmentEnd::TaskEnd, 0);
  const u32 task = f.task;
  if (task == 0) {
    // Root finished: the simulation is over.
    done_ = true;
    region_end_ = c.time;
    return;
  }
  // Release dependence successors onto the completing core's queue (the
  // threaded runtime does the same).
  tstate_[task].finished = true;
  for (u32 succ : tstate_[task].dep_succs) {
    if (--tstate_[succ].dep_pending == 0) {
      tstate_[succ].ready_at = c.time;
      ++c.queue_pushes;
      if (opts_.policy.scheduler == SimSchedulerKind::WorkStealing) {
        c.deque.push_back(succ);
      } else {
        central_.push_back(succ);
      }
      wake_all(c.time);
    }
  }
  tstate_[task].dep_succs.clear();
  if (!inlined_[task]) {
    on_task_finished(task, c.time);
  }
  // If an inlined spawn suspended the parent right below us, resume it now.
  if (!c.stack.empty() && c.stack.back().block == Frame::Block::InlineChild) {
    Frame parent = c.stack.back();
    c.stack.pop_back();
    parent.block = Frame::Block::None;
    parent.frag_start = c.time;
    c.current = parent;
  }
  schedule(c);
}

void Simulator::exec_one_op(Core& c) {
  Frame& f = *c.current;
  const TaskDef& def = prog_.tasks[f.task];
  if (f.pc >= def.ops.size()) {
    if (f.task == 0) {
      finish_root(c, f);
    } else {
      complete_current(c);
    }
    return;
  }
  const Op& op = def.ops[f.pc];
  const SimPolicy& pol = opts_.policy;
  switch (op.kind) {
    case Op::Kind::Compute: {
      c.time += ns(op.arg);
      f.frag_cnt.compute += op.arg;
      f.pc++;
      break;
    }
    case Op::Kind::Touch: {
      if (opts_.memory_model) {
        const TouchCost cost = mem_.on_touch(c.id, op.touch, active_cores());
        c.time += ns(cost.stall);
        f.frag_cnt.stall += cost.stall;
        f.frag_cnt.cache_misses += cost.line_misses;
        f.frag_cnt.bytes_accessed += cost.bytes;
      }
      f.pc++;
      break;
    }
    case Op::Kind::Spawn: {
      const u32 child = static_cast<u32>(op.arg);
      const TimeNs fork_t = c.time;
      // Dependences: record edges, count live predecessors.
      u32 live_preds = 0;
      for (u32 p : prog_.tasks[child].dep_preds) {
        DependRec d;
        d.pred = p;
        d.succ = child;
        writer_.depend(d);
        if (!tstate_[p].finished) {
          tstate_[p].dep_succs.push_back(child);
          ++live_preds;
        }
      }
      tstate_[child].dep_pending = live_preds;
      // Internal-cutoff decision (same rules as the threaded runtime). A
      // task with unsatisfied dependences can never run inline.
      bool inline_child = false;
      if (live_preds == 0) {
        if (pol.task_throttle_per_worker > 0 &&
            live_tasks_ >=
                pol.task_throttle_per_worker * static_cast<u64>(ncores_)) {
          inline_child = true;
        }
        if (!inline_child && pol.inline_queue_limit > 0) {
          const size_t qsize =
              pol.scheduler == SimSchedulerKind::WorkStealing
                  ? c.deque.size()
                  : central_.size();
          if (qsize >= pol.inline_queue_limit) inline_child = true;
        }
      }
      c.time += ns(inline_child ? pol.inline_exec_cycles
                                : pol.task_create_cycles);
      if (!inline_child) charge_queue_op(c);
      emit_fragment_end_at(c, f, fork_t, FragmentEnd::Fork, child);
      emit_task_rec(child, static_cast<u16>(c.id), fork_t, c.time - fork_t,
                    inline_child);
      inlined_[child] = inline_child;
      ++c.tasks_spawned;
      if (inline_child) ++c.tasks_inlined;
      TaskState& ts = tstate_[f.task];
      ts.children_since_join++;
      f.pc++;
      if (inline_child) {
        Frame parent = f;
        parent.block = Frame::Block::InlineChild;
        c.stack.push_back(parent);
        c.current.reset();
        start_task(c, child);
      } else {
        ts.live_children++;
        live_tasks_++;
        if (live_preds == 0) {
          tstate_[child].ready_at = c.time;
          ++c.queue_pushes;
          if (pol.scheduler == SimSchedulerKind::WorkStealing) {
            c.deque.push_back(child);
          } else {
            central_.push_back(child);
          }
          wake_all(c.time);
        }
        // else: released by the last finishing predecessor.
        f.frag_start = c.time;
      }
      break;
    }
    case Op::Kind::Wait: {
      TaskState& ts = tstate_[f.task];
      f.pc++;
      if (ts.children_since_join == 0 && ts.live_children == 0) {
        break;  // structural no-op
      }
      const TimeNs wait_t = c.time;
      c.time += ns(pol.taskwait_cycles);
      const u32 jseq = ts.next_join_seq++;
      emit_fragment_end_at(c, f, wait_t, FragmentEnd::Join, jseq);
      if (ts.live_children == 0) {
        JoinRec j;
        j.task = f.task;
        j.seq = jseq;
        j.start = wait_t;
        j.end = c.time;
        j.core = static_cast<u16>(c.id);
        writer_.join(j);
        ts.children_since_join = 0;
        f.frag_start = c.time;
        break;
      }
      ts.waiting = true;
      ts.ready = false;
      ts.pending_join_seq = jseq;
      ts.join_start = wait_t;
      Frame blocked = f;
      blocked.block = Frame::Block::Children;
      c.current.reset();
      c.stack.push_back(blocked);
      break;
    }
    case Op::Kind::Loop: {
      begin_loop(c, f, static_cast<u32>(op.arg));
      break;
    }
  }
  schedule(c);
}

void Simulator::begin_loop(Core& c, Frame& f, u32 loop_index) {
  const LoopDef& ld = prog_.loops[loop_index];
  const SimPolicy& pol = opts_.policy;
  const TimeNs loop_t = c.time;
  c.time += ns(pol.loop_setup_cycles);
  f.pc++;
  const LoopId uid = next_loop_uid_++;
  const u32 seq = root_loop_seq_++;
  emit_fragment_end_at(c, f, loop_t, FragmentEnd::Loop, uid);

  if (ld.iters.empty()) {
    LoopRec rec;
    rec.uid = uid;
    rec.enclosing_task = f.task;
    rec.src = remap_str(ld.src);
    rec.sched = ld.sched;
    rec.chunk_param = ld.chunk_param;
    rec.iter_begin = ld.lo;
    rec.iter_end = ld.hi;
    rec.num_threads = static_cast<u16>(
        ld.num_threads_req > 0 ? std::min(ld.num_threads_req, ncores_)
                               : ncores_);
    rec.starting_thread = static_cast<u16>(c.id);
    rec.seq = seq;
    rec.start = c.time;
    rec.end = c.time;
    writer_.loop(rec);
    f.frag_start = c.time;
    return;
  }

  LoopRun L;
  L.def_index = loop_index;
  L.uid = uid;
  L.seq = seq;
  L.starting_core = static_cast<u16>(c.id);
  L.total = ld.hi - ld.lo;
  L.team = ld.num_threads_req > 0 ? std::min(ld.num_threads_req, ncores_)
                                  : ncores_;
  L.cursor = ld.lo;
  L.start_time = c.time;
  L.max_end = c.time;
  if (ld.sched == ScheduleKind::Static) {
    const u64 team = static_cast<u64>(L.team);
    const u64 csize = ld.chunk_param > 0
                          ? ld.chunk_param
                          : std::max<u64>(1, (L.total + team - 1) / team);
    L.chunk_min = csize;
    L.static_chunks.assign(static_cast<size_t>(L.team), {});
    L.static_pos.assign(static_cast<size_t>(L.team), 0);
    u64 pos = ld.lo;
    u64 index = 0;
    while (pos < ld.hi) {
      const u64 end = std::min(pos + csize, ld.hi);
      L.static_chunks[static_cast<size_t>(index % team)].emplace_back(pos,
                                                                      end);
      pos = end;
      ++index;
    }
  } else {
    L.chunk_min = std::max<u64>(1, ld.chunk_param);
  }
  loop_ = std::move(L);

  Frame blocked = f;
  blocked.block = Frame::Block::Loop;
  c.current.reset();
  c.stack.push_back(blocked);
  wake_all(c.time);
}

void Simulator::finish_root(Core& c, Frame& f) {
  TaskState& ts = tstate_[0];
  if ((ts.children_since_join > 0 || live_tasks_ > 0) && !ts.waiting) {
    const u32 jseq = ts.next_join_seq++;
    emit_fragment_end(c, f, FragmentEnd::Join, jseq);
    if (live_tasks_ == 0) {
      JoinRec j;
      j.task = 0;
      j.seq = jseq;
      j.start = c.time;
      j.end = c.time;
      j.core = static_cast<u16>(c.id);
      writer_.join(j);
      ts.children_since_join = 0;
      f.frag_start = c.time;
      complete_current(c);
      return;
    }
    ts.waiting = true;
    ts.ready = false;
    ts.pending_join_seq = jseq;
    ts.join_start = c.time;
    Frame blocked = f;
    blocked.block = Frame::Block::Barrier;
    c.current.reset();
    c.stack.push_back(blocked);
    schedule(c);
    return;
  }
  complete_current(c);
}

std::optional<std::pair<u64, u64>> Simulator::claim_chunk(LoopRun& L,
                                                          int core) {
  const LoopDef& ld = prog_.loops[L.def_index];
  switch (ld.sched) {
    case ScheduleKind::Static: {
      auto& pos = L.static_pos[static_cast<size_t>(core)];
      const auto& mine = L.static_chunks[static_cast<size_t>(core)];
      if (pos >= mine.size()) return std::nullopt;
      return mine[pos++];
    }
    case ScheduleKind::Dynamic: {
      if (L.cursor >= ld.hi) return std::nullopt;
      const u64 lo = L.cursor;
      const u64 hi = std::min(lo + L.chunk_min, ld.hi);
      L.cursor = hi;
      return std::make_pair(lo, hi);
    }
    case ScheduleKind::Guided: {
      if (L.cursor >= ld.hi) return std::nullopt;
      const u64 remaining = ld.hi - L.cursor;
      const u64 size = std::max<u64>(
          L.chunk_min, remaining / (2 * static_cast<u64>(L.team)));
      const u64 take = std::min(size, remaining);
      const u64 lo = L.cursor;
      L.cursor += take;
      return std::make_pair(lo, L.cursor);
    }
  }
  return std::nullopt;
}

void Simulator::run_chunk(Core& c, LoopRun& L, u64 lo, u64 hi) {
  const LoopDef& ld = prog_.loops[L.def_index];
  const TimeNs t0 = c.time;
  Counters cnt;
  for (u64 i = lo; i < hi; ++i) {
    const IterDef& it = ld.iters[i - ld.lo];
    cnt.compute += it.compute;
    c.time += ns(it.compute);
    if (opts_.memory_model) {
      for (const TouchOp& touch : it.touches) {
        const TouchCost cost = mem_.on_touch(c.id, touch, active_cores());
        c.time += ns(cost.stall);
        cnt.stall += cost.stall;
        cnt.cache_misses += cost.line_misses;
        cnt.bytes_accessed += cost.bytes;
      }
    }
  }
  ChunkRec rec;
  rec.loop = L.uid;
  rec.thread = static_cast<u16>(c.id);
  rec.core = static_cast<u16>(c.id);
  rec.seq_on_thread = c.loop_chunk_seq++;
  rec.iter_begin = lo;
  rec.iter_end = hi;
  rec.start = t0;
  rec.end = c.time;
  rec.counters = cnt;
  writer_.chunk(rec);
  L.done_iters += hi - lo;
  L.max_end = std::max(L.max_end, c.time);
  if (L.done_iters == L.total) {
    L.done = true;
    // The frame blocked on this loop becomes resumable.
    wake_all(c.time);
  }
}

bool Simulator::participate_in_loop(Core& c) {
  if (!loop_.has_value()) return false;
  LoopRun& L = *loop_;
  if (c.id >= L.team || c.finished_loop == L.uid) return false;
  const bool worked = c.participating_loop == L.uid && c.loop_worked;
  if (L.done && !worked) return false;  // latecomer: stays silent
  if (c.participating_loop != L.uid) {
    c.participating_loop = L.uid;
    c.loop_bk_seq = 0;
    c.loop_chunk_seq = 0;
    c.loop_worked = false;
  }
  const TimeNs bk0 = c.time;
  c.time += ns(opts_.policy.bookkeep_cycles);
  auto range = claim_chunk(L, c.id);
  if (range.has_value() || c.loop_worked) {
    BookkeepRec b;
    b.loop = L.uid;
    b.thread = static_cast<u16>(c.id);
    b.core = static_cast<u16>(c.id);
    b.seq_on_thread = c.loop_bk_seq++;
    b.start = bk0;
    b.end = c.time;
    b.got_chunk = range.has_value();
    writer_.bookkeep(b);
    L.max_end = std::max(L.max_end, c.time);
  } else {
    c.time = bk0;  // silent latecomer: no work, no trace pollution
  }
  if (!range.has_value()) {
    c.finished_loop = L.uid;
    if (c.loop_worked) {
      // This worker's final book-keeping is recorded; once all workers have
      // drained the blocked frame becomes resumable (rts's active == 0).
      if (--L.active == 0 && L.done) {
        wake_all(c.time);
        // This very core may host the blocked frame and has already passed
        // the resume check this round — run find_work again.
        schedule(c);
        return true;
      }
    }
    return false;
  }
  if (!c.loop_worked) {
    c.loop_worked = true;
    ++L.active;
  }
  run_chunk(c, L, range->first, range->second);
  schedule(c);
  return true;
}

void Simulator::find_work(Core& c) {
  // 1. Resume the top suspended frame when its wait condition holds.
  if (!c.stack.empty()) {
    Frame& top = c.stack.back();
    const TaskState& ts = tstate_[top.task];
    const bool children_ready =
        (top.block == Frame::Block::Children ||
         top.block == Frame::Block::Barrier) &&
        ts.ready;
    const bool loop_ready = top.block == Frame::Block::Loop &&
                            loop_.has_value() && loop_->done &&
                            loop_->active == 0;
    if (children_ready) {
      Frame f = c.stack.back();
      c.stack.pop_back();
      TaskState& st = tstate_[f.task];
      JoinRec j;
      j.task = f.task;
      j.seq = st.pending_join_seq;
      j.start = st.join_start;
      j.end = c.time;
      j.core = static_cast<u16>(c.id);
      writer_.join(j);
      st.waiting = false;
      st.ready = false;
      st.children_since_join = 0;
      f.block = Frame::Block::None;
      f.frag_start = c.time;
      c.current = f;
      schedule(c);
      return;
    }
    if (loop_ready) {
      Frame f = c.stack.back();
      c.stack.pop_back();
      const LoopRun& L = *loop_;
      const LoopDef& ld = prog_.loops[L.def_index];
      LoopRec rec;
      rec.uid = L.uid;
      rec.enclosing_task = f.task;
      rec.src = remap_str(ld.src);
      rec.sched = ld.sched;
      rec.chunk_param = ld.chunk_param;
      rec.iter_begin = ld.lo;
      rec.iter_end = ld.hi;
      rec.num_threads = static_cast<u16>(L.team);
      rec.starting_thread = L.starting_core;
      rec.seq = L.seq;
      rec.start = L.start_time;
      rec.end = L.max_end;
      writer_.loop(rec);
      loop_.reset();
      c.time = std::max(c.time, rec.end);
      f.block = Frame::Block::None;
      f.frag_start = c.time;
      c.current = f;
      schedule(c);
      return;
    }
  }
  const SimPolicy& pol = opts_.policy;
  // 2. Own queue.
  if (pol.scheduler == SimSchedulerKind::WorkStealing) {
    if (!c.deque.empty()) {
      const u32 task = c.deque.back();
      c.deque.pop_back();
      ++c.queue_pops;
      c.time = std::max(c.time, tstate_[task].ready_at);
      c.time += ns(pol.task_dispatch_cycles);
      charge_queue_op(c);
      start_task(c, task);
      schedule(c);
      return;
    }
  } else if (!central_.empty()) {
    const u32 task = central_.front();
    central_.pop_front();
    ++c.queue_pops;
    c.time = std::max(c.time, tstate_[task].ready_at);
    c.time += ns(pol.task_dispatch_cycles);
    charge_queue_op(c);
    start_task(c, task);
    schedule(c);
    return;
  }
  // 3. Steal.
  if (pol.scheduler == SimSchedulerKind::WorkStealing && ncores_ > 1) {
    const int start = static_cast<int>(
        c.rng.bounded(static_cast<u64>(ncores_)));
    for (int i = 0; i < ncores_; ++i) {
      const int victim = (start + i) % ncores_;
      if (victim == c.id) continue;
      Core& v = cores_[static_cast<size_t>(victim)];
      if (!v.deque.empty()) {
        const u32 task = v.deque.front();  // thieves take the top (oldest)
        v.deque.pop_front();
        ++c.steals;
        c.time = std::max(c.time, tstate_[task].ready_at);
        c.time += ns(pol.steal_cycles);
        charge_queue_op(c);
        start_task(c, task);
        schedule(c);
        return;
      }
      ++c.steal_failures;
      c.time += ns(pol.steal_fail_cycles);
    }
  }
  // 4. Loop participation.
  if (participate_in_loop(c)) return;
  // 5. Nothing to do.
  sleep(c);
}

Trace Simulator::run() {
  tstate_.assign(prog_.tasks.size(), TaskState{});
  inlined_.assign(prog_.tasks.size(), 0);
  cores_.clear();
  cores_.resize(static_cast<size_t>(ncores_));
  for (int i = 0; i < ncores_; ++i) {
    Core& c = cores_[static_cast<size_t>(i)];
    c.id = i;
    c.rng = Xoshiro256(mix64(opts_.seed * 0x51ul + static_cast<u64>(i)));
    if (i != 0) {
      c.sleeping = true;
      ++sleeping_count_;
    }
  }

  // Root task record + initial frame on core 0.
  {
    TaskRec rec;
    rec.uid = kRootTask;
    rec.parent = kNoTask;
    rec.src = remap_str(prog_.tasks[0].src);
    writer_.task(rec);
  }
  start_task(cores_[0], 0);
  schedule(cores_[0]);

  while (!events_.empty() && !done_) {
    const auto [t, core] = events_.top();
    events_.pop();
    step(core, t);
  }
  GG_CHECK_MSG(done_, "simulation deadlocked (event queue drained early)");

  // Modeled per-core scheduler stats. cas_failures and deque_resizes stay
  // zero: the DES model is deterministic and its queues never "grow".
  for (const Core& c : cores_) {
    WorkerStatsRec s;
    s.worker = static_cast<u16>(c.id);
    s.tasks_spawned = c.tasks_spawned;
    s.tasks_executed = c.tasks_executed;
    s.tasks_inlined = c.tasks_inlined;
    s.steals = c.steals;
    s.steal_failures = c.steal_failures;
    s.deque_pushes = c.queue_pushes;
    s.deque_pops = c.queue_pops;
    s.taskwait_helps = c.taskwait_helps;
    s.idle_ns = c.idle_ns +
                (c.sleeping ? region_end_ - c.sleep_since : TimeNs{0});
    writer_.stats(s);
  }

  TraceMeta meta;
  meta.program = prog_.name;
  meta.runtime = "sim/" + opts_.policy.name;
  meta.topology = opts_.topology.name();
  meta.num_workers = ncores_;
  meta.num_cores = ncores_;
  meta.ghz = opts_.topology.ghz();
  meta.region_start = 0;
  meta.region_end = region_end_;
  meta.notes.push_back("seed=" + std::to_string(opts_.seed));
  meta.notes.push_back(std::string("memory_model=") +
                       (opts_.memory_model ? "on" : "off"));
  meta.profiled = true;
  meta.clock_source = "virtual";
  return recorder_.finish(meta);
}

}  // namespace

Trace simulate(const Program& prog, const SimOptions& opts) {
  Simulator sim(prog, opts);
  Trace trace = sim.run();
  // Modeled self-telemetry: publish the threaded engine's `engine.*` schema
  // from the simulated trace — deterministically, after the event loop, so
  // the simulation itself stays byte-identical whether or not a registry is
  // attached.
  obs::Registry* telemetry = opts.telemetry;
  if (telemetry == nullptr && obs::env_enabled())
    telemetry = &obs::process_registry();
  if (telemetry != nullptr) {
    u64 spawned = 0, executed = 0, inlined = 0, steals = 0, steal_fails = 0;
    for (const WorkerStatsRec& s : trace.worker_stats) {
      spawned += s.tasks_spawned;
      executed += s.tasks_executed;
      inlined += s.tasks_inlined;
      steals += s.steals;
      steal_fails += s.steal_failures;
    }
    telemetry->counter("engine.tasks_spawned")->add(spawned);
    telemetry->counter("engine.tasks_executed")->add(executed);
    telemetry->counter("engine.tasks_inlined")->add(inlined);
    telemetry->counter("engine.steals")->add(steals);
    telemetry->counter("engine.steal_failures")->add(steal_fails);
    obs::Histogram* task_lat = telemetry->histogram("engine.task_latency_ns");
    for (const FragmentRec& f : trace.fragments)
      task_lat->observe(f.end > f.start ? f.end - f.start : 0);
    obs::Histogram* chunk_lat =
        telemetry->histogram("engine.chunk_latency_ns");
    for (const ChunkRec& c : trace.chunks)
      chunk_lat->observe(c.end > c.start ? c.end - c.start : 0);
    telemetry->gauge("engine.progress")
        ->set(static_cast<double>(trace.grain_count()));
    telemetry->gauge("engine.live_tasks")->set(0.0);
  }
  if (opts.fault_plan) {
    const fault::InjectionReport rep = fault::inject(trace, *opts.fault_plan);
    trace.meta.notes.push_back(
        "fault_injection seed=" + std::to_string(opts.fault_plan->seed) +
        " " + rep.summary());
  }
  return trace;
}

}  // namespace gg::sim
