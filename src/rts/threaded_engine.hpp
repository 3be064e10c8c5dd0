// ThreadedEngine: a real multithreaded tasking runtime modeled on MIR
// (paper §4.2) — the substrate the grain-graph profiler attaches to.
//
// Features reproduced from the paper's runtime substrate:
//  * work-stealing scheduler with Chase–Lev lock-free deques (children are
//    pushed to the front of the owner's queue; thieves steal from the back)
//  * alternative central-queue scheduler (Fig. 11d foil)
//  * parallel for-loops with static / dynamic / guided schedules, profiled
//    at per-chunk granularity with explicit book-keeping events
//  * runtime internal cutoffs: an ICC-like queue-size inline cutoff and a
//    GCC-like live-task throttle (64 x threads by default in libgomp)
//  * OMPT-superset profiling events recorded into a Trace with < a few
//    percent overhead (per-worker buffers, two clock reads per grain)
//
// Restrictions (shared with the paper's profiler, which does not support
// nested parallelism): parallel_for may only be used from the root task, and
// tasks may not be spawned from inside loop chunks.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "front/front.hpp"
#include "obs/metrics.hpp"
#include "rts/central_queue.hpp"
#include "rts/chase_lev_deque.hpp"
#include "rts/supervisor.hpp"
#include "trace/recorder.hpp"
#include "trace/spool.hpp"

namespace gg::rts {

enum class SchedulerKind : u8 { WorkStealing, CentralQueue };

struct Options {
  int num_workers = 2;
  SchedulerKind scheduler = SchedulerKind::WorkStealing;
  bool profile = true;
  /// Timestamp with steady_clock instead of calibrated rdtsc. The TSC is
  /// what keeps profiling overhead in the paper's couple-percent range,
  /// but per-core TSC offsets (common under virtualization) can make
  /// causally-ordered events on different workers overlap by a few
  /// thousand ns. Check harnesses that assert wall-clock invariants
  /// (critical path <= makespan in the oracle's envelope tier) set this
  /// to get a globally-truthful clock; production profiling leaves it
  /// off.
  bool strict_clock = false;
  /// GCC-like throttle: spawn executes the child inline (undeferred) when
  /// live tasks >= task_throttle_per_worker * num_workers. 0 disables.
  u64 task_throttle_per_worker = 0;
  /// ICC-like internal cutoff: spawn executes the child inline when the
  /// spawning worker's queue already holds >= inline_queue_limit tasks.
  /// 0 disables.
  u64 inline_queue_limit = 0;
  /// Fault-injection harness hook: when set, the plan's record-level faults
  /// are applied deterministically to the trace this engine produces (the
  /// damage is noted in the trace's provenance notes). Testing only.
  std::optional<fault::FaultPlan> fault_plan;
  /// Crash-safe spooling: when spool.path is set (and profiling is on),
  /// workers stream sealed epoch frames to that file as they record, and
  /// the final trace is reconstructed from the spool — one code path for
  /// clean and crashed runs. Empty path (the default) keeps the original
  /// in-memory recorder behavior bit-for-bit.
  spool::SpoolOptions spool;
  /// Runtime supervision: a watchdog thread that detects no-progress stalls
  /// (hangs, deadlocked spins) and emits a structured diagnostic before
  /// aborting-with-flush. Off by default; see rts/supervisor.hpp.
  SupervisorOptions supervisor;
  /// Self-telemetry: when set (or when GG_TELEMETRY=1 falls back to
  /// obs::process_registry()), the engine publishes scheduler counters,
  /// task-latency/queue-depth histograms and per-worker health gauges into
  /// this registry, and — when spooling — streams periodic 'T' frames so
  /// the run can be monitored live with `ggstat --follow`. Null with no
  /// env override keeps every hot path bit-identical to the seed (one
  /// untaken branch per site). Explicit per-engine registries keep future
  /// multi-instance services (ggserved) isolated.
  obs::Registry* telemetry = nullptr;
};

class ThreadedEngine final : public front::Engine {
 public:
  explicit ThreadedEngine(Options opts);
  ~ThreadedEngine() override;

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  front::RegionId alloc_region(const std::string& name, u64 bytes,
                               front::PagePlacement placement,
                               int touch_node = -1) override;

  Trace run(const std::string& program_name, const front::TaskFn& root) override;

  const Options& options() const { return opts_; }
  bool profiling() const { return opts_.profile; }

 private:
  struct Task;
  struct Worker;
  struct LoopState;
  struct DepMap;
  struct EngineTelemetry;
  class CtxImpl;
  friend class CtxImpl;

  TimeNs now() const;

  Task* make_task(front::TaskFn body, Task* parent, StrId src,
                  TimeNs create_time, u16 create_core, bool inlined);
  void release_task(Task* task);

  void worker_main(int id);
  Task* get_task(Worker& w);
  void exec_task(Task* task, Worker& w);
  void push_task(Task* task, Worker& w);
  void help_until(Worker& w, const std::atomic<u32>& counter);

  void run_parallel_for(Worker& w, Task* root_task, const front::SrcLoc& loc,
                        u64 lo, u64 hi, const front::ForOpts& opts,
                        const front::LoopFn& body, TimeNs frag_start,
                        CtxImpl& ctx);
  void participate_in_loop(const std::shared_ptr<LoopState>& loop, Worker& w);

  // Supervision (active only when opts_.supervisor.enabled).
  void watchdog_main();
  SupervisorReport build_supervisor_report(TimeNs stalled_ns,
                                           const std::vector<u64>& window_beats);
  void register_blocked(TaskId uid, std::vector<TaskId> preds);
  void unregister_blocked(TaskId uid);

  Options opts_;
  std::vector<std::unique_ptr<Worker>> workers_;
  CentralQueue<Task*> central_queue_;

  std::unique_ptr<TraceRecorder> recorder_;
  std::atomic<TaskId> next_task_id_{1};
  std::atomic<LoopId> next_loop_id_{1};
  std::atomic<u64> live_tasks_{0};  // deferred, not-yet-finished tasks
  // The active loop slot. A plain mutex-protected shared_ptr rather than
  // std::atomic<shared_ptr>: libstdc++'s _Sp_atomic uses a pointer-tag
  // spinlock that ThreadSanitizer cannot model, and idle-path polling is
  // not hot enough to justify suppressions.
  mutable std::mutex loop_mutex_;
  std::shared_ptr<LoopState> current_loop_;

  std::shared_ptr<LoopState> load_loop() const {
    std::lock_guard lock(loop_mutex_);
    return current_loop_;
  }
  void store_loop(std::shared_ptr<LoopState> loop) {
    std::lock_guard lock(loop_mutex_);
    current_loop_ = std::move(loop);
  }
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> root_done_{false};

  // Crash-safe spooling + supervision state (null/idle when disabled).
  std::unique_ptr<spool::SpoolSink> spool_sink_;
  bool supervising_ = false;  // snapshot of opts_.supervisor.enabled per run
  std::atomic<u64> progress_{0};  // grains completed (tasks + chunks)
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  // Dependence-blocked tasks (uid -> live predecessor uids), maintained only
  // while supervising so stall dumps can show wait-for chains/cycles.
  mutable std::mutex blocked_mutex_;
  std::map<TaskId, std::vector<TaskId>> blocked_tasks_;
  std::mutex supervisor_note_mutex_;
  std::vector<std::string> supervisor_notes_;

  // Self-telemetry (null when disabled). telem_ caches metric handles for
  // the hot paths; telemetry_ready_ gates the spool's sampling callback,
  // which can fire from the flusher thread before workers exist.
  std::unique_ptr<EngineTelemetry> telem_;
  std::atomic<bool> telemetry_ready_{false};
  std::string telemetry_payload();  // live snapshot for 'T' frames
  // Per-worker heartbeat/state upkeep feeds both the watchdog and the
  // telemetry sampler; all stores are relaxed atomics, so enabling either
  // consumer costs the same and disabling both is branch-only.
  bool track_worker_health() const {
    return supervising_ || telem_ != nullptr;
  }

  std::chrono::steady_clock::time_point region_start_{};
  u64 tsc_base_ = 0;  // TSC value at region start (x86 fast timestamps)
  Task* root_task_for_loops_ = nullptr;  // parent context for chunk bodies
  front::RegionId next_region_ = 1;
  std::vector<std::string> region_notes_;
};

}  // namespace gg::rts
