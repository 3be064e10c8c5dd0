// Explicit preemption points for deterministic concurrency testing.
//
// The threaded runtime's lock-free fast paths (Chase-Lev deque, central
// queue) are exactly where schedule-sensitive bugs hide, yet the host OS
// only ever shows us a few interleavings. The runtime therefore announces
// every scheduling-relevant step through a PreemptObserver hook. In normal
// operation no observer is installed and each hook is a single relaxed
// atomic load plus an untaken branch; under the schedule controller
// (src/check/schedule.hpp) the observer serializes all worker threads and
// decides, seeded and replayably, which thread runs through each point.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace gg::rts {

/// Where in the runtime a preemption point sits. The names matter for
/// diagnostics only; the schedule controller treats all non-Idle points
/// uniformly (switching away at one consumes preemption budget) and Idle
/// points as voluntary yields (always free to switch).
enum class PreemptPoint : u8 {
  DequePush,         ///< owner push, before touching top/bottom
  DequePushPublish,  ///< between the slot write and the bottom publish
  DequePopReserve,   ///< owner pop, before the bottom reservation
  DequePopCas,       ///< owner pop, before the last-element top CAS
  DequeStealLoad,    ///< thief, before loading top/bottom
  DequeStealCas,     ///< thief, after reading the slot, before the top CAS
  QueuePush,         ///< central queue enqueue, before taking the lock
  QueuePop,          ///< central queue dequeue, before taking the lock
  TaskExec,          ///< a task body is about to run
  LoopClaim,         ///< a worker is about to claim a loop chunk
  Idle,              ///< a scheduling loop found nothing to do
};

const char* to_string(PreemptPoint p);

/// Callback interface the schedule controller implements. Threads identify
/// themselves once via on_thread_start (worker id) and report termination
/// via on_thread_stop; in between every preempt() call may block the
/// calling thread until the controller schedules it again. Calls from
/// threads that never registered must be (and are) ignored.
class PreemptObserver {
 public:
  virtual ~PreemptObserver() = default;
  virtual void on_thread_start(int worker_id) = 0;
  virtual void on_thread_stop() = 0;
  virtual void preempt(PreemptPoint point) = 0;
};

namespace detail {
inline std::atomic<PreemptObserver*> g_preempt_observer{nullptr};
}  // namespace detail

/// Installs (or, with nullptr, removes) the process-wide observer. Testing
/// only; production runs never install one.
inline void set_preempt_observer(PreemptObserver* obs) {
  detail::g_preempt_observer.store(obs, std::memory_order_release);
}

inline PreemptObserver* preempt_observer() {
  return detail::g_preempt_observer.load(std::memory_order_acquire);
}

/// The hook the runtime calls at every scheduling-relevant step. With no
/// observer installed this is one atomic load and a predictable branch.
inline void preempt_point(PreemptPoint p) {
  if (PreemptObserver* o = preempt_observer()) o->preempt(p);
}

inline void preempt_thread_start(int worker_id) {
  if (PreemptObserver* o = preempt_observer()) o->on_thread_start(worker_id);
}

inline void preempt_thread_stop() {
  if (PreemptObserver* o = preempt_observer()) o->on_thread_stop();
}

inline const char* to_string(PreemptPoint p) {
  switch (p) {
    case PreemptPoint::DequePush: return "deque-push";
    case PreemptPoint::DequePushPublish: return "deque-push-publish";
    case PreemptPoint::DequePopReserve: return "deque-pop-reserve";
    case PreemptPoint::DequePopCas: return "deque-pop-cas";
    case PreemptPoint::DequeStealLoad: return "deque-steal-load";
    case PreemptPoint::DequeStealCas: return "deque-steal-cas";
    case PreemptPoint::QueuePush: return "queue-push";
    case PreemptPoint::QueuePop: return "queue-pop";
    case PreemptPoint::TaskExec: return "task-exec";
    case PreemptPoint::LoopClaim: return "loop-claim";
    case PreemptPoint::Idle: return "idle";
  }
  return "?";
}

}  // namespace gg::rts
