#include "check/deque_check.hpp"

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "rts/central_queue.hpp"
#include "rts/chase_lev_deque.hpp"
#include "rts/preempt.hpp"

namespace gg::check {

namespace {

/// Audits delivered values against the known pushed set [1, total].
void account(u64 total, const std::vector<std::vector<u64>>& got,
             DequeCheckResult& result) {
  std::map<u64, u64> counts;
  for (const auto& v : got) {
    for (u64 x : v) ++counts[x];
  }
  for (const auto& [value, count] : counts) {
    if (value == 0 || value > total) {
      result.violations.push_back(
          "bogus value " + std::to_string(value) +
          " delivered (never pushed) [" + result.schedule_desc + "]");
    } else if (count > 1) {
      result.violations.push_back(
          "value " + std::to_string(value) + " delivered " +
          std::to_string(count) + " times [" + result.schedule_desc + "]");
    }
  }
  for (u64 v = 1; v <= total; ++v) {
    if (counts.find(v) == counts.end()) {
      result.violations.push_back("value " + std::to_string(v) +
                                  " lost (pushed, never delivered) [" +
                                  result.schedule_desc + "]");
    }
  }
}

}  // namespace

DequeCheckResult check_deque(const DequeCheckOptions& opts) {
  const int n = 1 + opts.num_thieves;
  ScheduleOptions sched = opts.schedule;
  sched.num_threads = n;
  ScheduleController ctrl(sched);
  DequeCheckResult result;
  result.schedule_desc = ctrl.describe();

  rts::ChaseLevDeque<u64> deque(opts.initial_capacity);
  std::atomic<bool> done_pushing{false};
  std::vector<std::vector<u64>> got(static_cast<size_t>(n));
  const u64 total =
      static_cast<u64>(opts.rounds) * static_cast<u64>(opts.items_per_round);

  ctrl.install();
  // The calling thread is the owner and registers FIRST, so it takes the
  // token deterministically before any thief exists (same pattern as the
  // threaded engine's worker 0).
  rts::preempt_thread_start(0);

  std::vector<std::thread> thieves;
  for (int id = 1; id < n; ++id) {
    thieves.emplace_back([&, id] {
      rts::preempt_thread_start(id);
      auto& mine = got[static_cast<size_t>(id)];
      int idle_attempts = 0;
      while (idle_attempts < opts.max_steal_attempts) {
        if (auto v = deque.steal()) {
          mine.push_back(*v);
          idle_attempts = 0;
          continue;
        }
        if (done_pushing.load(std::memory_order_acquire) &&
            deque.empty_estimate()) {
          break;
        }
        ++idle_attempts;
        // Voluntary yield: an empty-handed thief must never be able to
        // monopolize an exhausted preemption budget.
        rts::preempt_point(rts::PreemptPoint::Idle);
      }
      rts::preempt_thread_stop();
    });
  }

  // Owner: rounds of push + pop with live thieves in between — this is
  // where the size-1 steal-vs-pop CAS race and growth-during-steal windows
  // open up.
  u64 next = 1;
  auto& mine = got[0];
  for (int r = 0; r < opts.rounds; ++r) {
    for (int k = 0; k < opts.items_per_round; ++k) deque.push(next++);
    for (int k = 0; k < opts.owner_pops; ++k) {
      if (auto v = deque.pop()) mine.push_back(*v);
    }
  }
  done_pushing.store(true, std::memory_order_release);
  // Drain what the thieves leave behind.
  int idle_attempts = 0;
  while (idle_attempts < opts.max_steal_attempts) {
    if (auto v = deque.pop()) {
      mine.push_back(*v);
      idle_attempts = 0;
      continue;
    }
    if (deque.empty_estimate()) break;
    ++idle_attempts;
    rts::preempt_point(rts::PreemptPoint::Idle);
  }
  rts::preempt_thread_stop();
  for (auto& t : thieves) t.join();
  ctrl.uninstall();

  result.decisions = ctrl.decision_count();
  account(total, got, result);
  return result;
}

DequeCheckResult check_central_queue(const DequeCheckOptions& opts) {
  const int n = 1 + opts.num_thieves;
  ScheduleOptions sched = opts.schedule;
  sched.num_threads = n;
  ScheduleController ctrl(sched);
  DequeCheckResult result;
  result.schedule_desc = ctrl.describe();

  rts::CentralQueue<u64> queue;
  std::vector<std::vector<u64>> got(static_cast<size_t>(n));
  const u64 per_thread =
      static_cast<u64>(opts.rounds) * static_cast<u64>(opts.items_per_round);
  const u64 total = per_thread * static_cast<u64>(n);
  std::atomic<u64> delivered{0};

  // Every thread pushes its own value range, then everyone drains until
  // the global delivered count reaches the total (or gives up — mutants
  // that duplicate or lose values break the count).
  auto body = [&](int id) {
    auto& mine = got[static_cast<size_t>(id)];
    u64 next = static_cast<u64>(id) * per_thread + 1;
    for (u64 k = 0; k < per_thread; ++k) queue.push(next++);
    int idle_attempts = 0;
    while (idle_attempts < opts.max_steal_attempts &&
           delivered.load(std::memory_order_acquire) < total) {
      if (auto v = queue.pop()) {
        mine.push_back(*v);
        delivered.fetch_add(1, std::memory_order_acq_rel);
        idle_attempts = 0;
        continue;
      }
      ++idle_attempts;
      rts::preempt_point(rts::PreemptPoint::Idle);
    }
    rts::preempt_thread_stop();
  };

  ctrl.install();
  rts::preempt_thread_start(0);
  std::vector<std::thread> others;
  for (int id = 1; id < n; ++id) {
    others.emplace_back([&, id] {
      rts::preempt_thread_start(id);
      body(id);
    });
  }
  body(0);
  for (auto& t : others) t.join();
  ctrl.uninstall();

  result.decisions = ctrl.decision_count();
  account(total, got, result);
  return result;
}

}  // namespace gg::check
