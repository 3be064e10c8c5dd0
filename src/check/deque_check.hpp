// Value-accounting harnesses for the task queues, run under the schedule
// controller.
//
// An owner thread pushes distinct values into a ChaseLevDeque (or every
// thread pushes into the CentralQueue) while thief threads steal; the
// harness then audits the union of everything the threads got back. A
// correct queue delivers every pushed value exactly once:
//  * a value delivered twice  -> "duplicate" violation (lost CAS race /
//    missing removal);
//  * a value never delivered  -> "lost" violation (dropped during growth);
//  * a value never pushed     -> "bogus" violation (published-before-write
//    races return uninitialized or stale slots).
// Under the schedule controller the whole run is deterministic, so any
// violation replays from the controller's {strategy, seed, bound}.
#pragma once

#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "common/types.hpp"

namespace gg::check {

struct DequeCheckOptions {
  ScheduleOptions schedule;  ///< num_threads is derived; other knobs used
  int num_thieves = 1;
  /// Values pushed per round, and rounds. Keeping rounds small but many
  /// keeps the size-1 steal-vs-pop window hot.
  int items_per_round = 1;
  int rounds = 8;
  /// Owner pops (vs. leaving values to thieves) per round.
  int owner_pops = 1;
  /// Initial deque capacity; 2 forces buffer growth during concurrent
  /// steals when items_per_round exceeds it.
  size_t initial_capacity = 64;
  /// Bound on empty-handed steal attempts per thief, so lossy mutants
  /// (dropped values) terminate instead of spinning forever.
  int max_steal_attempts = 4000;
};

struct DequeCheckResult {
  std::vector<std::string> violations;  ///< empty == clean run
  std::string schedule_desc;            ///< replay handle of this run
  u64 decisions = 0;
  bool ok() const { return violations.empty(); }
};

/// Chase-Lev deque: one owner (thread 0) doing push/pop, num_thieves
/// stealing concurrently, fully serialized by a ScheduleController built
/// from `opts.schedule`.
DequeCheckResult check_deque(const DequeCheckOptions& opts);

/// Central queue: same accounting; every thread both pushes and pops.
DequeCheckResult check_central_queue(const DequeCheckOptions& opts);

}  // namespace gg::check
