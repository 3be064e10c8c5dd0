// Cross-engine differential oracle for grain graphs.
//
// One generated program (check/genprog.hpp) is elaborated by three
// independent engines — the threaded runtime under the deterministic
// schedule controller, the discrete-event simulator, and the serial
// reference elaborator — and the results must agree exactly where the
// paper says they must (§3.1: the grain graph is independent of machine
// size and scheduling choices) and within envelopes where they may not:
//
//  Exact tier   serial(team=1) vs sim(zero-overhead, 1 core, no memory):
//               equal signatures, per-grain execution times and counters,
//               makespan, total work, critical path.
//  Structural   serial(team=N) vs sim(zero-overhead, N cores): equal
//  tier         signatures and total work.
//  Envelope     every rts schedule and every realistic sim policy: clean
//  tier         validate_trace/validate_graph, signature equal to the
//               serial reference at the same team size, exact total-work
//               agreement without a memory model (>= with one), critical
//               path <= makespan, conservative <= optimistic instantaneous
//               parallelism, finite non-negative scatter.
//  Replay tier  the first five rts schedules re-run with the same
//               {strategy, seed, bound} and must reproduce the controller's
//               decision trail, the structural signature, and the worker
//               counters.
//
// Every violation message embeds the program seed and the controller's
// describe() string, so any failure replays from the log line alone.
#pragma once

#include <string>
#include <vector>

#include "check/genprog.hpp"
#include "check/schedule.hpp"

namespace gg::check {

struct OracleOptions {
  /// rts schedules explored per program (strategies, seeds, preemption
  /// bounds, and the central-queue scheduler are cycled deterministically).
  int schedules = 6;
  /// Progress lines on stderr (one per program), for the deep suite.
  bool log = false;
};

struct OracleResult {
  std::vector<std::string> violations;
  int programs_checked = 0;
  int schedules_explored = 0;
  bool ok() const { return violations.empty(); }
  /// At most `limit` violations joined for a test failure message.
  std::string summary(size_t limit = 10) const;
};

/// Runs the full oracle on one generated program.
OracleResult check_program(const ProgramSpec& spec,
                           const OracleOptions& opts = {});

/// Generates `num_programs` programs (default GenOptions) from consecutive
/// seeds starting at `first_seed` and accumulates all violations.
OracleResult check_many(u64 first_seed, int num_programs,
                        const OracleOptions& opts = {});

}  // namespace gg::check
