// Seeded synthetic trace generation for benchmarks and differential tests.
//
// Produces structurally valid traces (validate_trace_structured-clean) of a
// requested grain count: a root task forking batches of children (some of
// which fork sub-batches), interleaved with worksharing loops whose chunks
// exactly partition the iteration range and carry per-thread bookkeeping.
// Fully deterministic for a given options struct — the bench harness and the
// codec round-trip tests rely on byte-identical re-generation.
#pragma once

#include "trace/trace.hpp"

namespace gg {

struct SynthOptions {
  u64 seed = 1;
  u64 grains = 1000;        ///< target grain count (non-root tasks + chunks);
                            ///< generation stops at the first section boundary
                            ///< at or past this
  int workers = 8;          ///< team size (threads, cores, loop teams)
  u32 fanout = 8;           ///< max children per fork batch under the root
  double loop_fraction = 0.25;  ///< probability a section is a loop
  double nest_prob = 0.25;      ///< probability a child forks a sub-batch
  u32 sources = 32;         ///< distinct synthetic source locations
};

/// Generates one finalized trace. Identical options yield identical traces.
Trace synth_trace(const SynthOptions& opts = {});

}  // namespace gg
