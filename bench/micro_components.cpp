// Google-benchmark micro suite for the performance-critical components:
// the Chase-Lev deque (the runtime's hot path), trace recording, grain
// graph construction, metric derivation, and reduction passes.
#include <benchmark/benchmark.h>

#include "apps/fib.hpp"
#include "graph/grain_graph.hpp"
#include "graph/grain_table.hpp"
#include "graph/reductions.hpp"
#include "metrics/metrics.hpp"
#include "rts/chase_lev_deque.hpp"
#include "trace/serialize.hpp"

#include <sstream>
#include "support/bench_support.hpp"

namespace {

using namespace gg;

void BM_DequePushPop(benchmark::State& state) {
  rts::ChaseLevDeque<int*> dq;
  int v = 0;
  for (auto _ : state) {
    dq.push(&v);
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_DequePushSteal(benchmark::State& state) {
  rts::ChaseLevDeque<int*> dq;
  int v = 0;
  for (auto _ : state) {
    dq.push(&v);
    benchmark::DoNotOptimize(dq.steal());
  }
}
BENCHMARK(BM_DequePushSteal);

// Shared fixture: a fib trace of the requested depth.
Trace make_trace(int n) {
  const sim::Program p = bench::capture_app("fib", [&](front::Engine& e) {
    apps::FibParams fp;
    fp.n = n;
    fp.cutoff = n;  // tasks everywhere
    return apps::fib_program(e, fp);
  });
  return bench::run48(p, sim::SimPolicy::mir(), 48, false);
}

void BM_Simulate(benchmark::State& state) {
  const sim::Program p = bench::capture_app("fib", [&](front::Engine& e) {
    apps::FibParams fp;
    fp.n = static_cast<int>(state.range(0));
    fp.cutoff = fp.n;
    return apps::fib_program(e, fp);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::run48(p, sim::SimPolicy::mir(), 48, false));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(p.task_count()));
}
BENCHMARK(BM_Simulate)->Arg(12)->Arg(16);

void BM_GraphBuild(benchmark::State& state) {
  const Trace t = make_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GrainGraph::build(t));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(t.tasks.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(12)->Arg(16);

void BM_Metrics(benchmark::State& state) {
  const Trace t = make_trace(14);
  const GrainGraph g = GrainGraph::build(t);
  const GrainTable grains = GrainTable::build(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compute_metrics(t, g, grains, Topology::opteron48()));
  }
}
BENCHMARK(BM_Metrics);

void BM_SerializeText(benchmark::State& state) {
  const Trace t = make_trace(14);
  for (auto _ : state) {
    std::ostringstream os;
    save_trace(t, os);
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(t.tasks.size()));
}
BENCHMARK(BM_SerializeText);

void BM_SerializeBinary(benchmark::State& state) {
  const Trace t = make_trace(14);
  for (auto _ : state) {
    std::ostringstream os;
    save_trace_binary(t, os);
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(t.tasks.size()));
}
BENCHMARK(BM_SerializeBinary);

void BM_LoadBinary(benchmark::State& state) {
  const Trace t = make_trace(14);
  std::ostringstream os;
  save_trace_binary(t, os);
  const std::string bytes = os.str();
  for (auto _ : state) {
    std::istringstream is(bytes);
    benchmark::DoNotOptimize(
        load_trace_binary_ex(is, {LoadMode::Strict, false}));
  }
}
BENCHMARK(BM_LoadBinary);

void BM_Reduce(benchmark::State& state) {
  const Trace t = make_trace(16);
  const GrainGraph g = GrainGraph::build(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_graph(g, ReductionOptions{}));
  }
}
BENCHMARK(BM_Reduce);

}  // namespace

BENCHMARK_MAIN();
