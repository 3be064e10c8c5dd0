// Tests of the benchmark's own arithmetic and checks: order statistics,
// span self times on a synthetic tree with known answers, and the output
// gates (a corrupted answer byte must count as a failure).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gates.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace ggbench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_stats() {
  EXPECT(near(median({}), 0.0));
  EXPECT(near(median({7}), 7.0));
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT(near(percentile(hundred, 90), 91.0));
  EXPECT(near(percentile(hundred, 50), 51.0));
  EXPECT(near(percentile({10, 20}, 90), 19.0));
  EXPECT(near(percentile({5, 1, 9}, 0), 1.0));
  EXPECT(near(percentile({5, 1, 9}, 100), 9.0));
}

SpanRecord span(uint64_t id, uint64_t parent, uint64_t op, const char* name,
                int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_times() {
  // op 1 [0,100): child a [10,40), child b [30,60) on another thread
  // (overlapping a), child c [70,80). a has a grandchild [15,25).
  // op 6 [200,250): one child a [200,210).
  const std::vector<SpanRecord> spans = {
      span(1, 0, 1, "bench.op", 0, 100),
      span(2, 1, 1, "graph.build", 10, 40),
      span(3, 1, 1, "serve.push", 30, 60),
      span(4, 1, 1, "graph.build", 70, 80),
      span(5, 2, 1, "metrics.compute", 15, 25),
      span(6, 0, 6, "bench.op", 200, 250),
      span(7, 6, 6, "graph.build", 200, 210),
      span(8, 0, 0, "bench.probe", 300, 400),
  };
  const std::vector<int64_t> self = self_times_ns(spans);
  EXPECT(self[0] == 100 - 60);  // union of children [10,60) + [70,80)
  EXPECT(self[1] == 30 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 10);
  EXPECT(self[5] == 40);
  EXPECT(self[6] == 10);
  EXPECT(self[7] == 100);

  const std::vector<double> build =
      per_op_self_ns(spans, self, "bench.op", "graph.build");
  EXPECT(build.size() == 2);
  EXPECT(build.size() == 2 && near(build[0], 30) && near(build[1], 10));
  const std::vector<double> unattributed =
      per_op_self_ns(spans, self, "bench.op", "bench.op");
  EXPECT(unattributed.size() == 2 && near(unattributed[0], 40) &&
         near(unattributed[1], 40));
  const std::vector<double> none =
      per_op_self_ns(spans, self, "bench.op", "metrics.critical_path");
  EXPECT(none.size() == 2 && near(none[0], 0) && near(none[1], 0));
  EXPECT(durations_ns(spans, "graph.build").size() == 3);
}

void test_tracer() {
  Tracer off(false);
  {
    Span op(off, "bench.op", nullptr, true);
    Span child(off, "graph.build", &op);
    EXPECT(op.id() == 0 && child.id() == 0);
  }
  EXPECT(off.spans().empty());

  Tracer on(true);
  {
    Span op(on, "bench.op", nullptr, true);
    Span child(on, "graph.build", &op);
    EXPECT(child.op() == op.id());
  }
  const std::vector<SpanRecord> spans = on.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans.size() == 2 && spans[1].parent == spans[0].id &&
         spans[1].op == spans[0].id && spans[0].end_ns >= spans[1].end_ns);
}

void test_gates() {
  const std::string reference = "=== grain graph report: synth ===\nx\n";
  EXPECT(check_report_answer(reference, reference).empty());
  std::string corrupted = reference;
  corrupted[5] ^= 1;
  EXPECT(!check_report_answer(corrupted, reference).empty());
  EXPECT(!check_report_answer(reference.substr(1), reference).empty());
  EXPECT(!check_report_answer("ERR no such session: run-3\n", reference)
              .empty());
  EXPECT(!check_report_answer("SHED report refused under memory pressure\n",
                              reference)
              .empty());
  EXPECT(!check_report_answer(reference, "").empty());

  const std::string report = "makespan 1ms, grains 42 (41 tasks, 1 chunks)\n";
  const std::string json = "{\"grains\": 42}";
  EXPECT(check_analyze_output(report, json, report, json, 42).empty());
  std::string bad_report = report;
  bad_report.back() = '!';
  EXPECT(!check_analyze_output(bad_report, json, report, json, 42).empty());
  std::string bad_json = json;
  bad_json[3] = 'G';
  EXPECT(!check_analyze_output(report, bad_json, report, json, 42).empty());
  EXPECT(!check_analyze_output(report, json, report, json, 43).empty());

  const StatusLine ok = parse_status(
      "ggserved sessions=0 resident=1000/268435456 level=normal ticks=9 "
      "shed=0 paused=0 evicted=0 stalls=0 ingest_streams=200 ingest_open=0\n");
  EXPECT(ok.parsed && ok.level == "normal" && ok.resident_bytes == 1000 &&
         ok.ingest_streams == 200);
  EXPECT(check_status(ok, 200).empty());
  EXPECT(!check_status(ok, 199).empty());
  const StatusLine shedding = parse_status(
      "ggserved sessions=0 resident=9/10 level=shedding-queries ticks=1 "
      "shed=3 paused=0 evicted=0 stalls=0 ingest_streams=200 ingest_open=0\n");
  EXPECT(shedding.parsed && !check_status(shedding, 200).empty());
  EXPECT(!parse_status("ERR transport: refused").parsed);
  EXPECT(!check_status(parse_status("ERR"), 200).empty());

  Tally t;
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  EXPECT(t.attempted == 4 && t.failed == 1 && near(t.success_rate(), 0.75));
}

}  // namespace

int main() {
  test_stats();
  test_self_times();
  test_tracer();
  test_gates();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("bench_core_test: all checks passed\n");
  return 0;
}
