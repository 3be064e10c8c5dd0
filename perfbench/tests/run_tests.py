#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/run_tests.py

1. bench_core_test: order statistics, span self times on a synthetic tree
   with known answers, and the output gates (a corrupted REPORT or report
   byte counts as a failure).
2. The benchmark's sources use no interface the ROADMAP plans to remove or
   replace, so later changes never need to edit the benchmark.
3. run.py refuses to run with GG_THREADS or GG_TELEMETRY set, and fails
   without a result line in a directory that holds only the benchmark.
"""

import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True
import run  # noqa: E402

# name -> the ROADMAP item that removes or replaces it
FORBIDDEN = {
    "AnalysisTimings": "item 1 (one span tree)",
    "MetricPassTimings": "item 1 (one span tree)",
    "PipelineTimings": "item 1 (one span tree)",
    "pass_timings": "item 1 (one span tree)",
    "timings": "item 1: the analyze(..., timings) argument",
    "PhaseSpan": "item 1: obs spans",
    "Registry": "item 1: obs registry",
    "current_registry": "item 1: obs registry",
    "obs": "item 1: obs spans and registry",
    "ParseEngine": "item 3 (one codec per encoding)",
    "IoSource": "item 3 (one codec per encoding)",
    "legacy-parse": "item 3 (one codec per encoding)",
    "ggbin": "item 3: .ggbin writing",
    "save_trace_file": "item 3: .ggbin writing",
    "save_trace_binary": "item 3: .ggbin writing",
    "QueueBackend": "item 4: non-default queue backends",
    "queue_backend": "item 4: non-default queue backends",
    "Session": "item 5 (one serving session)",
    "IngestStream": "item 5 (one serving session)",
    "IngestConnection": "item 5 (one serving session)",
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def code_files():
    for dirpath, _, filenames in os.walk(BENCH):
        for name in filenames:
            path = os.path.join(dirpath, name)
            if path == os.path.abspath(__file__):
                continue
            if name.endswith((".cpp", ".hpp", ".py")) or \
                    name == "CMakeLists.txt":
                yield path


def test_core():
    run.build(("ggbench_test",))
    exe = os.path.join(ROOT, run.BUILD_DIR, "ggbench_test")
    out = subprocess.run([exe], capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    check(out.returncode == 0, "bench_core_test")


def test_forbidden_identifiers():
    pattern = re.compile(r"(?<![A-Za-z0-9_])(" +
                         "|".join(re.escape(n) for n in FORBIDDEN) +
                         r")(?![A-Za-z0-9_])")
    hits = []
    for path in code_files():
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for m in pattern.finditer(line):
                    hits.append(f"{os.path.relpath(path, ROOT)}:{lineno}: "
                                f"{m.group(1)} ({FORBIDDEN[m.group(1)]})")
    for h in hits:
        print("  " + h)
    check(not hits, "sources use only interfaces the ROADMAP keeps")


def test_pinned_env():
    for var in run.PINNED_ENV:
        env = dict(os.environ, **{var: "2"})
        out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                              "--workload", "profile", "--seconds", "1"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True)
        check(out.returncode == 2 and not out.stdout.strip(),
              f"refuses to run with {var} set")


def test_bare_directory():
    bare = os.path.join(ROOT, ".bench_work", "bare-test")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run([sys.executable, "perfbench/run.py",
                              "--workload", "analyze", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True,
                             timeout=180)
        check(out.returncode != 0 and '"metrics"' not in out.stdout,
              "fails without a result outside a full checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    test_core()
    test_forbidden_identifiers()
    test_pinned_env()
    test_bare_directory()
    if failures:
        print(f"{len(failures)} test(s) failed")
        return 1
    print("all benchmark tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
