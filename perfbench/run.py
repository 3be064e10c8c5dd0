#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload analyze|profile --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The program and the benchmark are built
from that checkout's sources into .bench_build/ on first use. Scratch files
go to .bench_work/ and are removed at exit; a traced run leaves its spans in
.bench_out/<workload>-seed<N>.trace.json (Chrome trace-event JSON).

Exit status: 0 with a result line, 2 on a usage error or a pinned
environment variable that is set, 1 on any other failure (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("analyze", "profile")
PINNED_ENV = ("GG_THREADS", "GG_TELEMETRY")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Commit hash when the checkout is a git repository, else a digest of
    the program sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets=("ggbench", "ggserved")):
    """Configures once, then builds `targets`. Compiler output goes to
    stderr so stdout carries only the benchmark's lines."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    *targets],
                   cwd=ROOT, check=True, stdout=sys.stderr)


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_benchmark(args, work_dir):
    cmd = [os.path.join(BUILD_DIR, "ggbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--ggserved", os.path.join(BUILD_DIR, "ggserved"),
           "--commit", source_id()]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_out", f"{args.workload}-seed{args.seed}.trace.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        log(f"benchmark exited with status {proc.returncode}")
        return None
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    for var in PINNED_ENV:
        if var in os.environ:
            log(f"{var} is set; unset it so the benchmark's pinned thread "
                "counts and telemetry hold")
            return 2
    for need in ("src/trace/spool.hpp", "tools/ggserved.cpp",
                 "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"{need} not found: run from a full checkout")
            return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        lines = run_benchmark(args, work_dir)
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    if not lines:
        return 1

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no result line")
        return 1
    want = expected_metrics(bool(args.trace))
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        log(f"result does not match BENCHMARK.json: {lines[-1]}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
