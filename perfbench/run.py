#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark (and the library from ../src) into .bench_build/ at the
checkout root on first use, then runs one workload in its own process:

    python3 perfbench/run.py --workload pr_recurring --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Other modes:

    python3 perfbench/run.py --smoke      # every workload at smoke size
    python3 perfbench/run.py --selftest   # smoke runs plus the negative test

The exit status is 0 only when every check passed.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("pr_recurring", "pir_popular", "sharded_mixed_ingest")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds into BUILD_DIR; output goes to build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "embellish.h")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = [
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs],
            ]
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed (log: %s)" % log_path)


def source_id():
    """The git commit when ROOT is a clone, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none-srcsha256:" + digest.hexdigest()[:16]


def run_workload(args, extra, capture=False):
    """Runs one workload process; returns (exit code, stdout text or None)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()] + extra
    if args.trace == 1:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s timed out" % args.workload)
    return proc.returncode, out


def selftest(smoke_only):
    """Smoke-sized run of every workload; with the negative test, also a run
    whose one tampered answer the checks must catch."""
    ok = True
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=0)
        code, out = run_workload(args, ["--smoke"], capture=True)
        lines = out.splitlines()
        passed = code == 0 and bool(lines) and lines[-1].startswith(
            '{"correct": true')
        print("smoke %-22s %s" % (workload, "PASS" if passed else "FAIL"))
        ok = ok and passed
        if smoke_only:
            continue
        code, out = run_workload(args, ["--smoke", "--corrupt"], capture=True)
        caught = code != 0 and "CHECK FAILED" in out
        print("tamper %-21s %s" % (workload,
                                   "PASS (caught)" if caught else "FAIL"))
        ok = ok and caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size")
    parser.add_argument("--selftest", action="store_true",
                        help="smoke runs plus the negative self-test")
    args = parser.parse_args()
    if not (args.smoke or args.selftest) and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.smoke or args.selftest:
        return selftest(smoke_only=not args.selftest)
    code, _ = run_workload(args, [])
    return code


if __name__ == "__main__":
    sys.exit(main())
