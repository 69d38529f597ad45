#!/usr/bin/env python3
"""Builds letdma's benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The letbench program
(perfbench/CMakeLists.txt) is built in Release into .bench_build/perfbench;
every file a run writes lives under .bench_build, and the run's own
directory there is removed on exit. perfbench/NOTES.md describes the
workloads and metrics.

A serving workload (hit-replay, waters-session, miss-scaled) first runs the
untimed prefill in its own process, which leaves the workload's warm
entries and the shared background solves in a journal; the measured
process then restarts a Service from that journal. The last line of
standard output is the JSON result of the measured process. Anything that
goes wrong exits non-zero without printing a result.

--selftest runs all four workloads at a tiny size, traced and untraced,
with one deliberately malformed request in each serving workload, and
checks that the malformed request is counted as failed and nothing else is.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
DATA = os.path.join(BENCH, "data")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("hit-replay", "waters-session", "miss-scaled", "milp-dmat")
# Each of these changes what the program does or writes.
SCRUBBED_ENV = ("LETDMA_FAULTS", "LETDMA_FLIGHT_DUMP", "LETDMA_METRICS",
                "LETDMA_SAMPLE_HZ")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A measured run (prefill included) must end within this many seconds of
# the build finishing; the first build in a checkout gets its own limit.
RUN_LIMIT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # The compiler's temporary files stay inside the checkout too.
    env["TMPDIR"] = TMP
    return env


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no letdma sources at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "letbench"])
    # Serialize concurrent runs of one checkout on the build tree.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=log,
                                        env=child_env(),
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    rc = -1
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "letbench")


def run_child(cmd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before: " + " ".join(cmd))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=child_env(), text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise BenchError("exit %d: %s" % (p.returncode, " ".join(cmd)))
    return p.stdout


def run_workload(binary, workdir, workload, seed, seconds, trace, ops=None,
                 malformed_at=None):
    """Runs prefill (serving workloads) and the measured process; returns
    the measured process's stdout lines and its parsed result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--data", DATA,
           "--workdir", workdir]
    if workload != "milp-dmat":
        journal = os.path.join(workdir, "prefill.journal")
        out = run_child([binary, "prefill", "--workload", workload, "--data",
                         DATA, "--journal", journal], deadline)
        records = [l.split()[1] for l in out.splitlines()
                   if l.startswith("records ")]
        if len(records) != 1:
            raise BenchError("prefill reported no record count")
        cmd += ["--journal", journal, "--records", records[0]]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    if malformed_at is not None:
        cmd += ["--malformed-at", str(malformed_at)]
    lines = run_child(cmd, deadline).splitlines()
    spans = os.path.join(workdir, "spans.jsonl")
    if trace and os.path.isfile(spans):
        # Kept for inspection until the next traced run of the workload.
        os.replace(spans, os.path.join(BUILD, "spans-%s.jsonl" % workload))
    if not lines:
        raise BenchError("no output from " + workload)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise BenchError("malformed result line: " + lines[-1])
    return lines, result


def selftest(binary, workdir):
    tiny = {"hit-replay": 24, "waters-session": 8, "miss-scaled": 14,
            "milp-dmat": 3}
    ok = True
    for workload in WORKLOADS:
        serving = workload != "milp-dmat"
        for trace in (0, 1):
            _, r = run_workload(binary, os.path.join(workdir, workload),
                                workload, 7, 1, trace, ops=tiny[workload],
                                malformed_at=1 if serving else None)
            injected = 1 if serving else 0
            passed = (r["correct"] and r["failed"] == injected and
                      r["attempted"] == tiny[workload] + injected)
            ok = ok and passed
            print("selftest %-15s trace=%d attempted=%d failed=%d correct=%s"
                  " -> %s" % (workload, trace, r["attempted"], r["failed"],
                              r["correct"], "ok" if passed else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    # On SIGTERM, unwind: subprocess.run kills and reaps its child, and the
    # run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    try:
        binary = build()
        if args.selftest:
            return 0 if selftest(binary, workdir) else 1
        lines, _ = run_workload(binary, workdir, args.workload, args.seed,
                                args.seconds, args.trace)
        print("\n".join(lines))
        return 0
    except (BenchError, OSError, ValueError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
