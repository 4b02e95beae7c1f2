#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck [--seed N] [--seconds S]

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt: the library under src/ plus the
benchmark program under perfbench/src/) into .bench_build/perfbench; later
calls rebuild only what changed. The benchmark's stdout is passed through: every metric with its
unit, then one JSON result object as the last line. The exit code is the
benchmark's: 0 when every correctness check held, 1 when one failed, 2 on a
usage, build or set-up error.

--selfcheck runs the determinism self-check and the planted-defect self-test
(see perfbench/README.md) instead of a workload.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("healthy-n512", "churn-n512", "paper-grid")
# Wall-clock ceilings: a run must end within 180 s, a first build within 900.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PLANT = "swim:plant=drop-refute"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("build step failed: %s" % e)
                return False
            if done.returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return os.path.exists(BINARY)


def run(args, capture=False):
    """Runs the benchmark binary from the checkout root; waits for it."""
    cmd = [BINARY] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 2, ""
    return proc.returncode, (out.decode() if capture else "")


def counts_of(workload, seed, seconds, trace, extra=()):
    """One run's exit code, result object and exact work counts."""
    fd, path = tempfile.mkstemp(prefix="counts-", suffix=".json",
                                dir=os.path.join(ROOT, ".bench_build"))
    os.close(fd)
    try:
        code, out = run(["--workload", workload, "--seed", seed,
                         "--seconds", seconds, "--trace", trace,
                         "--counts-out", path] + list(extra), capture=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        with open(path) as f:
            text = f.read()
        return code, result, (json.loads(text) if text.strip() else {})
    finally:
        os.unlink(path)


def selfcheck(seed, seconds):
    """Determinism self-check and planted-defect self-test; exit code."""
    problems = []

    def expect(ok, what):
        log(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        runs = {
            "chunked": counts_of(w, seed, seconds, 0),
            "repeat": counts_of(w, seed, seconds, 0),
            "one-call": counts_of(w, seed, seconds, 0, ["--one-call"]),
            "traced": counts_of(w, seed, seconds, 1),
            "other-seed": counts_of(w, seed + 1, seconds, 0),
        }
        for name, (code, result, _) in runs.items():
            expect(code == 0 and result and result["correct"],
                   "%s %s run is correct" % (w, name))
        base = runs["chunked"][2]

        def same(other):
            shared = set(base) & set(other)
            return bool(shared) and all(base[k] == other[k] for k in shared)

        expect(same(runs["repeat"][2]), "%s: counts repeat at one seed" % w)
        expect(same(runs["one-call"][2]),
               "%s: counts equal between chunked and one-call run_for" % w)
        expect(same(runs["traced"][2]),
               "%s: counts equal between untraced and traced (1-s slices)" % w)
        expect(runs["other-seed"][2] != base,
               "%s: counts change with the seed" % w)

    for w in ("churn-n512", "paper-grid"):
        code, result, _ = counts_of(w, seed, seconds, 0,
                                    ["--membership", PLANT])
        expect(code != 0 and result is not None and result["failed"] > 0,
               "%s with %s reports failed operations and exits non-zero"
               % (w, PLANT))
    if problems:
        log("%d self-check failures" % len(problems))
        return 1
    log("self-check passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--membership", default=None,
                   help="membership spec override, e.g. " + PLANT)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    if not a.selfcheck and a.workload is None:
        p.error("--workload is required (or --selfcheck)")
    if not build():
        log("could not build the benchmark")
        return 2
    if a.selfcheck:
        return selfcheck(a.seed, a.seconds)
    args = ["--workload", a.workload, "--seed", a.seed,
            "--seconds", a.seconds, "--trace", a.trace]
    if a.membership:
        args += ["--membership", a.membership]
    return run(args)[0]


if __name__ == "__main__":
    sys.exit(main())
