"""Benchmark of ``dp3 verify``: time, CPU, memory and set-up cost of the real
verification suites, with an outside-in per-layer trace.

    python3 perfbench/run.py --workload theorem-12 --seed 1 --seconds 20 --trace 0

Each workload is one ``dp3 verify`` command.  The benchmark runs it again and
again for ``--seconds``, one pass at a time, each pass in a fresh interpreter
(``worker.py``) so that no pass is served from a cache an earlier pass filled.
Every pass is gated: exit code 0, no ``FAIL`` line, and exactly the expected
number of passing checks per suite; a missing check counts as a failed one.

With ``--trace 0`` it reports the end-to-end metrics: medians over passes of
wall and CPU time after set-up and of peak RSS, plus the median set-up time
of several fresh processes; the three times are scaled to a reference machine
speed (see REFERENCE_S).  With ``--trace 1`` it alternates traced and
untraced passes and reports the per-layer metrics of ``tracer.py`` (medians
over traced passes), the tracing overhead and the failed-check fraction; a
call count that differs between traced passes marks the run incorrect.

The workloads are fixed exact computations with no random inputs, so
``--seed`` is recorded in the header and has no effect.  The last line of
stdout is the result object; the line before it holds per-pass detail, and
the first line is a header naming the build that produced the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from worker import NO_PROGRAM  # noqa: E402

# name -> (dp3 argv, expected number of checks per suite)
WORKLOADS = {
    "verify-all-10": (["verify", "--suite", "all", "--max-half-order", "10"],
                      {"theorem": 20, "counts": 20, "recursions": 68, "quiver": 30, "oracle": 24}),
    "theorem-12": (["verify", "--suite", "theorem", "--max-half-order", "12"], {"theorem": 24}),
    "quiver-14": (["verify", "--suite", "quiver", "--max-half-order", "14"], {"quiver": 38}),
    "counts-14": (["verify", "--suite", "counts", "--max-half-order", "14"], {"counts": 28}),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY = {"trace_overhead_frac": "ratio", "checks_failed_frac": "ratio"}

SETUP_SAMPLES = 5
# Seconds that worker.reference_s() takes on the machine BASELINE.json was
# measured on.  The run's median times are scaled by REFERENCE_S over the
# median of the reference times measured right after each pass.  On a shared
# host the machine's speed drifts by 20 % and more over minutes, for the
# reference loop and dp3 alike; the scaling takes that drift out of the
# end-to-end times.
REFERENCE_S = 0.45
# every child is killed past this many seconds from the start of the run,
# which keeps a run inside its three-minute limit
HARD_LIMIT_S = 170.0

CHECK_RE = re.compile(r"^PASS  (\S+)  lhs=(\w+) rhs=(\w+)")
SUITE_RE = re.compile(r"^suite (\w+): pass \((\d+) checks\)$")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run, as opposed to a failing check."""


def failed_checks(rc, stdout: str, expected: dict[str, int]) -> int:
    """Checks of one pass that failed or are missing, out of the expected total.

    A check counts as passed only on a ``PASS`` line with equal digests and an
    id not seen before.  A pass that exits non-zero, prints any ``FAIL`` or a
    repeated check, or whose per-suite counts differ from ``expected`` has at
    least one failure.
    """
    total = sum(expected.values())
    lines = 0
    passed: set[str] = set()
    suites: dict[str, int] = {}
    for line in stdout.splitlines():
        m = CHECK_RE.match(line)
        if m:
            lines += 1
            if m.group(2) == m.group(3):
                passed.add(m.group(1))
        m = SUITE_RE.match(line)
        if m:
            suites[m.group(1)] = int(m.group(2))
    failed = total - min(len(passed), total)
    if (rc != 0 or "FAIL" in stdout or suites != expected or lines != total
            or len(passed) != total):
        failed = max(failed, 1)
    return failed


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker with ``args``; its JSON document and the wall time from
    spawn to exit.  A worker still running at ``deadline`` is killed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a pass did not finish within {HARD_LIMIT_S:.0f} s of the run") from None
    elapsed = time.perf_counter() - t
    if proc.returncode == NO_PROGRAM:
        raise HarnessError(proc.stderr.strip())
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def git_state() -> tuple[str | None, bool | None]:
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="recorded; has no effect")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "dp3", "cli.py")):
        print(f"error: no dp3 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run(args) -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    argv, expected = WORKLOADS[args.workload]
    total = sum(expected.values())

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setup.append(spawn(["--trace", "0"], deadline)[1])

    # traced and untraced passes alternate under --trace 1; at least two
    # traced passes are needed to see that call counts repeat
    kinds = (True, False) if args.trace else (False,)
    passes = []
    measure_end = time.monotonic() + args.seconds
    while True:
        is_traced = kinds[len(passes) % len(kinds)]
        doc, _ = spawn(["--trace", str(int(is_traced)), "--", *argv], deadline)
        doc["traced"] = is_traced
        doc["failed"] = failed_checks(doc["rc"], doc["stdout"], expected)
        passes.append(doc)
        n_traced = sum(q["traced"] for q in passes)
        if (time.monotonic() >= measure_end
                and (not args.trace or (n_traced >= 2 and len(passes) > n_traced))):
            break

    traced = [q for q in passes if q["traced"]]
    untraced = [q for q in passes if not q["traced"]]
    labels = {json.dumps(q["labels"]) for q in passes}
    attempted = total * len(passes)
    failed = sum(q["failed"] for q in passes)
    calls_repeat = len({json.dumps(q["calls"], sort_keys=True) for q in traced}) <= 1
    correct = failed == 0 and calls_repeat and len(labels) == 1

    sha, dirty = git_state()
    header = {
        "workload": args.workload, "argv": argv, "expected_checks": expected,
        "seed": args.seed, "seed_effect": "none: the workloads have no random inputs",
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "calibration": json.loads(labels.pop()) if len(labels) == 1 else None,
    }
    print(json.dumps({"header": header}))

    def median(key, docs):
        return statistics.median(q[key] for q in docs)

    if args.trace:
        values = {k: statistics.median(q["layers"][k] for q in traced) for k in LAYER_METRICS}
        values["trace_overhead_frac"] = median("wall_s", traced) / median("wall_s", untraced) - 1
        values["checks_failed_frac"] = failed / attempted
        units = dict(LAYER_METRICS, **TRACE_ONLY)
        detail = {"calls_repeat": calls_repeat,
                  "weighted_by_diamond": traced[0]["weighted_by_diamond"]}
    else:
        speed = REFERENCE_S / median("reference_s", passes)
        values = {"wall_s": median("wall_s", passes) * speed,
                  "cpu_s": median("cpu_s", passes) * speed,
                  "setup_s": statistics.median(setup) * speed,
                  "peak_rss_mb": median("peak_rss_mb", passes)}
        units = END_TO_END
        detail = {"setup_samples_s": setup}
    detail["passes"] = [{k: q.get(k) for k in ("traced", "failed", "rc", "wall_s", "cpu_s",
                                                 "reference_s", "peak_rss_mb", "default_scheme_s",
                                                 "error")}
                        for q in passes]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
