"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --trace 0 -- verify --suite theorem --max-half-order 12

Set-up imports ``dp3.cli`` from this checkout's ``src`` and calls
``calibration.default_scheme()``; the pass then calls ``dp3.cli.main(argv)``
once with stdout captured.  With no argv after ``--`` the worker stops after
set-up.  Right after the pass it times ``reference_s()``, a machine-speed
probe.  It prints one JSON line describing the pass.

A fresh process per pass is what keeps every cache in dp3 cold
(``recurrence_y``'s lru_cache, the calibration singleton, the block grid),
as it is in a user's ``dp3`` process: no pass reuses work of an earlier one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# exit code when dp3 cannot be imported from this checkout
NO_PROGRAM = 3


def import_dp3() -> None:
    """Import dp3 from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dp3.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(dp3.cli.__file__))) != SRC:
        raise ImportError(f"dp3 imported from {dp3.cli.__file__}, not from {SRC}")


def reference_s() -> float:
    """Seconds taken by a fixed loop of dict updates on big-integer keys and
    coefficients, the same kind of work as dp3's hot loops.  Timed next to
    every pass, it measures how fast the machine runs at that moment.  The
    keys wrap at 16381, which keeps the loop's memory to about 2 MB."""
    t = time.perf_counter()
    a = {(i * 7919) << 48 | i * 104729: i + 1 for i in range(500)}
    b = {(j * 6007) << 48 | j * 15485863: j + 2 for j in range(3000)}
    out: dict[int, int] = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = (ka + kb) % 16381
            out[k] = get(k, 0) + ca * cb
    return time.perf_counter() - t


def run_pass(argv: list[str], trace: bool) -> dict:
    """Set up, run ``dp3.cli.main(argv)`` once, and describe the pass."""
    import dp3.calibration
    import dp3.cli

    t = time.perf_counter()
    labeling = dp3.calibration.default_scheme().labeling
    doc = {"default_scheme_s": time.perf_counter() - t,
           "labels": {"up": list(labeling.up), "down": list(labeling.down)}}
    if not argv:
        return doc

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = dp3.cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:  # a crash is reported as a failed pass, not raised
        rc, error = None, traceback.format_exc()
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.restore()
    doc.update(rc=rc, error=error, stdout=out.getvalue(), wall_s=wall, cpu_s=cpu,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    # after ru_maxrss is read, so that the loop's memory never shows in it
    doc["reference_s"] = reference_s()
    if tracer is not None:
        self_s, calls = tracer.self_times()
        doc.update(layers=tracer.metrics(doc["default_scheme_s"]), calls=calls,
                   self_sum_s=sum(self_s.values()),
                   weighted_by_diamond=tracer.weighted_by_diamond())
    return doc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("argv", nargs="*", help="dp3 arguments, after --")
    args = p.parse_args()
    try:
        import_dp3()
    except ImportError as e:
        print(f"error: cannot import dp3: {e}", file=sys.stderr)
        return NO_PROGRAM
    print(json.dumps(run_pass(args.argv, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
