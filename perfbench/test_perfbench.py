"""Tests of the benchmark itself: tracing reaches every binding and leaves
none behind, the per-pass gate counts missing checks, BENCHMARK.json names
exactly the metrics the benchmark prints, and without dp3 sources the
benchmark refuses to report.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import worker

TINY = ["verify", "--suite", "all", "--max-half-order", "2"]
TINY_CHECKS = {"theorem": 4, "counts": 4, "recursions": 60, "quiver": 14, "oracle": 12}


def bindings() -> dict:
    """Every function-valued binding tracing may touch, by identity."""
    import dp3.laurent

    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "dp3" or name.startswith("dp3.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
            elif isinstance(value, dict):
                for k, v in value.items():
                    if callable(v):
                        out[(name, key, k)] = v
    for key, value in vars(dp3.laurent.LaurentPoly).items():
        out[("LaurentPoly", key)] = value
    return out


@pytest.fixture(scope="module")
def traced_tiny():
    worker.import_dp3()
    before = bindings()
    doc = worker.run_pass(TINY, trace=True)
    return doc, before, bindings()


def test_every_wrapped_name_is_called(traced_tiny):
    doc, _, _ = traced_tiny
    assert [n for n in tracer.SPAN_NAMES if doc["calls"].get(n, 0) == 0] == []


def test_every_import_site_is_wrapped():
    worker.import_dp3()
    import dp3.calibration
    import dp3.cli
    import dp3.matchings

    t = tracer.Tracer()
    t.install()
    try:
        for owner, attr in ((dp3.cli, "recurrence_y"), (dp3.cli, "weighted_pm_sum"),
                            (dp3.matchings, "build_diamond"), (dp3.calibration, "recurrence_y")):
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner.__name__, attr)
        assert all(hasattr(f, "__wrapped__") for f in dp3.cli._SUITE_FUNCS.values())
    finally:
        t.restore()


def test_self_times_fit_inside_the_pass(traced_tiny):
    doc, _, _ = traced_tiny
    assert 0 < doc["self_sum_s"] <= doc["wall_s"]
    assert all(v >= 0 for k, v in doc["layers"].items() if k.endswith("_s"))


def test_originals_are_restored(traced_tiny):
    _, before, after = traced_tiny
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


def test_tiny_pass_is_correct(traced_tiny):
    doc, _, _ = traced_tiny
    assert doc["rc"] == 0
    assert run.failed_checks(doc["rc"], doc["stdout"], TINY_CHECKS) == 0


def _verify_stdout(argv) -> tuple[int, str]:
    import dp3.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = dp3.cli.main(argv)
    return rc, out.getvalue()


def test_truncated_run_counts_missing_checks():
    worker.import_dp3()
    rc, stdout = _verify_stdout(["verify", "--suite", "theorem", "--max-half-order", "2"])
    assert run.failed_checks(rc, stdout, {"theorem": 4}) == 0
    # the same output held to the check count of --max-half-order 3
    assert run.failed_checks(rc, stdout, {"theorem": 6}) == 2


def test_gate_rejects_fail_lines_and_bad_exits():
    worker.import_dp3()
    rc, stdout = _verify_stdout(["verify", "--suite", "theorem", "--max-half-order", "2"])
    assert run.failed_checks(1, stdout, {"theorem": 4}) == 1
    first = stdout.splitlines()[0]
    broken = stdout.replace(first, first.replace("PASS", "FAIL", 1))
    assert run.failed_checks(rc, broken, {"theorem": 4}) == 1
    lhs = first.split("lhs=")[1][:12]
    unequal = stdout.replace(f"lhs={lhs}", "lhs=000000000000", 1)
    assert run.failed_checks(rc, unequal, {"theorem": 4}) == 1
    doubled = stdout.replace(first, first + "\n" + first)
    assert run.failed_checks(rc, doubled, {"theorem": 4}) == 1


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == dict(tracer.LAYER_METRICS, **run.TRACE_ONLY))


def test_refuses_without_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorem-12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
