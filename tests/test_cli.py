"""CLI behavior: suites, compute routes, export determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dp3
from dp3 import calibration, cli, laurent, matchings
from dp3.cli import main
from dp3.diamonds import pm_count_closed
from support import x


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "4")
        assert code == 0
        assert "FAIL" not in out
        assert "suite counts: pass" in out

    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "4")
        assert code == 0
        assert out.count("suite ") == 5

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quiver",
                           "--max-half-order", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert docs[0]["overall"] == "pass"
        assert all(c["status"] == "pass" for c in docs[0]["checks"])

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "counts", "--max-half-order", "0")
        assert code == 2
        assert "error" in err

    def test_bad_suite_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_check_counts_per_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "4",
                           "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert {d["suite"]: len(d["checks"]) for d in docs} == {
            "theorem": 8, "counts": 8, "recursions": 62, "quiver": 18, "oracle": 24}
        ids = [c["id"] for d in docs for c in d["checks"]]
        assert len(ids) == len(set(ids))

    def test_mismatch_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recurrence_y", lambda n: (x(1), x(2)))
        code, out, _ = run(capsys, "verify", "--suite", "quiver", "--max-half-order", "1")
        assert code == 1
        assert "FAIL  quiver/seed-vs-recurrence/N<=1" in out

    def test_fail_shows_difference(self, capsys, monkeypatch):
        # a deliberately wrong right-hand side: y_1 + x1 instead of y_1
        real = cli.recurrence_y
        monkeypatch.setattr(cli, "recurrence_y", lambda n: (real(n)[0] + x(1), real(n)[1]))
        code, out, _ = run(capsys, "verify", "--suite", "theorem", "--max-half-order", "1")
        assert code == 1
        lines = out.splitlines()
        fail = lines.index(next(l for l in lines if l.startswith("FAIL  theorem/y/N=1")))
        assert lines[fail + 1] == ("      lhs_terms=2, rhs_terms=3, diff_terms=1, "
                                   "lhs_minus_rhs=-x1")
        assert lines[fail + 2].startswith("PASS  theorem/yprime/N=1")

        code, out, _ = run(capsys, "verify", "--suite", "theorem", "--max-half-order", "1",
                           "--format", "json")
        assert code == 1
        failed, passed = json.loads(out)[0]["checks"]
        assert failed["diff"] == {"lhs_terms": 2, "rhs_terms": 3, "diff_terms": 1,
                                  "lhs_minus_rhs": "-x1"}
        assert "diff" not in passed

    def test_fail_shows_values_of_non_polynomials(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "pm_count_closed", lambda n: 3)
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-half-order", "1")
        assert code == 1
        assert "FAIL  counts/pm/N=1" in out
        assert "\n      lhs=2, rhs=3\n" in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(dp3.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "dp3", "verify", "--suite", "counts",
                               "--max-half-order", "2"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "suite counts: pass (4 checks)" in proc.stdout


class TestSharedSums:
    """The theorem and recursions suites take every w(D) from one memo."""

    def test_each_diamond_summed_once(self, capsys, monkeypatch):
        # the oracle suite calls the kernel through its own binding in cli,
        # which is not counted here: its sums are recomputed on purpose
        summed, built = [], []
        kernel, build = matchings.weighted_pm_sum, matchings.build_diamond

        def counting_kernel(graph, *args):
            summed.append((graph.half_order, graph.primed))
            return kernel(graph, *args)

        def counting_build(n, primed, scheme):
            built.append((n, primed))
            return build(n, primed, scheme)

        monkeypatch.setattr(matchings, "weighted_pm_sum", counting_kernel)
        monkeypatch.setattr(matchings, "build_diamond", counting_build)
        matchings._diamond_sum.cache_clear()
        code, _, _ = run(capsys, "verify", "--suite", "all", "--max-half-order", "6")
        assert code == 0
        # theorem: N = 1..6, both primings; recursions adds D_0 and D_{7/2}
        want = {(n, p) for n in range(1, 7) for p in (False, True)} | {(0, False), (7, False)}
        assert sorted(summed) == sorted(built) == sorted(want)

    def test_recursions_alone_match_all_suites(self, capsys):
        def recursions(suite):
            matchings._diamond_sum.cache_clear()
            code, out, _ = run(capsys, "verify", "--suite", suite, "--max-half-order", "6",
                               "--format", "json")
            assert code == 0
            doc, = [d for d in json.loads(out) if d["suite"] == "recursions"]
            return [(c["id"], c["status"], c["lhs"], c["rhs"]) for c in doc["checks"]]

        alone = recursions("recursions")
        assert len(alone) == 64
        assert alone == recursions("all")


class TestSuiteReport:
    def test_seconds_are_gaps_between_checks(self, monkeypatch):
        ticks = iter([10.0, 10.5, 12.0, 12.25])
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        rep = cli.SuiteReport("stub")
        rep.check("a", 1, 1)
        rep.check("b", 1, 2)
        rep.check("c", "x", "x")
        assert [c.seconds for c in rep.checks] == [0.5, 1.5, 0.25]
        assert [c.ok for c in rep.checks] == [True, False, True]
        assert sum(c.seconds for c in rep.checks) == 12.25 - 10.0

    def test_equal_polynomials_are_formatted_once(self, monkeypatch):
        formatted = []

        def counting(p):
            formatted.append(p)
            return fmt(p)

        fmt = laurent.format_poly
        monkeypatch.setattr(laurent, "format_poly", counting)
        rep = cli.SuiteReport("stub")
        y, y2 = x(1) + x(2), x(2) + x(1)
        rep.check("pass", y, y2)
        assert formatted == [y]
        assert rep.checks[0].lhs_digest == rep.checks[0].rhs_digest == cli._digest(y2)

        formatted.clear()
        rep.check("fail", y, y + x(3))
        assert formatted[:2] == [y, y + x(3)]
        assert rep.checks[1].diff["lhs_minus_rhs"] == "-x3"
        assert rep.checks[1].lhs_digest != rep.checks[1].rhs_digest

        # True == 1, but the two print differently, so both are digested
        rep.check("bool", True, 1)
        assert rep.checks[2].ok
        assert rep.checks[2].lhs_digest != rep.checks[2].rhs_digest

    def test_suite_seconds_include_work_between_checks(self, monkeypatch, scheme):
        # each diamond build advances the stub clock by one second; the oracle
        # suite builds its diamonds before the checks that use them
        clock = [0.0]
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        build = cli.build_diamond

        def slow_build(*args):
            clock[0] += 1.0
            return build(*args)

        monkeypatch.setattr(cli, "build_diamond", slow_build)
        rep = cli.suite_oracle(2, scheme)
        assert [c.seconds for c in rep.checks] == [1.0, 0.0, 0.0] * 4
        assert sum(c.seconds for c in rep.checks) == clock[0] == 4.0


class TestCompute:
    def test_y1_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "y", "--n", "1")
        assert code == 0
        assert out.splitlines()[0] == "x1 x2^-1 x6 + x2^-1 x3 x5"

    def test_routes_agree(self, capsys):
        outs = []
        for via in ("recurrence", "seed", "matchings"):
            code, out, _ = run(capsys, "compute", "--target", "y", "--n", "2", "--via", via)
            assert code == 0
            outs.append(out.splitlines()[0])
        assert outs[0] == outs[1] == outs[2]

    def test_yprime_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "yp", "--n", "3",
                           "--via", "matchings", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eval_at_ones"] == pm_count_closed(3) == 16
        assert doc["term_count"] == 10

    def test_base_values_via_recurrence(self, capsys):
        code, out, _ = run(capsys, "compute", "--target", "y", "--n", "-2")
        assert code == 0
        assert out.splitlines()[0] == "x2"

    def test_matchings_requires_positive_n(self, capsys):
        code, _, err = run(capsys, "compute", "--target", "y", "--n", "0",
                           "--via", "matchings")
        assert code == 2
        assert "N >= 1" in err

    def test_too_deep_for_recursion_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "compute", "--target", "y", "--n", "1500")
        assert code == 2
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded")
        assert "Traceback" not in err


class TestExport:
    def test_json_export(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, _ = run(capsys, "export", "--half-order", "2",
                         "--format", "json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert sorted(f["label"] for f in doc["faces"]) == [2, 4, 5]

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "export", "--half-order", "3", "--format", "svg", "--out", str(a))
        run(capsys, "export", "--half-order", "3", "--format", "svg", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dot_cycle(self, capsys, tmp_path):
        out_file = tmp_path / "d.dot"
        code, _, _ = run(capsys, "export", "--half-order", "1",
                         "--format", "dot", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().count(" -- ") == 4

    def test_primed_labels(self, capsys, tmp_path):
        plain, primed = tmp_path / "p.json", tmp_path / "q.json"
        run(capsys, "export", "--half-order", "3", "--format", "json", "--out", str(plain))
        run(capsys, "export", "--half-order", "3", "--primed", "--format", "json",
            "--out", str(primed))
        sigma = {1: 5, 2: 4, 3: 6, 4: 2, 5: 1, 6: 3}
        a = sorted(sigma[f["label"]] for f in json.loads(plain.read_text())["faces"])
        b = sorted(f["label"] for f in json.loads(primed.read_text())["faces"])
        assert a == b

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "file"
        target.write_text("")
        code, _, err = run(capsys, "export", "--half-order", "1",
                           "--out", str(target / "x.json"))
        assert code == 2
        assert "error" in err


class TestCalibrateCommand:
    def test_compute_and_save(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        code, out, _ = run(capsys, "calibrate", "--out", str(path))
        assert code == 0
        assert out.startswith("computed:")
        assert path.exists()

    def test_second_run_loads(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        run(capsys, "calibrate", "--out", str(path))
        code, out, _ = run(capsys, "calibrate", "--out", str(path))
        assert code == 0
        assert out.startswith("loaded:")

    def test_recalibrate_forces_search(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        run(capsys, "calibrate", "--out", str(path))
        code, out, _ = run(capsys, "calibrate", "--out", str(path), "--recalibrate")
        assert code == 0
        assert out.startswith("computed:")

    def test_stale_schema_refused_by_other_commands(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        run(capsys, "calibrate", "--out", str(path))
        path.write_text(path.read_text().replace('"schema_version": 1',
                                                 '"schema_version": 0'))
        code, _, err = run(capsys, "compute", "--target", "y", "--n", "1",
                           "--via", "matchings", "--calibration", str(path))
        assert code == 2
        assert "schema" in err

    def test_verify_uses_calibration_file(self, capsys, tmp_path):
        path = tmp_path / "cal.json"
        code, out, _ = run(capsys, "verify", "--suite", "oracle",
                           "--max-half-order", "2", "--calibration", str(path))
        assert code == 0
        assert path.exists()
        assert "suite oracle: pass" in out


def _text_labels(doc: dict) -> dict:
    doc["labels"]["up"] = "abc"
    return doc


def _shape_flag_7(doc: dict) -> dict:
    # an up-face entry, whose flag 1 a coercion to bool would not tell from 7
    assert doc["shapes"]["254"][-1][0] == 1
    doc["shapes"]["254"][-1][0] = 7
    return doc


def _duplicate_shape_entry(doc: dict) -> dict:
    doc["shapes"]["254"].append(doc["shapes"]["254"][0])
    return doc


MALFORMED_CALIBRATIONS = {
    "no-labels": lambda doc: {"schema_version": 1},
    "not-an-object": lambda doc: [1, 2],
    "text-labels": _text_labels,
    "anchor-moved": lambda doc: {**doc, "anchor": [5, 5]},
    "shape-flag-7": _shape_flag_7,
    "duplicate-shape-entry": _duplicate_shape_entry,
    "unknown-key": lambda doc: {**doc, "comment": "edited by hand"},
}

CALIBRATION_COMMANDS = {
    "verify": ("verify", "--suite", "quiver", "--max-half-order", "1", "--calibration"),
    "calibrate": ("calibrate", "--out"),
}


class TestMalformedCalibration:
    @pytest.mark.parametrize("command", sorted(CALIBRATION_COMMANDS))
    @pytest.mark.parametrize("malformed", sorted(MALFORMED_CALIBRATIONS))
    def test_exits_2_without_traceback(self, capsys, tmp_path, scheme, command, malformed):
        path = tmp_path / "cal.json"
        doc = json.loads(calibration.scheme_to_json(scheme))
        path.write_text(json.dumps(MALFORMED_CALIBRATIONS[malformed](doc)))
        code, _, err = run(capsys, *CALIBRATION_COMMANDS[command], str(path))
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    def test_failed_search_exits_1(self, capsys, monkeypatch):
        def fail():
            raise calibration.CalibrationFailed("no labeling survives")

        monkeypatch.setattr(calibration, "calibrate", fail)
        code, _, err = run(capsys, "calibrate")
        assert code == 1
        assert "calibration failed:" in err
