"""Golden report: the CLI's output pinned byte for byte, apart from seconds.

`golden.json` holds each check of ``dp3 verify --suite all --max-half-order 5
--format json`` (id, status and both digests), the sha256 of every
``dp3 export`` in json, dot and svg for N=0..4, both primings, and the sha256
of the stdout of ``dp3 compute`` of y_5 and y'_5 by each route, in text and
JSON.  A change meant to keep the CLI's output must keep this test passing as
it stands.  After a change that alters the output on purpose, rewrite the
fixture with ``PYTHONPATH=src python tests/test_golden.py`` and say why in
the change.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from dp3.cli import main

FIXTURE = Path(__file__).with_name("golden.json")


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def golden() -> dict:
    """The pinned output of the current code."""
    docs = json.loads(_run("verify", "--suite", "all", "--max-half-order", "5",
                           "--format", "json"))
    verify = {d["suite"]: [[c["id"], c["status"], c["lhs"], c["rhs"]] for c in d["checks"]]
              for d in docs}
    export = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "dot", "svg"):
            for n in range(5):
                for primed in (False, True):
                    path = Path(tmp) / f"d.{fmt}"
                    _run("export", "--half-order", str(n), "--format", fmt, "--out",
                         str(path), *(["--primed"] if primed else []))
                    key = f"{fmt}/N={n}/{'primed' if primed else 'unprimed'}"
                    export[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    compute = {}
    for target in ("y", "yp"):
        for via in ("recurrence", "seed", "matchings"):
            for fmt in ("text", "json"):
                text = _run("compute", "--target", target, "--n", "5", "--via", via,
                            "--format", fmt)
                compute[f"{target}/{via}/{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    return {"verify": verify, "export": export, "compute": compute}


def test_cli_output_matches_the_golden_report():
    want = json.loads(FIXTURE.read_text())
    got = golden()
    assert got["export"] == want["export"]
    assert got["verify"] == want["verify"]
    assert got["compute"] == want["compute"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden(), indent=1) + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
