"""Command line front end: verification suites, cluster variable computation
by any route, diamond export, and the calibration search.

Exit codes: 0 all checks pass, 1 verification or calibration failure, 2 usage,
input or I/O error, or out of memory.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from pathlib import Path

from .laurent import SIGMA, LaurentPoly, label_exponents
from .quiver import (
    B0,
    MUTATION_CYCLE,
    mutate_matrix,
    recurrence_y,
    run_periodic_sequence,
)
from .tiling import RHO_CENTER, BlockScheme, quiver_from_tiling
from . import calibration as cal, quiver
from .diamonds import (
    RECURSION_FACTOR_LABELS,
    build_diamond,
    boundary_vector,
    boundary_vector_closed,
    covering_monomial,
    covering_monomial_closed,
    face_vector,
    face_vector_closed,
    graph_to_dot,
    graph_to_json,
    graph_to_svg,
    patch_covering_monomial,
    pm_count_closed,
)
from .matchings import (
    aggregate_enumeration,
    condensation_diamonds,
    count_pm,
    matchings_route_y,
    verify_condensation,
    weighted_pm_sum,
)

try:  # hashlib loads OpenSSL (3.6-3.8 MB of RSS); CPython's own SHA-256 is lean
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython <= 3.11
    except ImportError:
        from hashlib import sha256


def _digest(value) -> str:
    return sha256(str(value).encode()).hexdigest()[:12]


@dataclass
class CheckResult:
    check_id: str
    ok: bool
    lhs_digest: str
    rhs_digest: str
    seconds: float
    diff: dict | None = None  # what differs, for a failed check only


def _difference(lhs, rhs) -> dict:
    """What a failed check shows: for two polynomials, their term counts and
    the three leading terms of lhs - rhs; for other values, both values."""
    if not (isinstance(lhs, LaurentPoly) and isinstance(rhs, LaurentPoly)):
        return {"lhs": str(lhs)[:80], "rhs": str(rhs)[:80]}
    diff = lhs - rhs
    text = str(LaurentPoly.from_exponent_terms(dict(islice(diff.terms(), 3))))
    if diff.term_count() > 3:
        text += " + ..."
    return {"lhs_terms": lhs.term_count(), "rhs_terms": rhs.term_count(),
            "diff_terms": diff.term_count(), "lhs_minus_rhs": text}


@dataclass
class SuiteReport:
    """The checks of one suite, in order.  A check's seconds run from the end
    of the previous check (for the first, from the report's creation), so
    they add up to the suite's run time."""

    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def __post_init__(self):
        self._last_end = time.monotonic()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, check_id: str, lhs, rhs) -> None:
        ok = lhs == rhs
        lhs_digest = _digest(lhs)
        # equal polynomials have one canonical text; other equal values, such
        # as True and 1, may print differently
        if ok and isinstance(lhs, LaurentPoly) and isinstance(rhs, LaurentPoly):
            rhs_digest = lhs_digest
        else:
            rhs_digest = _digest(rhs)
        diff = None if ok else _difference(lhs, rhs)
        end = time.monotonic()
        self.checks.append(CheckResult(check_id, ok, lhs_digest, rhs_digest,
                                       end - self._last_end, diff))
        self._last_end = end

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "overall": "pass" if self.ok else "fail",
            "checks": [
                {"id": c.check_id, "status": "pass" if c.ok else "fail",
                 "lhs": c.lhs_digest, "rhs": c.rhs_digest,
                 "seconds": round(c.seconds, 3), **({"diff": c.diff} if c.diff else {})}
                for c in self.checks
            ],
        }


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_jobs(jobs: list, work, meanwhile) -> tuple[list, object]:
    """``[work(job) for job in jobs]`` and the value of ``meanwhile()``,
    which this process calls once.  With two or more usable CPUs, a forked
    worker per CPU pulls the jobs in order from a pipe holding the next
    index, which it reads and writes back plus one, while this process runs
    only ``meanwhile()``, whatever the timing; else the jobs run here in
    order, then ``meanwhile()``.  A worker pickles its results or exception
    down a pipe of its own and leaves by ``os._exit``.  The first exception
    to arrive, or one of ``meanwhile()``, is raised here with its own type
    (ChildProcessError naming it if it cannot be pickled), as is
    ChildProcessError for a worker gone without a result, once all are
    killed."""
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    if cpus < 2 or not jobs:
        return [work(job) for job in jobs], meanwhile()  # in this order
    import pickle  # only here: a run that forks none saves its 0.25 MB of RSS
    import select
    queue = os.pipe()
    os.write(queue[1], bytes(8))
    results = {}
    children: dict[int, int] = {}  # the pipe from a worker -> its pid
    try:
        for _ in range(min(cpus, len(jobs))):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the worker: never returns
                _worker(queue, read, write, jobs, work)
            os.close(write)
            children[read] = pid
        ahead = meanwhile()
        data = {read: bytearray() for read in children}
        while children:  # the workers' results in the order they finish
            for read in select.select(list(children), [], [])[0]:
                if chunk := os.read(read, 1 << 16):
                    data[read] += chunk
                    continue
                pid = children.pop(read)
                os.close(read)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status or not data[read]:
                    raise ChildProcessError(f"a worker exited with status {status} "
                                            "without a result")
                ok, done = pickle.loads(data.pop(read))
                if not ok:
                    raise done
                results.update(done)
    except BaseException:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read, pid in children.items():
            os.close(read)
            os.waitpid(pid, 0)
        os.close(queue[0])
        os.close(queue[1])
    return [results[i] for i in range(len(jobs))], ahead


def _worker(queue, read: int, write: int, jobs: list, work):
    """A forked worker of ``_run_jobs``: run the jobs it pulls, send the
    pickled ``(index, result)`` pairs or exception down ``write``, and exit
    without cleanup, so that no inherited buffer is flushed twice: with
    status 0 once they are written, else 1 after naming why on fd 2."""
    status = 1
    try:
        import pickle  # loaded by _run_jobs before the fork
        os.close(read)
        try:
            done, end = [], len(jobs)
            while (i := int.from_bytes(os.read(queue[0], 8), "little")) < end:
                os.write(queue[1], (i + 1).to_bytes(8, "little"))
                done.append((i, work(jobs[i])))
            os.write(queue[1], end.to_bytes(8, "little"))  # for the next worker to read
            data = pickle.dumps((True, done))
        except BaseException as e:
            # free the job's frames: after a MemoryError, pickling needs their room
            e.__traceback__ = None
            try:
                data = pickle.dumps((False, e))
                pickle.loads(data)
            except Exception:  # an exception that does not survive pickling
                data = pickle.dumps((False, ChildProcessError(f"{type(e).__name__}: {e}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException as e:
        os.write(2, f"dp3 worker: {type(e).__name__}: {e}\n".encode())
    finally:
        os._exit(status)


def _condensation_orders(top: int) -> list[int]:
    """The half-orders N of the condensation checks, in the order of their
    ids: the even N from 4 to top, then the odd N from 3 to the first odd N
    above top."""
    return [*range(4, top + 1, 2), *range(3, top + 3, 2)]


def _cover_product(n: int) -> tuple[int, ...]:
    """The exponents of m(D_N) m(D_{N-3}) for N = n >= 3, in closed form."""
    a, b = (n * n - 3 * n + 6) // 2, (n * n - n + 4) // 2
    return a, a, b, a - 1, a, b - 1


def _work_ahead(names, max_half_order: int,
                scheme: BlockScheme) -> tuple[dict, dict, dict, quiver.YSequence | None]:
    """Work out, on every usable CPU, what the suites ``names`` check
    against another route: y_1..y_N by the recurrence (a job whose pairs go
    into the recurrence memo here), the diamond sums, the theorem's
    covering monomials and the counts (a summed diamond's count is its sum
    at x_i = 1), while this process runs the seed route for the quiver
    suite.  Returns the sums w(D) and the monomials m(D) by (half-order,
    primed), the counts of D_1..D_N by N, and the seed route's sequence
    (None without the quiver suite)."""
    covers = ({(n, p) for n in range(1, max_half_order + 1) for p in (False, True)}
              if "theorem" in names else set())
    sums = set(covers)
    if "recursions" in names:
        sums |= {d for n in _condensation_orders(max_half_order)
                 for d in condensation_diamonds(n)}
    counts = {(n, False) for n in range(1, max_half_order + 1)} if "counts" in names else set()
    jobs = sorted(sums | counts, reverse=True)
    # y_N for the suites that check it against another route; the job calls
    # the quiver module's function, never this module's binding of it
    if {"theorem", "counts", "quiver"}.intersection(names):
        jobs.insert(0, "recurrence")

    def run(job):
        if job == "recurrence":
            return {n: quiver.recurrence_y(n) for n in range(1, max_half_order + 1)}
        graph = build_diamond(*job, scheme)  # one build serves the sum, count and monomial
        w = weighted_pm_sum(graph) if job in sums else None
        count = None
        if job in counts:  # a sum raises unless its coefficients add up to the count
            count = count_pm(graph) if w is None else w.evaluate()
        return (w, count, patch_covering_monomial((f for f, _ in graph.faces), scheme)
                if job in covers else None)

    results, seq = _run_jobs(jobs, run, lambda: (run_periodic_sequence(2 * max_half_order)
                                                 if "quiver" in names else None))
    values = dict(zip(jobs, results))
    quiver.remember_y(values.get("recurrence", {}))
    return ({d: values[d][0] for d in sums}, {d: values[d][2] for d in covers},
            {n: values[n, p][1] for n, p in counts}, seq)


def suite_counts(max_half_order: int, counts: dict[int, int]) -> SuiteReport:
    """``counts`` holds the count of D_N by N, as ``_work_ahead`` returns."""
    rep = SuiteReport("counts")
    for n in range(1, max_half_order + 1):
        rep.check(f"counts/pm/N={n}", counts[n], pm_count_closed(n))
        spec = recurrence_y(n)[0].evaluate()
        rep.check(f"counts/specialize/N={n}", spec, pm_count_closed(n))
    return rep


def suite_theorem(max_half_order: int, sums: dict, covers: dict) -> SuiteReport:
    """``sums`` and ``covers`` hold w(D) and m(D) by (half-order, primed),
    as ``_work_ahead`` returns."""
    rep = SuiteReport("theorem")
    for n in range(1, max_half_order + 1):
        y, yp = recurrence_y(n)
        rep.check(f"theorem/y/N={n}", sums[n, False] * covers[n, False], y)
        rep.check(f"theorem/yprime/N={n}", sums[n, True] * covers[n, True], yp)
    return rep


def suite_recursions(max_half_order: int, scheme: BlockScheme, sums: dict) -> SuiteReport:
    """``sums`` holds w(D) by (half-order, primed), as ``_work_ahead`` returns.
    A check at half-order N is named kind 1, n = N/2 for even N, and kind 2,
    n = (N-1)/2 for odd N."""
    rep = SuiteReport("recursions")

    @cache  # for this call only: the checks below use most monomials several times
    def m(n: int, primed: bool) -> LaurentPoly:
        return covering_monomial(n, primed, scheme)

    for n in _condensation_orders(max_half_order):
        rep.check(f"recursions/weights/kind{1 + n % 2}/n={n // 2}",
                  *verify_condensation(n, sums))

    # the closed-form checks are monomial arithmetic; always cover n <= 5
    top = max(5, (max_half_order + 1) // 2)
    for n in range(2, 2 * top + 2):
        rep.check(f"recursions/faces/N={n}", face_vector(n, False, scheme),
                  face_vector_closed(n))
        rep.check(f"recursions/boundary/N={n}", boundary_vector(n, False, scheme),
                  boundary_vector_closed(n))
        rep.check(f"recursions/cover/N={n}", m(n, False), covering_monomial_closed(n))
    rep.check("recursions/cover/N=1", m(1, False),
              LaurentPoly.monomial(1, label_exponents((1, 2, 3, 5, 6))))
    rep.check("recursions/cover/N=0", m(0, False), LaurentPoly.var(3))

    unprimed_factor, primed_factor = (LaurentPoly.monomial(1, label_exponents(labels))
                                      for labels in RECURSION_FACTOR_LABELS)
    for n in _condensation_orders(2 * top):
        tag = f"recursions/cover-rec{1 + n % 2}/{{}}/n={n // 2}"
        big, center, a, b, ap, bp = (m(*d) for d in condensation_diamonds(n))
        lhs = big * center
        rep.check(tag.format("unprimed"), a * b * unprimed_factor, lhs)
        rep.check(tag.format("primed"), ap * bp * primed_factor, lhs)
        rep.check(tag.format("product"), lhs, LaurentPoly.monomial(1, _cover_product(n)))
    return rep


def suite_quiver(max_half_order: int, scheme: BlockScheme, seq: quiver.YSequence) -> SuiteReport:
    """``seq`` is the seed route's sequence of 2N steps, as ``_work_ahead`` returns."""
    rep = SuiteReport("quiver")

    rep.check("quiver/skew", all(B0[i][j] == -B0[j][i] for i in range(6) for j in range(6)),
              True)
    sig = [SIGMA(i) for i in range(1, 7)]
    rep.check("quiver/sigma-invariant",
              all(B0[sig[i] - 1][sig[j] - 1] == B0[i][j] for i in range(6) for j in range(6)),
              True)
    rep.check("quiver/antipodal-zero", [B0[i][sig[i] - 1] for i in range(6)], [0] * 6)

    b = B0
    for k in MUTATION_CYCLE:
        b = mutate_matrix(b, k)
    rep.check("quiver/period-6", b, B0)

    rep.check("quiver/involution",
              all(mutate_matrix(mutate_matrix(B0, k), k) == B0 for k in range(1, 7)), True)

    for a in (1, 2, 3):
        pair = {a, SIGMA(a)}
        got = mutate_matrix(mutate_matrix(B0, a), SIGMA(a))
        want = tuple(tuple(-B0[i][j] if (i + 1 in pair) != (j + 1 in pair) else B0[i][j]
                           for j in range(6)) for i in range(6))
        rep.check(f"quiver/pair-negation/a={a}", got, want)

    dual = quiver_from_tiling(scheme.labeling)
    neg = tuple(tuple(-v for v in row) for row in dual)
    rep.check("quiver/tiling-duality", dual == B0 or neg == B0, True)

    want = tuple(v for n in range(1, max_half_order + 1) for v in recurrence_y(n))
    rep.check(f"quiver/seed-vs-recurrence/N<={max_half_order}", seq.entries == want, True)

    for n in range(1, max_half_order + 1):
        y, yp = recurrence_y(n)
        rep.check(f"quiver/sigma-pair/N={n}", y.permute(SIGMA), yp)
        rep.check(f"quiver/positivity/N={n}", y.min_coefficient() > 0, True)
    return rep


def suite_oracle(max_half_order: int, scheme: BlockScheme) -> SuiteReport:
    rep = SuiteReport("oracle")
    for n in range(1, min(4, max_half_order) + 1):
        for primed in (False, True):
            tag = f"N={n}/{'primed' if primed else 'unprimed'}"
            g = build_diamond(n, primed, scheme)
            dp = weighted_pm_sum(g)
            rep.check(f"oracle/enumeration/{tag}", dp, aggregate_enumeration(g))
            rep.check(f"oracle/sweep-order/{tag}", weighted_pm_sum(g, "xy"), dp)
            rep.check(f"oracle/count-order/{tag}", count_pm(g, "xy"), count_pm(g))
    return rep


_SUITE_FUNCS = {
    "theorem": suite_theorem,
    "counts": suite_counts,
    "recursions": suite_recursions,
    "quiver": suite_quiver,
    "oracle": suite_oracle,
}
SUITES = tuple(_SUITE_FUNCS)


def cmd_verify(args) -> int:
    if args.max_half_order < 1:
        raise ValueError("max_half_order must be >= 1")
    scheme = cal.default_scheme()
    names = SUITES if args.suite == "all" else (args.suite,)
    start = time.monotonic()
    sums, covers, counts, seq = _work_ahead(names, args.max_half_order, scheme)
    ahead_s = time.monotonic() - start
    ahead = {"theorem": (sums, covers), "counts": (counts,), "recursions": (scheme, sums),
             "quiver": (scheme, seq), "oracle": (scheme,)}
    reports = [_SUITE_FUNCS[name](args.max_half_order, *ahead[name]) for name in names]
    # charged to the first check, so that the checks' seconds add up to the run
    reports[0].checks[0].seconds += ahead_s
    if args.format == "json":
        import json  # only here: a run that prints text saves loading it
        print(json.dumps([r.to_doc() for r in reports], indent=1))
    else:
        for rep in reports:
            for c in rep.checks:
                status = "PASS" if c.ok else "FAIL"
                print(f"{status}  {c.check_id}  lhs={c.lhs_digest} rhs={c.rhs_digest}"
                      f"  ({c.seconds:.3f}s)")
                if c.diff:
                    print("      " + ", ".join(f"{k}={v}" for k, v in c.diff.items()))
            print(f"suite {rep.suite}: {'pass' if rep.ok else 'FAIL'} "
                  f"({len(rep.checks)} checks)")
    return 0 if all(r.ok for r in reports) else 1


def cmd_compute(args) -> int:
    n = args.n
    prime = args.target == "yp"
    if args.via == "matchings":
        poly = matchings_route_y(n, prime, cal.default_scheme())
    elif args.via == "seed":
        if n < 1:
            raise ValueError("the seed route needs N >= 1")
        seq = run_periodic_sequence(2 * n)
        poly = seq.y_prime(n) if prime else seq.y(n)
    else:
        poly = recurrence_y(n)[1 if prime else 0]
    name = f"y'_{n}" if prime else f"y_{n}"
    if args.format == "json":
        import json
        print(json.dumps({
            "target": name, "n": n, "via": args.via, "poly": str(poly),
            "term_count": poly.term_count(),
            "eval_at_ones": poly.evaluate(),
        }, indent=1))
    else:
        print(str(poly))
        print(f"# {name} via {args.via}: {poly.term_count()} terms, "
              f"value {poly.evaluate()} at x_i = 1")
    return 0


def cmd_export(args) -> int:
    graph = build_diamond(args.half_order, args.primed, cal.default_scheme())
    render = {"json": graph_to_json, "dot": graph_to_dot, "svg": graph_to_svg}[args.format]
    text = render(graph)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    lab = cal.calibrate().labeling
    print(f"computed: up={lab.up} down={lab.down} rho_center={RHO_CENTER}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dp3", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITES + ("all",), default="all")
    v.add_argument("--max-half-order", type=int, default=8, metavar="N")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compute", help="compute y_N or y'_N")
    c.add_argument("--target", choices=("y", "yp"), required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--via", choices=("recurrence", "seed", "matchings"),
                   default="recurrence")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=cmd_compute)

    e = sub.add_parser("export", help="export a diamond graph")
    e.add_argument("--half-order", type=int, required=True, metavar="N")
    e.add_argument("--primed", action="store_true")
    e.add_argument("--format", choices=("json", "dot", "svg"), default="json")
    e.add_argument("--out", required=True, metavar="PATH")
    e.set_defaults(func=cmd_export)

    k = sub.add_parser("calibrate", help="run the calibration search")
    k.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None) -> int:
    """Run one command.  Every command reports errors by raising; this is the
    one place that turns an exception into a message and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cal.CalibrationError as e:
        # no labeling or several survive the search: the lattice model is broken
        print(f"calibration failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RecursionError) as e:
        # RecursionError: an input too deep for the interpreter's recursion limit
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is usually empty
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
