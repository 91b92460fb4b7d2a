"""Outside-in tracing of dp3's layers.

The tracer wraps dp3's public functions, and ``LaurentPoly`` methods on the
class, and records one span per call: name, parent span, start, end and a
few size numbers.  Spans stay in memory; ``metrics`` reduces them to the
per-layer numbers named in ``LAYER_METRICS``.  Nothing inside ``src/dp3``
is changed: ``install`` rebinds names and ``restore`` puts the originals
back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, defining module, attribute).  Each function is rebound at every
# dp3 module that imported it by name, and in module-level dicts such as
# ``cli._SUITE_FUNCS`` that hold it.
FUNCTIONS = (
    ("calibration.default_scheme", "dp3.calibration", "default_scheme"),
    ("quiver.recurrence_y", "dp3.quiver", "recurrence_y"),
    ("quiver.mutate_seed", "dp3.quiver", "mutate_seed"),
    ("diamonds.build_diamond", "dp3.diamonds", "build_diamond"),
    ("diamonds.covering_monomial", "dp3.diamonds", "covering_monomial"),
    ("matchings.weighted_pm_sum", "dp3.matchings", "weighted_pm_sum"),
    ("matchings.count_pm", "dp3.matchings", "count_pm"),
    ("matchings.aggregate_enumeration", "dp3.matchings", "aggregate_enumeration"),
    ("matchings.verify_condensation", "dp3.matchings", "verify_condensation"),
    ("cli.main", "dp3.cli", "main"),
    ("cli.suite_theorem", "dp3.cli", "suite_theorem"),
    ("cli.suite_counts", "dp3.cli", "suite_counts"),
    ("cli.suite_recursions", "dp3.cli", "suite_recursions"),
    ("cli.suite_quiver", "dp3.cli", "suite_quiver"),
    ("cli.suite_oracle", "dp3.cli", "suite_oracle"),
)

# (span name, LaurentPoly attribute), wrapped on the class.
METHODS = (
    ("laurent.mul", "__mul__"),
    ("laurent.exact_div", "exact_div"),
    ("laurent.pow", "__pow__"),
    ("laurent.permute", "permute"),
    ("laurent.add", "__add__"),
    ("laurent.evaluate", "evaluate"),
)

SPAN_NAMES = tuple(spec[0] for spec in FUNCTIONS + METHODS)

# Per-N weighted-sum self time is reported for these half-orders: the four
# largest diamonds of the theorem-12 workload, where the DP dominates.
WEIGHTED_N = (9, 10, 11, 12)

# Every metric ``metrics`` returns, with its unit.
LAYER_METRICS = {
    "calibration.default_scheme_s": "s",
    "matchings.weighted_pm_sum_s": "s",
    "matchings.weighted_pm_sum.calls": "count",
    **{f"matchings.weighted_pm_sum_s.n{n}": "s" for n in WEIGHTED_N},
    "matchings.w_terms_max": "count",
    "matchings.count_pm_s": "s",
    "matchings.count_pm.calls": "count",
    "matchings.aggregate_enumeration_s": "s",
    "matchings.verify_condensation_s": "s",
    "laurent.mul_s": "s",
    "laurent.mul.calls": "count",
    "laurent.exact_div_s": "s",
    "laurent.exact_div.calls": "count",
    "laurent.pow_s": "s",
    "laurent.permute_s": "s",
    "laurent.add_s": "s",
    "laurent.evaluate_s": "s",
    "laurent.result_terms_max": "count",
    "quiver.recurrence_y_s": "s",
    "quiver.recurrence_y.calls": "count",
    "quiver.mutate_seed_s": "s",
    "quiver.mutate_seed.calls": "count",
    "diamonds.build_diamond_s": "s",
    "diamonds.build_diamond.calls": "count",
    "diamonds.covering_monomial_s": "s",
    "diamonds.vertices_max": "count",
    "diamonds.edges_max": "count",
    "cli.suite_self_s": "s",
    "cli.checks_total": "count",
}


def _sizes(name, args, result):
    """Size numbers recorded with a span: the diamond's half-order, primed
    flag, vertex and edge count for graphs, the term count for polynomials
    and the number of checks a suite ran."""
    if name == "matchings.weighted_pm_sum":
        g = args[0]
        return (g.half_order, g.primed, len(g.vertices), len(g.edges), result.term_count())
    if name == "diamonds.build_diamond":
        return (len(result.vertices), len(result.edges))
    if name.startswith("laurent.") and name != "laurent.evaluate":
        return result.term_count()
    if name.startswith("cli.suite_"):
        return len(result.checks)
    return None


class Tracer:
    """Records spans of wrapped dp3 calls; single-threaded by design."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, sizes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _sizes(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self) -> None:
        """Wrap every traced function at each of its bindings."""
        import dp3.laurent

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "dp3" or k.startswith("dp3."))]
        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k in [k for k, v in value.items() if v is orig]:
                            self._rebind(value, k, wrapped)
        cls = dp3.laurent.LaurentPoly
        for name, attr in METHODS:
            self._rebind(cls, attr, self._wrap(name, vars(cls)[attr]))

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def _self_each(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, own in zip(self.spans, self._self_each()):
            self_s[span[0]] += own
            calls[span[0]] += 1
        return dict(self_s), dict(calls)

    def weighted_by_diamond(self) -> list[dict]:
        """One row per weighted_pm_sum call: graph size, result size, self time."""
        rows = []
        for (name, _, _, _, sizes), own in zip(self.spans, self._self_each()):
            if name == "matchings.weighted_pm_sum":
                n, primed, nv, ne, terms = sizes
                rows.append({"n": n, "primed": primed, "vertices": nv, "edges": ne,
                             "w_terms": terms, "self_s": own})
        return rows

    def metrics(self, default_scheme_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed as LAYER_METRICS.
        ``default_scheme_s`` is the cold calibration time, measured untraced
        during set-up; the spans cover only the verify run after it."""
        self_s, calls = self.self_times()
        out = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
        out.update({f"{name}.calls": calls.get(name, 0) for name in SPAN_NAMES})
        out["calibration.default_scheme_s"] = default_scheme_s
        rows = self.weighted_by_diamond()
        for n in WEIGHTED_N:
            out[f"matchings.weighted_pm_sum_s.n{n}"] = sum(r["self_s"] for r in rows if r["n"] == n)
        out["matchings.w_terms_max"] = max((r["w_terms"] for r in rows), default=0)
        out["laurent.result_terms_max"] = max(
            (s[4] for s in self.spans if s[0].startswith("laurent.") and s[4] is not None),
            default=0)
        graphs = [s[4] for s in self.spans if s[0] == "diamonds.build_diamond"]
        out["diamonds.vertices_max"] = max((g[0] for g in graphs), default=0)
        out["diamonds.edges_max"] = max((g[1] for g in graphs), default=0)
        out["cli.suite_self_s"] = sum(t for k, t in self_s.items() if k.startswith("cli.suite_"))
        out["cli.checks_total"] = sum(s[4] for s in self.spans if s[0].startswith("cli.suite_"))
        return {k: out[k] for k in LAYER_METRICS}
