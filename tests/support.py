"""Helpers used only by the tests: small graph and labeling predicates that
the package itself never needs."""

from dp3.calibration import labeling_failures
from dp3.diamonds import DiamondGraph
from dp3.laurent import SIGMA
from dp3.tiling import Labeling


def sigma_vector(v) -> tuple[int, ...]:
    """A per-label vector with its entries moved by sigma."""
    v = tuple(v)
    out = [0] * 6
    for i in range(6):
        out[SIGMA(i + 1) - 1] = v[i]
    return tuple(out)


def is_connected(graph: DiamondGraph) -> bool:
    if not graph.vertices:
        return True
    adj: dict = {v: [] for v in graph.vertices}
    for u, v, _, _ in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {graph.vertices[0]}
    stack = [graph.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(graph.vertices)


def matching_covers(graph: DiamondGraph, matching) -> bool:
    """Whether the edge indices form a perfect matching of the graph."""
    seen = set()
    for ei in matching:
        u, v, _, _ = graph.edges[ei]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return len(seen) == len(graph.vertices)


def perturbation_failures(up, down) -> list[str]:
    """Like labeling_failures but accepting raw (possibly non-bijective)
    label tables, as produced by single-entry perturbations."""
    try:
        lab = Labeling(up=tuple(up), down=tuple(down))
    except ValueError as e:
        return [str(e)]
    return labeling_failures(lab)


class _OverLimit(Exception):
    pass


def sweep_stats(sweep, limit: int | None = None) -> tuple[int, int] | None:
    """State-steps and peak states of a frontier sweep: the number of states
    in each frontier from the first to the last, summed and at its largest,
    or None once the sum would pass ``limit``.  Runs the package's own
    kernel with a fold whose value is the number of steps taken."""
    from dp3.matchings import _frontier_sum

    sizes = [1] + [0] * len(sweep[0])
    total = [1]

    def fold(new, mask, steps, w):
        if mask not in new:
            new[mask] = steps + 1
            sizes[steps + 1] += 1
            total[0] += 1
            if limit is not None and total[0] > limit:
                raise _OverLimit

    try:
        _frontier_sum(sweep, 0, fold)
    except _OverLimit:
        return None
    return total[0], max(sizes)
