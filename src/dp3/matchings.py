"""Exact perfect matching counts and weighted matching sums on diamonds.

Both quantities come from one frontier dynamic program: vertices are swept in
a fixed planar order and a state records, as a bitmask, which already-seen
vertices still await a partner across the sweep line.  Diamond frontiers
stay narrow, so the reachable state sets remain small even for graphs with
millions of matchings.  A vertex is either matched to a pending earlier
neighbor or deferred (if it still has unseen neighbors); states keeping a
vertex pending beyond its last neighbor are pruned.

The count attaches to every state the number of partial matchings, the
weighted sum their Laurent polynomial of weights, held as a raw packed-key
dict for speed.  Results are
exact and independent of the sweep order; the computation is purely
sequential and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import UNIT_KEY, LaurentPoly, label_exponents, pack_exponents
from .diamonds import DiamondGraph, build_diamond, covering_monomial
from .tiling import BlockScheme, vertex_coords

SWEEP_ORDERS = ("yx", "xy")


class LimitExceededError(RuntimeError):
    """Enumeration would produce more matchings than the caller allowed."""


def _sweep(graph: DiamondGraph, order: str):
    """Vertex order plus, per vertex, its earlier neighbors (with weight key
    offsets), whether it has later neighbors, and the prune mask of vertices
    whose last neighbor it is."""
    if order not in SWEEP_ORDERS:
        raise ValueError(f"unknown sweep order {order!r}")
    if order == "yx":
        key = lambda v: (vertex_coords(v)[1], vertex_coords(v)[0], v)
    else:
        key = lambda v: (vertex_coords(v)[0], vertex_coords(v)[1], v)
    verts = sorted(graph.vertices, key=key)
    index = {v: i for i, v in enumerate(verts)}
    nv = len(verts)
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    last_nbr = [-1] * nv
    has_future = [False] * nv
    for u, v, la, lb in graph.edges:
        i, j = index[u], index[v]
        if i > j:
            i, j = j, i
        w = pack_exponents(label_exponents((la, lb), -1)) - UNIT_KEY
        earlier[j].append((i, w))
        has_future[i] = True
        last_nbr[i] = max(last_nbr[i], j)
        last_nbr[j] = max(last_nbr[j], j)
    for lst in earlier:
        lst.sort()
    dead_at = [0] * nv
    for i, last in enumerate(last_nbr):
        if last >= 0:
            dead_at[last] |= 1 << i
        # isolated vertices can never be covered; their step kills all states
        if last < 0:
            dead_at[i] |= 1 << i
    return verts, earlier, has_future, dead_at


def _frontier_sum(graph: DiamondGraph, order: str, unit, fold):
    """The frontier sweep shared by the count and the weighted sum.

    ``unit`` is the value of the empty partial matching.  ``fold(new, mask,
    value, w)`` adds ``value``, times the edge weight with packed key offset
    ``w`` (0 when a vertex is deferred, adding no edge), into ``new[mask]``;
    it must never mutate ``value``.  Returns the value of the empty final
    frontier, or None when the graph has no perfect matching.
    """
    verts, earlier, has_future, dead_at = _sweep(graph, order)
    states = {0: unit}
    for s in range(len(verts)):
        bit = 1 << s
        future, back = has_future[s], earlier[s]
        new: dict = {}
        for mask, value in states.items():
            if future:
                fold(new, mask | bit, value, 0)
            for u, w in back:
                if mask >> u & 1:
                    fold(new, mask & ~(1 << u), value, w)
        if dead_at[s]:
            d = dead_at[s]
            new = {m: v for m, v in new.items() if not (m & d)}
        states = new
    return states.get(0)


def _add_count(new: dict[int, int], mask: int, count: int, w: int) -> None:
    new[mask] = new.get(mask, 0) + count


def _add_shifted(new: dict[int, dict[int, int]], mask: int, poly: dict[int, int],
                 w: int) -> None:
    tgt = new.get(mask)
    if tgt is None:
        new[mask] = {k + w: c for k, c in poly.items()} if w else dict(poly)
        return
    for k, c in poly.items():
        k += w
        v = tgt.get(k, 0) + c
        if v:
            tgt[k] = v
        else:
            del tgt[k]


def count_pm(graph: DiamondGraph, order: str = "yx") -> int:
    """The number of perfect matchings, exactly."""
    return _frontier_sum(graph, order, 1, _add_count) or 0


def weighted_pm_sum(graph: DiamondGraph, order: str = "yx") -> LaurentPoly:
    """Sum over perfect matchings of the product of edge weights 1/(x_a x_b).

    The empty graph has the single empty matching of weight 1.
    """
    return LaurentPoly(_frontier_sum(graph, order, {UNIT_KEY: 1}, _add_shifted) or {})


Matching = tuple[tuple[int, ...], ...]  # sorted edge indices into graph.edges


def enumerate_pm(graph: DiamondGraph, limit: int = 1 << 20) -> list[Matching]:
    """Exhaustive backtracking enumeration, branching on the lowest-index
    uncovered vertex; deterministic order.  Raises LimitExceededError once
    more than ``limit`` matchings would be produced."""
    nv = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    incident: list[list[tuple[int, int]]] = [[] for _ in range(nv)]  # (other, edge_idx)
    for ei, (u, v, _, _) in enumerate(graph.edges):
        iu, iv = index[u], index[v]
        incident[iu].append((iv, ei))
        incident[iv].append((iu, ei))
    for lst in incident:
        lst.sort()
    covered = [False] * nv
    chosen: list[int] = []
    out: list[Matching] = []

    def rec(start: int) -> None:
        v = start
        while v < nv and covered[v]:
            v += 1
        if v == nv:
            if len(out) >= limit:
                raise LimitExceededError(f"more than {limit} perfect matchings")
            out.append(tuple(sorted(chosen)))
            return
        covered[v] = True
        for u, ei in incident[v]:
            if not covered[u]:
                covered[u] = True
                chosen.append(ei)
                rec(v + 1)
                chosen.pop()
                covered[u] = False
        covered[v] = False

    rec(0)
    return out


def matching_weight(graph: DiamondGraph, matching: Matching) -> LaurentPoly:
    """Product of the edge weights of one matching."""
    labels = (l for ei in matching for l in graph.edges[ei][2:])
    return LaurentPoly.monomial(1, label_exponents(labels, -1))


def matching_covers(graph: DiamondGraph, matching: Matching) -> bool:
    seen = set()
    for ei in matching:
        u, v, _, _ = graph.edges[ei]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return len(seen) == len(graph.vertices)


def aggregate_enumeration(graph: DiamondGraph, limit: int = 1 << 20) -> LaurentPoly:
    """Brute-force oracle: sum of matching weights over all matchings."""
    total = LaurentPoly.zero()
    for m in enumerate_pm(graph, limit):
        total = total + matching_weight(graph, m)
    return total


# ---------------------------------------------------------------------------
# Condensation identities


@dataclass(frozen=True)
class CondensationInstance:
    """One bilinear matching-weight identity: the graphs and monomial factors
    of w(big) w(center) = w(p1a) w(p1b) mono1 + w(p2a) w(p2b) mono2."""

    n: int
    kind: int
    big: DiamondGraph
    center: DiamondGraph
    pair1: tuple[DiamondGraph, DiamondGraph, LaurentPoly]
    pair2: tuple[DiamondGraph, DiamondGraph, LaurentPoly]


def condensation_instance(n: int, kind: int, scheme: BlockScheme | None = None) -> CondensationInstance:
    """The kind-1 identity relates D_n D_{n-3/2} to D_{n-1/2} D_{n-1} and
    their primed mates (n >= 2); kind 2 relates D_{n+1/2} D_{n-1} to
    D_n D_{n-1/2} and mates (n >= 1, the center being empty at n = 1)."""
    if kind == 1:
        if n < 2:
            raise ValueError("kind-1 condensation requires n >= 2")
        big, center = build_diamond(2 * n, False, scheme), build_diamond(2 * n - 3, False, scheme)
        a, b = 2 * n - 1, 2 * n - 2
        mono1 = LaurentPoly.monomial(1, label_exponents((1, 2, 3, 4, 5, 6), -1))
    elif kind == 2:
        if n < 1:
            raise ValueError("kind-2 condensation requires n >= 1")
        big, center = build_diamond(2 * n + 1, False, scheme), build_diamond(2 * n - 2, False, scheme)
        a, b = 2 * n, 2 * n - 1
        mono1 = LaurentPoly.monomial(1, label_exponents((1, 3, 2, 6, 4, 5), -1))
    else:
        raise ValueError("kind must be 1 or 2")
    mono2 = LaurentPoly.monomial(1, label_exponents((1, 2, 2, 3, 3, 5), -1))
    return CondensationInstance(
        n=n,
        kind=kind,
        big=big,
        center=center,
        pair1=(build_diamond(a, False, scheme), build_diamond(b, False, scheme), mono1),
        pair2=(build_diamond(a, True, scheme), build_diamond(b, True, scheme), mono2),
    )


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    lhs: LaurentPoly
    rhs: LaurentPoly

    def diff(self) -> LaurentPoly:
        return self.lhs - self.rhs


def verify_condensation(inst: CondensationInstance) -> VerifyResult:
    """Check the identity with all six weighted sums computed independently."""
    lhs = weighted_pm_sum(inst.big) * weighted_pm_sum(inst.center)
    rhs = LaurentPoly.zero()
    for ga, gb, mono in (inst.pair1, inst.pair2):
        rhs = rhs + weighted_pm_sum(ga) * weighted_pm_sum(gb) * mono
    return VerifyResult(lhs == rhs, lhs, rhs)


def matchings_route_y(n: int, primed: bool = False,
                      scheme: BlockScheme | None = None) -> LaurentPoly:
    """y_N (or y'_N) through the matching model: w(D_{N/2}) m(D_{N/2})."""
    if n < 1:
        raise ValueError("matching route defined for N >= 1")
    graph = build_diamond(n, primed, scheme)
    return weighted_pm_sum(graph) * covering_monomial(n, primed, scheme)
