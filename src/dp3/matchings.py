"""Exact perfect matching counts and weighted matching sums on diamonds.

Both quantities come from one frontier dynamic program on a reduced graph.
Reduction (``_reduce``) merges a vertex that has edges to two distinct,
non-adjacent neighbors with both of them into one vertex, each neighbor's
other edges taking the weight of the edge to the other neighbor.  Every
perfect matching covers the degree-2 vertex by one of its two edges and
the other neighbor by one of that neighbor's other edges, so the
matchings of the two graphs correspond one to one, ``w(G) = w(G')``, and
every edge weight stays a monomial.  Contractions repeat until none
applies; at N=12 they leave 144 of 228 vertices.  The fixed reference
orders ``yx`` and ``xy`` sweep the graph as built, for checks.

Then the vertices are swept in a greedy order (``_min_frontier_order``).
The frontier is the set of swept vertices that still have unswept
neighbors; each step sweeps a neighbor of the swept part that widens the
frontier least, ties broken along the lattice direction ``SWEEP``.  A
state records, as a bitmask, which frontier vertices still await a
partner.  Diamond frontiers stay narrow, so the reachable state sets
remain small even for graphs with millions of matchings: at N=18 the peak
is 23 860 states, against 105 948 along ``SWEEP`` alone.  A vertex is
either matched to a pending earlier neighbor or deferred (if it still has
unseen neighbors); a state that would keep a vertex pending beyond its
last neighbor is pruned before it is folded (``_frontier_sum``).

The count attaches to every state the number of partial matchings.  The
weighted sum attaches one big integer: the state's polynomial of weights
after a Kronecker substitution, so that a transition is one shift and one
addition of Python integers instead of a loop over terms.  The substitution
is exact because of a standard dimer fact.  Orient every edge from one
colour class of the bipartite graph to the other; two partial matchings
covering the same vertices then differ by a chain with no boundary, i.e. by
a sum of closed alternating cycles.  The partial matchings of one state all
cover the swept vertices minus the pending ones, so their exponent vectors
lie in a single coset of the lattice ``L`` spanned by the alternating
weight sums around the fundamental cycles of a spanning forest
(``_difference_lattice``).  Projecting ``L`` onto its pivot
coordinates is injective, so a matching's exponent is determined by its
pivot exponents and by one representative matching.  The pivot exponents
are packed in a mixed radix whose digit widths are the ranges the perfect
matchings span, and every coefficient is stored in ``B`` bits, where ``B``
is the bit length of the matching count plus a sign bit, in whole bytes
(``weighted_pm_sum``).  The reduction keeps a bipartite graph bipartite,
so all of this holds on the reduced graph unchanged.  Results are exact and
independent of the sweep order and of the reduction.

Each sum is computed sequentially and deterministically, and never cached:
``dp3 verify`` takes each diamond's sum once, from the job queue that its
forked workers pull, and hands it to both the theorem and the condensation
identities (``cli``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .laurent import (UNIT_KEY, LaurentPoly, digit_bytes, echelon, label_exponents, lift_pivots,
                      pack_exponents, unpack_digits, unpack_key)
from .diamonds import RECURSION_FACTOR_LABELS, DiamondGraph, build_diamond, covering_monomial
from .tiling import BlockScheme, vertex_coords

#: The tie-break of the greedy sweep order: a vertex at ``(x, y) =
#: vertex_coords(v)`` ranks at ``2*x + 3*y``, ties broken by ``(x, y, v)``.
#: Of the six lattice axes of ``tiling.vertex_coords`` and their reverses,
#: it is the straight line that a search scoring all twelve picked for every
#: reduced diamond from N=7 to N=18, both primings.  The greedy order takes
#: 19-50 % fewer state-steps than this line at N=10..16.
SWEEP = (2, 3)

#: Fixed reference orders: by row then column, and by column then row.
SWEEP_ORDERS = {"yx": (0, 1), "xy": (1, 0)}

#: Bytes the packed pass of ``weighted_pm_sum`` may give one step of the
#: last pivot exponent: that pivot's mixed radix times the digit width.  A
#: state's integer spans this times the last pivot's range, and a sweep
#: holds hundreds to thousands of states.  Diamonds, whose lattices have
#: rank 2, need 14 bytes at N=5, 490 at N=16 and 1 036 at N=20.  The N=8
#: diamond with edge labels drawn at random has a rank-5 lattice and needs
#: 3e5 to 5e5, so its states would take gigabytes.
PACKED_BYTES_BUDGET = 1 << 16


class LimitExceededError(RuntimeError):
    """Enumeration would produce more matchings than the caller allowed."""


def _reduce(points: list, edges: list[tuple[int, int, int]]):
    """The graph with its degree-2 vertices contracted away, with the same
    weighted matching sum.  The graph comes as ``points``, its ``(x, y,
    vertex)`` triples, and ``edges``, triples ``(i, j, w)`` of two point
    indices and a weight key offset; so does the reduced one.

    A vertex ``v`` with edges to two distinct, non-adjacent neighbors ``a``
    (weight alpha) and ``b`` (beta) is merged with them into one vertex
    ``c``, which keeps ``v``'s point; every other edge of ``a`` takes a
    factor beta and every other edge of ``b`` a factor alpha.  This keeps
    ``w(G)``: a perfect matching either holds ``v``-``a`` and covers ``b``
    by another edge ``e`` of ``b``, or holds ``v``-``b`` and covers ``a``
    by another edge ``e`` of ``a``.  Either way it is the matching of the
    merged graph that covers ``c`` by ``e``, whose new weight carries the
    dropped edge's, and every matching of the merged graph arises once.
    Parallel edges this creates stay separate.  A vertex whose two edges go
    to one neighbor, or to two adjacent ones, is left alone, so the merged
    graph is bipartite exactly when the graph was, and one that is not is
    still rejected by ``_difference_lattice``.  Contractions repeat until
    none applies.
    """
    n = len(points)
    ends = [[i, j] for i, j, _ in edges]
    weight = [w for *_, w in edges]
    incident: list[dict[int, None]] = [{} for _ in range(n)]  # ordered sets of edges
    for e, (i, j) in enumerate(ends):
        incident[i][e] = incident[j][e] = None
    alive = [True] * n
    todo = list(range(n))
    while todo:
        v = todo.pop()
        if not alive[v] or len(incident[v]) != 2:
            continue
        ea, eb = incident[v]
        a, b = ends[ea][0] + ends[ea][1] - v, ends[eb][0] + ends[eb][1] - v
        if a == b or any(b in ends[f] for f in incident[a]):
            continue
        merged = {}
        for x, e, w in ((a, ea, weight[eb]), (b, eb, weight[ea])):
            del incident[x][e]
            for f in incident[x]:
                ends[f][ends[f].index(x)] = v
                weight[f] += w
                merged[f] = None
            alive[x] = False
        incident[v] = merged
        todo.append(v)
    kept = [i for i in range(n) if alive[i]]
    index = {i: k for k, i in enumerate(kept)}
    return ([points[i] for i in kept],
            [(index[ends[e][0]], index[ends[e][1]], weight[e])
             for e in sorted({e for i in kept for e in incident[i]})])


def _sweep(graph: DiamondGraph, order: str | None = None):
    """Vertex order plus, per vertex, its earlier neighbors (with weight key
    offsets) and the prune mask of vertices whose last neighbor it is; a
    vertex is in its own mask exactly when it has no later neighbor.

    ``order`` None sweeps the graph ``_reduce`` leaves in the order of
    ``_min_frontier_order``; a name in ``SWEEP_ORDERS`` sweeps the graph as
    built along its direction, so it is the reference the reduction and
    the greedy order are checked against.

    The prune mask is exact: a vertex whose last neighbor is the current
    one is matched now or never (see ``_frontier_sum``).
    """
    points, edges = _points_edges(graph)
    if order is None:
        points, edges = _reduce(points, edges)
        ranked = _min_frontier_order(points, edges)
    elif isinstance(order, str) and order in SWEEP_ORDERS:
        ranked = _line_order(points, SWEEP_ORDERS[order])
    else:
        raise ValueError(f"unknown sweep order {order!r}")
    return _layout(points, edges, ranked)


def _points_edges(graph: DiamondGraph):
    """The graph as ``_reduce`` takes it: its ``(x, y, vertex)`` points and
    its edges as triples of two point indices and a weight key offset."""
    points = [(*vertex_coords(v), v) for v in graph.vertices]
    index = {v: i for i, v in enumerate(graph.vertices)}
    return points, [(index[u], index[v], pack_exponents(label_exponents((la, lb), -1)) - UNIT_KEY)
                    for u, v, la, lb in graph.edges]


def _line_order(points: list, direction: tuple[int, int]) -> list[int]:
    """The point indices sorted along ``direction`` ``(a, b)``: a point at
    ``(x, y)`` goes at ``a*x + b*y``, ties broken by ``(x, y, vertex)``."""
    a, b = direction
    return [i for *_, i in sorted((a * x + b * y, x, y, v, i)
                                  for i, (x, y, v) in enumerate(points))]


def _min_frontier_order(points: list, edges: list[tuple[int, int, int]]) -> list[int]:
    """A greedy vertex order that keeps the frontier narrow: the point
    indices in the order visited.

    The frontier is the set of visited vertices with unvisited neighbors.
    Each step visits, among the unvisited neighbors of visited vertices,
    one that grows it least: its score is *opens* (1 if it still has
    unvisited neighbors) minus *closes* (the visited vertices whose last
    unvisited neighbor it is).  Ties go to the lower ``SWEEP`` rank; with
    no candidate, at the start or in a new component, the lowest-ranked
    unvisited vertex is visited.  Scores change only around the visited
    vertex, so they are kept in a heap with stale entries skipped.
    """
    n = len(points)
    by_rank = _line_order(points, SWEEP)
    rank = [0] * n
    for r, i in enumerate(by_rank):
        rank[i] = r
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j, _ in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    left = [len(a) for a in adj]  # unvisited neighbors
    closes = [0] * n
    visited = [False] * n
    heap: list[tuple[int, int, int]] = []
    out: list[int] = []
    first = 0  # no vertex before by_rank[first] is unvisited

    def score(c: int) -> int:
        return (left[c] > 0) - closes[c]

    def push(c: int) -> None:
        heappush(heap, (score(c), rank[c], c))

    def one_left(u: int) -> None:
        # visited u has one unvisited neighbor left, which now closes it
        w = next(w for w in adj[u] if not visited[w])
        closes[w] += 1
        push(w)

    while len(out) < n:
        while heap:
            s, _, c = heappop(heap)
            if not visited[c] and s == score(c):
                break
        else:
            while visited[by_rank[first]]:
                first += 1
            c = by_rank[first]
        visited[c] = True
        out.append(c)
        for u in adj[c]:
            left[u] -= 1
        for u in adj[c]:
            if not visited[u]:
                push(u)
            elif left[u] == 1:
                one_left(u)
        if left[c] == 1:
            one_left(c)
    return out


def _layout(points: list, edges: list[tuple[int, int, int]], ranked: list[int]):
    """The sweep of ``_sweep`` for the points visited in the order
    ``ranked``, a permutation of their indices."""
    pos = [0] * len(ranked)
    for p, i in enumerate(ranked):
        pos[i] = p
    verts = [points[i][2] for i in ranked]
    nv = len(verts)
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    last = list(range(nv))
    for i, j, w in edges:
        i, j = pos[i], pos[j]
        if i > j:
            i, j = j, i
        earlier[j].append((i, w))
        if j > last[i]:
            last[i] = j
    for lst in earlier:
        lst.sort()
    dead_at = [0] * nv
    for i, j in enumerate(last):
        # an isolated vertex can never be covered: its own step kills all states
        dead_at[j] |= 1 << i
    return verts, earlier, dead_at


def _reweigh(sweep, weight: dict[int, int]):
    """The same sweep with every edge's weight key offset ``w`` replaced by
    ``weight[w]``."""
    verts, earlier, dead_at = sweep
    return verts, [[(u, weight[w]) for u, w in back] for back in earlier], dead_at


def _frontier_sum(sweep, unit, fold):
    """The frontier sweep shared by the count and every weighted pass.

    ``sweep`` is what ``_sweep`` returns, possibly reweighed.  ``unit`` is
    the value of the empty partial matching.  ``fold(new, mask, value, w)``
    adds ``value``, times the edge weight ``w`` (0 when a vertex is
    deferred, adding no edge), into ``new[mask]``; it must never mutate
    ``value``.  Returns the value of the empty final frontier, or None when
    the graph has no perfect matching.

    A state is pruned before it is folded, which is exact: a vertex whose
    last neighbor is the current one must be matched to it now, and one
    step matches at most one pending vertex.  So a state holding two such
    vertices has no completion and is skipped, and one holding exactly one
    folds only the edges to it.
    """
    verts, earlier, dead_at = sweep
    states = {0: unit}
    for s in range(len(verts)):
        bit = 1 << s
        back, dead = earlier[s], dead_at[s]
        future = not dead & bit
        forced: dict[int, list[int]] = {}
        for u, w in back:
            if dead >> u & 1:
                forced.setdefault(1 << u, []).append(w)
        new: dict = {}
        for mask, value in states.items():
            doomed = mask & dead
            if doomed:
                # two or more doomed vertices find no entry
                for w in forced.get(doomed, ()):
                    fold(new, mask ^ doomed, value, w)
                continue
            if future:
                fold(new, mask | bit, value, 0)
            for u, w in back:
                if mask >> u & 1:
                    fold(new, mask & ~(1 << u), value, w)
        states = new
    return states.get(0)


def _add_count(new: dict[int, int], mask: int, count: int, w: int) -> None:
    new[mask] = new.get(mask, 0) + count


def _add_extremes(new: dict[int, tuple[int, int, int]], mask: int,
                  value: tuple[int, int, int], w: int) -> None:
    # value = (number of partial matchings, largest and smallest weight sum)
    old = new.get(mask)
    if old is None:
        new[mask] = (value[0], value[1] + w, value[2] + w) if w else value
    else:
        count, hi, lo = value
        hi += w
        lo += w
        count0, hi0, lo0 = old
        new[mask] = (count0 + count, hi if hi > hi0 else hi0, lo if lo < lo0 else lo0)


def _add_packed(new: dict[int, tuple[int, int]], mask: int, value: tuple[int, int],
                w: int) -> None:
    # a value (off, big) stands for big * 2**off: a polynomial in t = 2**B
    # whose lowest digit is the coefficient of t**(off // B); w is a shift
    # in bits, a multiple of B
    off, big = value
    off += w
    old = new.get(mask)
    if old is None:
        new[mask] = (off, big) if w else value
    elif off < old[0]:
        new[mask] = (off, big + (old[1] << old[0] - off))
    else:
        new[mask] = (old[0], old[1] + (big << off - old[0]))


def _difference_lattice(sweep) -> tuple[list[list[int]], list[int]]:
    """An echelon basis of the lattice spanned by the exponent differences of
    matchings covering the same vertices, and its pivot columns.

    A breadth-first forest over the sweep's edges colours the vertices +1/-1
    and gives each vertex the alternating weight sum along its tree path (+
    on an edge left from a +1 vertex, - from a -1 vertex), as a packed key
    offset.  Every non-tree edge closes a cycle whose alternating weight sum
    generates the lattice; integer row reduction turns the generators into
    an echelon basis.  Raises ValueError for a graph that is not bipartite.
    """
    verts, earlier, _ = sweep
    adj: list[list[tuple[int, int]]] = [[] for _ in verts]
    for j, back in enumerate(earlier):
        for i, w in back:
            adj[i].append((j, w))
            adj[j].append((i, w))
    side = [0] * len(verts)
    potential = [0] * len(verts)
    cycles = set()
    for root in range(len(verts)):
        if side[root]:
            continue
        side[root] = 1
        queue = [root]
        for u in queue:
            su, pu = side[u], potential[u]
            for v, w in adj[u]:
                step = pu + w if su > 0 else pu - w
                if not side[v]:
                    side[v], potential[v] = -su, step
                    queue.append(v)
                elif side[v] == su:
                    raise ValueError("the matching lattice needs a bipartite graph")
                else:
                    cycles.add(step - potential[v])
    return echelon(unpack_key(UNIT_KEY + c) for c in cycles)


def count_pm(graph: DiamondGraph, order: str | None = None) -> int:
    """The number of perfect matchings, exactly, swept in ``order`` (see
    ``_sweep``)."""
    return _frontier_sum(_sweep(graph, order), 1, _add_count) or 0


def weighted_pm_sum(graph: DiamondGraph, order: str | None = None) -> LaurentPoly:
    """Sum over perfect matchings of the product of edge weights 1/(x_a x_b).

    The empty graph has the single empty matching of weight 1.  One integer
    pass over the sweep comes first.  It yields the count, whose bit length
    plus a sign bit, rounded up to whole bytes, is the digit width ``B``: a
    state that can still be completed holds at most ``count`` partial
    matchings, and only such states feed the final one, so no digit that
    reaches the result ever carries into the next, and ``unpack_digits``
    (shared with the packed Laurent arithmetic) reads every digit back as
    its nonnegative coefficient.
    The pass also yields the lexicographically largest and smallest
    exponent of a perfect matching, which give the representative matching
    and the range of the first pivot exponent.  Each further pivot but the
    last, whose range the mixed radix does not need, takes one more such
    pass.  Before the packed pass, the last pivot's radix times the digit
    width must stay within ``PACKED_BYTES_BUDGET``, else ValueError is
    raised.  The packed pass then substitutes ``t = 2**B`` and
    ``x_p -> t**R_p`` for the pivot exponents, with mixed radices ``R``, so
    each state is one integer.
    Decoding reads the pivot exponents off each digit's position and lifts
    them to all six exponents through the lattice basis (``lift_pivots``,
    shared with the packed Laurent arithmetic), and the result carries that
    lattice, which every term has just been lifted through.  Raises
    ArithmeticError if the decoding is not exact: a pivot exponent is off
    the lattice, or the coefficients do not add up to the count, or the
    largest or smallest decoded exponent is not the integer pass's.
    """
    sweep = _sweep(graph, order)
    found = _frontier_sum(sweep, (1, 0, 0), _add_extremes)
    if found is None:
        return LaurentPoly.zero()
    count, top_key, bottom_key = found
    top, bottom = unpack_key(UNIT_KEY + top_key), unpack_key(UNIT_KEY + bottom_key)
    basis, pivots = _difference_lattice(sweep)
    exps = {w: unpack_key(w + UNIT_KEY) for back in sweep[1] for _, w in back}
    lows, widths = [], []
    for i, p in enumerate(pivots[:-1]):
        if i == 0:
            lo, hi = bottom[p], top[p]
        else:
            _, hi, lo = _frontier_sum(_reweigh(sweep, {w: e[p] for w, e in exps.items()}),
                                      (1, 0, 0), _add_extremes)
        lows.append(lo)
        widths.append(hi - lo + 1)
    radix = [1]
    for width in widths:
        radix.append(radix[-1] * width)
    width = digit_bytes(count)
    if radix[-1] * width > PACKED_BYTES_BUDGET:
        raise ValueError(f"the packed matching sum of a rank-{len(pivots)} lattice needs "
                         f"{radix[-1] * width} bytes per step of its last pivot exponent, "
                         f"over the budget of {PACKED_BYTES_BUDGET}")
    bits = 8 * width
    shift = {w: bits * sum(e[p] * r for p, r in zip(pivots, radix)) for w, e in exps.items()}
    off, big = _frontier_sum(_reweigh(sweep, shift), (0, 1), _add_packed)

    # digit i of big, read from the least significant end, is the
    # coefficient of t**(off // bits + i)
    rest, coeffs = unpack_digits(big, -(-big.bit_length() // bits), width)
    rest = [off // bits + i for i in rest]
    qs = []
    for low, width in zip(lows, widths):
        q = [low + (r - low) % width for r in rest]
        rest = [(r - x) // width for r, x in zip(rest, q)]
        qs.append(q)
    keys = lift_pivots(top, basis, pivots, qs + [rest])
    if keys is None:
        raise ArithmeticError("a decoded pivot exponent is off the lattice")
    terms = dict(zip(keys, coeffs))
    total = sum(terms.values())
    if total != count or max(terms) != UNIT_KEY + top_key or min(terms) != UNIT_KEY + bottom_key:
        raise ArithmeticError(f"decoded terms disagree with the integer pass: coefficients "
                              f"add up to {total} for {count} perfect matchings")
    return LaurentPoly(_raw=terms, _lattice=(basis, pivots))


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


def _matching_key(graph: DiamondGraph, matching: Matching) -> int:
    """The packed exponent key of a matching's weight."""
    return pack_exponents(label_exponents((l for ei in matching for l in graph.edges[ei][2:]), -1))


def aggregate_enumeration(graph: DiamondGraph, limit: int = 1 << 20) -> LaurentPoly:
    """Brute-force oracle: sum of matching weights over all matchings,
    collected by exponent key and made one polynomial at the end."""
    terms: dict[int, int] = {}
    for m in enumerate_pm(graph, limit):
        key = _matching_key(graph, m)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly(_raw=terms)


# ---------------------------------------------------------------------------
# Condensation identities


def condensation_diamonds(n: int) -> tuple[tuple[int, bool], ...]:
    """The six diamonds, as (half-order, primed), of the condensation identity
    at half-order N = n >= 3: big, center, then each pair of

        w(D_N) w(D_{N-3}) = w(D_{N-1}) w(D_{N-2}) mono1 + w(D'_{N-1}) w(D'_{N-2}) mono2,

    the center being empty at N = 3."""
    if n < 3:
        raise ValueError("condensation requires N >= 3")
    return (n, False), (n - 3, False), (n - 1, False), (n - 2, False), (n - 1, True), (n - 2, True)


def verify_condensation(n: int, sums: dict[tuple[int, bool], LaurentPoly]
                        ) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the identity at half-order N = n, with the six weighted
    sums taken from ``sums`` by (half-order, primed); the identity holds when
    they are equal."""
    big, center, a, b, ap, bp = (sums[d] for d in condensation_diamonds(n))
    mono1, mono2 = (LaurentPoly.monomial(1, label_exponents(labels, -1))
                    for labels in RECURSION_FACTOR_LABELS)
    return big * center, a * b * mono1 + ap * bp * mono2


def matchings_route_y(n: int, primed: bool, scheme: BlockScheme) -> LaurentPoly:
    """y_N (or y'_N) through the matching model: w(D_{N/2}) m(D_{N/2})."""
    if n < 1:
        raise ValueError("matching route defined for N >= 1")
    return weighted_pm_sum(build_diamond(n, primed, scheme)) * covering_monomial(n, primed, scheme)
