"""Helpers used only by the tests: a polynomial parser and a term-by-term
formatter, and small graph and labeling predicates that the package itself
never needs."""

import contextlib
import random

from dp3 import quiver
from dp3.calibration import labeling_failures
from dp3.diamonds import DiamondGraph
from dp3.laurent import N_VARS, SIGMA, UNIT_KEY, LaurentPoly, label_exponents, pack_exponents
from dp3.tiling import Face, Labeling, face_boundary, vertex_coords

#: The labeling that the calibration search finds (the paper's); the tests'
#: ``scheme`` fixture is built from it directly.
CALIBRATED_LABELING = Labeling(up=(4, 6, 5), down=(1, 3, 2))

#: Five more bijective labelings, for the checks that hold under any one.
OTHER_LABELINGS = (
    Labeling(up=(1, 2, 3), down=(4, 5, 6)),
    Labeling(up=(6, 5, 4), down=(3, 2, 1)),
    Labeling(up=(2, 4, 6), down=(1, 3, 5)),
    Labeling(up=(5, 1, 3), down=(6, 2, 4)),
    Labeling(up=(3, 6, 1), down=(5, 4, 2)),
)
LABELINGS = (CALIBRATED_LABELING, *OTHER_LABELINGS)


def labeling_id(lab: Labeling) -> str:
    """A test id for a labeling: its up and down labels, e.g. ``465-132``."""
    return "".join(map(str, lab.up)) + "-" + "".join(map(str, lab.down))


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical grammar: poly := ['-'] term (('+'|'-') term)*.

    A term is an optional integer followed by whitespace-separated factors
    x<idx> or x<idx>^<int>.  Raises ParseError with the character position
    of the first offending token.
    """
    terms: dict[tuple[int, ...], int] = {}
    pos = 0
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int, int]:
        start = i
        if i < n and text[i] in "+-":
            i += 1
        if i >= n or not text[i].isdigit():
            raise ParseError("expected integer", start)
        while i < n and text[i].isdigit():
            i += 1
        return int(text[start:i]), i

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty input", 0)
    sign = 1
    if text[pos] == "-":
        sign = -1
        pos = skip_ws(pos + 1)
    first = True
    while True:
        if not first:
            pos = skip_ws(pos)
            if pos == n:
                break
            if text[pos] == "+":
                sign = 1
            elif text[pos] == "-":
                sign = -1
            else:
                raise ParseError("expected '+' or '-' between terms", pos)
            pos = skip_ws(pos + 1)
        first = False

        coeff = sign
        exps = [0] * N_VARS
        saw_factor = False
        pos = skip_ws(pos)
        if pos < n and (text[pos].isdigit()):
            v, pos = read_int(pos)
            coeff = sign * v
            saw_factor = True
        while True:
            pos = skip_ws(pos)
            if pos >= n or text[pos] != "x":
                break
            xpos = pos
            pos += 1
            if pos >= n or not text[pos].isdigit():
                raise ParseError("expected variable index after 'x'", xpos)
            idx = 0
            while pos < n and text[pos].isdigit():
                idx = idx * 10 + int(text[pos])
                pos += 1
            if not 1 <= idx <= N_VARS:
                raise ParseError(f"variable index {idx} out of range", xpos)
            e = 1
            if pos < n and text[pos] == "^":
                e, pos = read_int(pos + 1)
            exps[idx - 1] += e
            saw_factor = True
        if not saw_factor:
            raise ParseError("expected a term", pos if pos < n else n - 1)
        k = tuple(exps)
        terms[k] = terms.get(k, 0) + coeff
        pos = skip_ws(pos)
        if pos == n:
            break
    return LaurentPoly.from_exponent_terms(terms)


def format_poly_by_terms(p: LaurentPoly) -> str:
    """The canonical text form built term by term from unpacked exponent
    vectors, as ``laurent.format_poly`` did before it read the packed keys:
    the oracle that the fast formatter must match byte for byte."""
    if not p:
        return "0"
    parts: list[str] = []
    for exps, coeff in p.terms():
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e != 0:
                factors.append(f"x{i}^{e}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = " ".join(factors)
        if not parts:
            parts.append(f"-{term}" if coeff < 0 else term)
        else:
            parts.append(f"- {term}" if coeff < 0 else f"+ {term}")
    return " ".join(parts)


def mutate_matrix_by_cases(b, k: int):
    """Matrix mutation at node k (1-based) by the sign cases of b_ik and
    b_kj, as the definition states it: the oracle of the closed form."""
    k -= 1
    out = []
    for i in range(len(b)):
        row = []
        for j in range(len(b)):
            if i == k or j == k:
                row.append(-b[i][j])
            elif b[i][k] > 0 and b[k][j] > 0:
                row.append(b[i][j] + b[i][k] * b[k][j])
            elif b[i][k] < 0 and b[k][j] < 0:
                row.append(b[i][j] - b[i][k] * b[k][j])
            else:
                row.append(b[i][j])
        out.append(tuple(row))
    return tuple(out)


def x(i: int) -> LaurentPoly:
    """Shorthand for the generator x_i."""
    return LaurentPoly.var(i)


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
    kernel with a batch fold whose value is the number of steps taken."""
    from dp3.matchings import _frontier_sum

    sizes = [1] + [0] * len(sweep[0])
    total = [1]

    def fold(new, pairs, w):
        for mask, steps in pairs:
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


def line_sweep(graph: DiamondGraph, direction: tuple[int, int]):
    """The sweep of ``matchings._sweep(graph)`` with the reduced graph's
    vertices in straight-line order along ``direction`` instead of the
    greedy one, laid out by the package's own ``_layout``."""
    from dp3 import matchings

    points, edges = matchings._reduce(*matchings._points_edges(graph))
    return matchings._layout(points, edges, matchings._line_order(points, direction))


def greedy_order_by_definition(points: list, edges) -> list[int]:
    """The vertex order that ``matchings._min_frontier_order`` defines, with
    every score worked out from scratch at each step: among the unvisited
    neighbors of visited vertices, visit the one with the least *opens* (1
    if it has an unvisited neighbor) minus *closes* (the visited neighbors
    whose only unvisited neighbor it is), ties to the lower ``SWEEP`` rank;
    with no candidate, visit the lowest-ranked unvisited vertex."""
    from dp3.matchings import SWEEP, _line_order

    adj: list[set[int]] = [set() for _ in points]
    for i, j, _ in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    by_rank = _line_order(points, SWEEP)
    rank = {i: r for r, i in enumerate(by_rank)}
    visited: set[int] = set()
    out: list[int] = []

    def score(c: int) -> int:
        opens = bool(adj[c] - visited)
        return opens - sum(adj[u] - visited == {c} for u in adj[c] & visited)

    while len(out) < len(points):
        candidates = {c for u in visited for c in adj[u]} - visited
        if candidates:
            c = min(candidates, key=lambda c: (score(c), rank[c]))
        else:
            c = next(i for i in by_rank if i not in visited)
        visited.add(c)
        out.append(c)
    return out


def unpack_digits_by_loop(value: int, length: int, width: int):
    """The balanced-digit decoder that ``laurent.unpack_digits`` replaced,
    kept as its reference: |value|'s digits in [-256**width / 2,
    256**width / 2) from the least significant end, one digit at a time,
    carrying one into the next digit when a digit is lowered; None when it
    needs more than ``length`` digits.  Agrees with ``unpack_digits`` on
    every value whose digits all have magnitude below 256**width / 2."""
    sign = -1 if value < 0 else 1
    value = abs(value)
    if value.bit_length() > 8 * width * length:
        return None
    data = value.to_bytes(width * length, "little")
    full = 1 << 8 * width
    half, zero = full >> 1, bytes(width)
    positions, coeffs = [], []
    carry = 0
    for i in range(length):
        chunk = data[i * width:(i + 1) * width]
        if chunk == zero and not carry:
            continue
        d = int.from_bytes(chunk, "little") + carry
        carry = d >= half
        if carry:
            d -= full
        if d:
            positions.append(i)
            coeffs.append(sign * d)
    return None if carry else (positions, coeffs)


def matching_weight(graph: DiamondGraph, matching) -> LaurentPoly:
    """Product of the edge weights of one matching."""
    labels = (l for ei in matching for l in graph.edges[ei][2:])
    return LaurentPoly.monomial(1, label_exponents(labels, -1))


# the first cluster variables, y_1 and y'_1
Y1 = parse_poly("x1 x2^-1 x6 + x2^-1 x3 x5")
Y1P = parse_poly("x1 x4^-1 x6 + x3 x4^-1 x5")


@contextlib.contextmanager
def empty_recurrence_memo():
    """Run the block with ``recurrence_y``'s memo holding only its bases
    N = -2, -1, 0, so that it computes every y_N, N >= 1, it asks for, and
    cut the memo back to the bases after it, so that no value the block made
    (or planted) outlives it."""
    bases = {n: quiver._Y[n] for n in (-2, -1, 0)}

    def reset():
        quiver._Y.clear()
        quiver._Y.update(bases)

    reset()
    try:
        yield
    finally:
        reset()


def build_patch_by_faces(faces, scheme, half_order: int, primed: bool) -> DiamondGraph:
    """The graph carried by a set of faces, built face by face from
    ``tiling.face_boundary`` as ``diamonds.build_patch`` did before it read
    the class table: each face's four ``Edge`` objects, their labels sorted
    per edge.  The reference the template path is checked against."""
    lab = scheme.labeling
    face_set = frozenset(faces)
    verts = set()
    edges = {}
    for f in face_set:
        bverts, bedges = face_boundary(f)
        verts.update(bverts)
        for e in bedges:
            la, lb = sorted(lab.label(g) for g in e.faces)
            edges[(e.u, e.v)] = (la, lb)
    return DiamondGraph(
        half_order=half_order,
        primed=primed,
        faces=tuple(sorted((f, lab.label(f)) for f in face_set)),
        vertices=tuple(sorted(verts)),
        edges=tuple((u, v, la, lb) for (u, v), (la, lb) in sorted(edges.items())),
    )


def boundary_faces_by_edges(faces) -> frozenset:
    """The faces outside a set that share an edge with it, read off the
    edges of ``tiling.face_boundary``."""
    inside = frozenset(faces)
    return frozenset(g for f in inside for e in face_boundary(f)[1] for g in e.faces) - inside


def covering_monomial_by_faces(faces, scheme) -> LaurentPoly:
    """The faces of a set and their outside neighbours, each counted once by
    its label: the reference of ``diamonds.patch_covering_monomial``."""
    inside = frozenset(faces)
    labels = map(scheme.labeling.label, inside | boundary_faces_by_edges(inside))
    return LaurentPoly.monomial(1, label_exponents(labels))


def points_edges_by_edge(graph: DiamondGraph):
    """``matchings._points_edges`` with every edge's weight key worked out
    on its own: the reference of the one key per label pair."""
    points = [(*vertex_coords(v), v) for v in graph.vertices]
    index = {v: i for i, v in enumerate(graph.vertices)}
    return points, [(index[u], index[v], pack_exponents(label_exponents((la, lb), -1)) - UNIT_KEY)
                    for u, v, la, lb in graph.edges]


def random_patches(seed: int) -> list[frozenset]:
    """Face sets for the template checks: the empty set, one face of each
    class far from the origin (either sign), and scattered non-contiguous
    sets of 1 to 60 faces around the origin and at negative coordinates."""
    rng = random.Random(seed)
    classes = [(up, c) for up in (True, False) for c in range(3)]
    patches = [frozenset()]
    for up, c in classes:
        a, b = rng.choice((-1, 1)) * rng.randrange(500, 5000), rng.randrange(-5000, 5000)
        patches.append(frozenset({Face(a, b, up, c)}))
    for lo, hi in ((-6, 6), (-40, -25), (-15, 15)):
        for size in (1, 2, 5, 20, 60):
            patches.append(frozenset(
                Face(rng.randrange(lo, hi), rng.randrange(lo, hi), *rng.choice(classes))
                for _ in range(size)))
    return patches
