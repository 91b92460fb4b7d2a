"""Diamond subgraphs D_m and D'_m of the dP3 lattice, their face and
boundary statistics, and covering monomials.

Orders are half-integers m = N/2, handled as the integer N >= 0 throughout.
An integer-order diamond D_n is the Aztec-diamond-shaped union of blocks
T(i,j) with |i+n-1| + |j| <= n-1; the half-integer D_{n+1/2} adds a
staircase of blocks along the northeast boundary plus the two squares S_3
and S_2.  D_0 is empty and D_{1/2} is the single square S_2.  Primed
diamonds are the 180-degree rotation images, so their labels are the
sigma images of the unprimed ones.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

from .laurent import LaurentPoly
from .tiling import (
    FACE_CLASSES,
    BlockScheme,
    Face,
    Vertex,
    face_vertices,
    rotate180,
    vertex_color,
    vertex_coords,
)


def diamond_blocks(n: int) -> list[tuple[int, int]]:
    """Block indices of the integer-order diamond D_n."""
    out = []
    for j in range(-(n - 1), n):
        span = n - 1 - abs(j)
        for i in range(-(n - 1) - span, -(n - 1) + span + 1):
            out.append((i, j))
    return out


def half_step_blocks(n: int) -> list[tuple[int, int]]:
    """Extra block indices adjoined to D_n when passing to D_{n+1/2};
    overlaps D_n itself for n >= 3."""
    return [(i, j) for i in range(-n + 2, 2) for j in range(1, 2 - i + 1)]


def diamond_face_set(n: int, primed: bool, scheme: BlockScheme) -> frozenset[Face]:
    """All faces of the diamond with half-order N = n (order m = n/2)."""
    if n < 0:
        raise ValueError("half-order must be >= 0")
    if n == 0:
        faces: set[Face] = set()
    elif n == 1:
        faces = {scheme.s2()}
    elif n % 2 == 0:
        faces = set()
        for i, j in diamond_blocks(n // 2):
            faces.update(scheme.block_faces(i, j))
    else:
        k = (n - 1) // 2
        faces = set(diamond_face_set(n - 1, False, scheme))
        for i, j in half_step_blocks(k):
            faces.update(scheme.block_faces(i, j))
        faces.add(scheme.s3())
        faces.add(scheme.s2())
    return frozenset(map(rotate180, faces) if primed else faces)


class DiamondGraph(NamedTuple):
    """A finite patch of the lattice: the faces of one diamond together with
    every vertex and edge on their boundaries.  Each edge records the labels
    of its two incident faces in the infinite lattice (one of which may lie
    outside the diamond); the edge weight is 1/(x_a x_b)."""

    half_order: int
    primed: bool
    faces: tuple[tuple[Face, int], ...]
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex, int, int], ...]


def build_patch(faces: Iterable[Face], scheme: BlockScheme, half_order: int,
                primed: bool) -> DiamondGraph:
    """The graph carried by an arbitrary set of lattice faces.  Each face adds
    its class's 4 edges in ``FACE_CLASSES``, translated by its (a, b), under
    plain-tuple keys, with label pairs looked up once per class edge (they
    depend on the classes only); one ``Vertex`` is made per distinct vertex."""
    label = scheme.labeling.label
    face_set = frozenset(faces)
    template = {cls: [(u, v, tuple(sorted((label(Face(0, 0, *cls)), label(g)))))
                      for u, v, g in edges] for cls, edges in FACE_CLASSES.items()}
    edges = {}
    for a, b, up, c in face_set:
        for (uk, ua, ub, ut), (vk, va, vb, vt), labels in template[up, c]:
            edges[(uk, a + ua, b + ub, ut), (vk, a + va, b + vb, vt)] = labels
    vertex = {v: Vertex._make(v) for v in sorted({v for uv in edges for v in uv})}
    return DiamondGraph(
        half_order=half_order,
        primed=primed,
        faces=tuple(sorted((f, label(f)) for f in face_set)),
        vertices=tuple(vertex.values()),
        edges=tuple((vertex[u], vertex[v], la, lb) for (u, v), (la, lb) in sorted(edges.items())),
    )


def build_diamond(n: int, primed: bool, scheme: BlockScheme) -> DiamondGraph:
    """Assemble the diamond of half-order N = n as a concrete graph."""
    return build_patch(diamond_face_set(n, primed, scheme), scheme, n, primed)


def patch_face_vector(faces: Iterable[Face], scheme: BlockScheme) -> tuple[int, ...]:
    lab = scheme.labeling
    exps = [0] * 6
    for (up, c), k in Counter(f[2:] for f in faces).items():
        exps[(lab.up if up else lab.down)[c] - 1] += k
    return tuple(exps)


def patch_boundary_faces(inside: frozenset[Face]) -> set[tuple[int, int, bool, int]]:
    """The faces outside ``inside`` sharing an edge with it, from ``FACE_CLASSES``,
    as plain ``(a, b, up, c)`` tuples (equal to, and hashing as, their ``Face``)."""
    return {(a + ga, b + gb, g_up, gc) for a, b, up, c in inside
            for _, _, (ga, gb, g_up, gc) in FACE_CLASSES[up, c]} - inside


def patch_covering_monomial(faces: Iterable[Face], scheme: BlockScheme) -> LaurentPoly:
    inside = frozenset(faces)
    faces = inside | patch_boundary_faces(inside)
    return LaurentPoly.monomial(1, patch_face_vector(faces, scheme))


def face_vector(n: int, primed: bool, scheme: BlockScheme) -> tuple[int, ...]:
    """Count of diamond faces per label."""
    return patch_face_vector(diamond_face_set(n, primed, scheme), scheme)


def boundary_vector(n: int, primed: bool, scheme: BlockScheme) -> tuple[int, ...]:
    """Count of the distinct lattice faces outside the diamond sharing an
    edge with it, per label."""
    return patch_face_vector(patch_boundary_faces(diamond_face_set(n, primed, scheme)), scheme)


def covering_monomial(n: int, primed: bool, scheme: BlockScheme) -> LaurentPoly:
    """The monomial whose x_i exponent counts faces of the diamond and its
    neighbors labeled i.  D_0 is empty but is formally assigned x3 (x6 when
    primed) to make the recursions uniform."""
    if n == 0:
        return LaurentPoly.var(6 if primed else 3)
    return patch_covering_monomial(diamond_face_set(n, primed, scheme), scheme)


# -- closed forms (valid for N >= 2; the paper notes D_{1/2} is special) ----

def pm_count_closed(n: int) -> int:
    """|PM(D_{N/2})|: 2^(m(m+1)) at integer order, 2^((m+1/2)^2) at half."""
    return 2 ** ((n // 2) * (n // 2 + 1)) if n % 2 == 0 else 2 ** (((n + 1) // 2) ** 2)


def face_vector_closed(n: int) -> tuple[int, ...]:
    if n % 2 == 0:
        k = n // 2
        return (k * (k - 1), k * k, (k - 1) ** 2, k * k, k * (k - 1) + 1, (k - 1) ** 2)
    k = (n - 1) // 2
    return (k * k, k * (k + 1) + 1, k * (k - 1) + 1, k * (k + 1), k * k, k * (k - 1))


def boundary_vector_closed(n: int) -> tuple[int, ...]:
    if n % 2 == 0:
        k = n // 2
        return (k, 0, 3 * k, 0, k - 1, 3 * k - 1)
    k = (n - 1) // 2
    return (k + 1, 0, 3 * k, 0, k + 1, 3 * k + 1)


def covering_monomial_closed(n: int) -> LaurentPoly:
    """Closed form for m(D_{N/2}); also correct at N=0 and N=1."""
    if n % 2 == 0:
        k = n // 2
        exps = (k * k, k * k, k * k + k + 1, k * k, k * k, k * k + k)
    else:
        k = (n - 1) // 2
        exps = (k * k + k + 1, k * k + k + 1, (k + 1) ** 2, k * k + k, k * k + k + 1, (k + 1) ** 2)
    return LaurentPoly.monomial(1, exps)


# Factor labels shared by the weight and covering-monomial recursions: the
# unprimed pair's x1 x2 x3 x4 x5 x6 and the primed pair's x1 x2^2 x3^2 x5.
RECURSION_FACTOR_LABELS = ((1, 2, 3, 4, 5, 6), (1, 2, 2, 3, 3, 5))


# -- export -----------------------------------------------------------------

_JSON_SCHEMA_VERSION = 1


def _vertex_id(v: Vertex) -> str:
    if v.kind == "t":
        return f"t({v.a},{v.b})"
    if v.kind == "c":
        return f"c{v.tag}({v.a},{v.b})"
    return f"m{v.tag}({v.a},{v.b})"


def _draw_xy(v: Vertex) -> tuple[float, float]:
    x, y = vertex_coords(v)
    return round(x / 12, 6), round(y * math.sqrt(3) / 2 / 12, 6)


def graph_to_json(g: DiamondGraph) -> str:
    import json  # only here: the other renderers never load it
    doc = {
        "schema_version": _JSON_SCHEMA_VERSION,
        "half_order": g.half_order,
        "primed": g.primed,
        "faces": [
            {"a": f.a, "b": f.b, "o": "up" if f.up else "down", "c": f.c, "label": lbl}
            for f, lbl in g.faces
        ],
        "vertices": [
            {"id": _vertex_id(v), "color": vertex_color(v),
             "x": _draw_xy(v)[0], "y": _draw_xy(v)[1]}
            for v in g.vertices
        ],
        "edges": [
            {"u": _vertex_id(u), "v": _vertex_id(v), "labels": [la, lb]}
            for u, v, la, lb in g.edges
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def graph_to_dot(g: DiamondGraph) -> str:
    lines = [f'graph "D_{g.half_order}of2{"_primed" if g.primed else ""}" {{']
    for v in g.vertices:
        x, y = _draw_xy(v)
        shape = "point" if vertex_color(v) == "black" else "circle"
        lines.append(f'  "{_vertex_id(v)}" [shape={shape}, pos="{x},{y}!"];')
    for u, v, la, lb in g.edges:
        lines.append(f'  "{_vertex_id(u)}" -- "{_vertex_id(v)}" [label="1/(x{la} x{lb})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_FACE_FILL = {1: "#d7e8f7", 2: "#f7d7d7", 3: "#d7f7dd", 4: "#f7f0d7", 5: "#e8d7f7", 6: "#d7f4f7"}


def graph_to_svg(g: DiamondGraph) -> str:
    scale = 48.0
    pts = {v: _draw_xy(v) for v in g.vertices}
    if pts:
        xs = [p[0] for p in pts.values()]
        ys = [p[1] for p in pts.values()]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    pad = 0.4
    w = (x1 - x0 + 2 * pad) * scale
    h = (y1 - y0 + 2 * pad) * scale

    def sxy(v: Vertex) -> tuple[float, float]:
        x, y = pts[v]
        return round((x - x0 + pad) * scale, 2), round((y1 - y + pad) * scale, 2)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
           f'viewBox="0 0 {w:.2f} {h:.2f}">']
    for f, lbl in g.faces:
        cyc = face_vertices(f)
        path = " ".join(f"{sxy(v)[0]},{sxy(v)[1]}" for v in cyc)
        out.append(f'  <polygon points="{path}" fill="{_FACE_FILL[lbl]}" stroke="none"/>')
        cx = sum(sxy(v)[0] for v in cyc) / 4
        cy = sum(sxy(v)[1] for v in cyc) / 4
        out.append(f'  <text x="{cx:.2f}" y="{cy + 4:.2f}" font-size="12" '
                   f'text-anchor="middle" fill="#333">{lbl}</text>')
    for u, v, _, _ in g.edges:
        (ux, uy), (vx, vy) = sxy(u), sxy(v)
        out.append(f'  <line x1="{ux}" y1="{uy}" x2="{vx}" y2="{vy}" '
                   f'stroke="#444" stroke-width="1.5"/>')
    for v in g.vertices:
        x, y = sxy(v)
        fill = "#000" if vertex_color(v) == "black" else "#fff"
        out.append(f'  <circle cx="{x}" cy="{y}" r="3.5" fill="{fill}" stroke="#000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
