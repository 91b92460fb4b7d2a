"""The dP3 brane tiling: a doubly periodic bipartite graph with six faces per
fundamental domain.

The lattice is the superposition of the triangular lattice (vertices P(a,b)
at a*(1,0) + b*(1/2, sqrt3/2)) with its dual hexagonal lattice.  Each unit
triangle is cut by its centroid and edge midpoints into three quadrilateral
kites, so a face is addressed by the triangle (a, b, up/down) plus a corner
index c in {0,1,2}:

    up triangle  U(a,b), corners P(a,b), P(a+1,b), P(a,b+1):
        c=0 kite at P(a,b),   c=1 at P(a+1,b),   c=2 at P(a,b+1)
    down triangle D(a,b), corners P(a+1,b), P(a,b+1), P(a+1,b+1):
        c=0 kite at P(a+1,b), c=1 at P(a,b+1),   c=2 at P(a+1,b+1)

Midpoint vertices are black, triangle vertices and centroids are white.
Every face boundary is a 4-cycle TriVertex - Midpoint - Centroid - Midpoint.

A face is its class (up, c) translated by (a, b), and so is its boundary.
``FACE_CLASSES``, derived once from ``_boundary_spec`` at the origin, is the
single source of a face's boundary edges and neighbours: the diamond builder,
the boundary counts, ``face_adjacency`` and ``face_corner_sum`` translate it.
``face_boundary`` spells one face out from ``_boundary_spec``, for drawing.

All coordinates are exact integers in 1/12 units of the lattice spacing
(sqrt3/2 scales to 6), which keeps sorting, rotation and orientation tests
free of floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

LABELS = (1, 2, 3, 4, 5, 6)


class Vertex(NamedTuple):
    kind: str  # 't' tri-vertex, 'c' centroid, 'm' midpoint
    a: int
    b: int
    tag: str  # '' / 'u','d' / 'E','N','D'


class Face(NamedTuple):
    a: int
    b: int
    up: bool
    c: int


class Edge(NamedTuple):
    u: Vertex
    v: Vertex
    faces: tuple[Face, Face]


def tri(a: int, b: int) -> Vertex:
    return Vertex("t", a, b, "")


def centroid(a: int, b: int, up: bool) -> Vertex:
    return Vertex("c", a, b, "u" if up else "d")


def midpoint(a: int, b: int, d: str) -> Vertex:
    return Vertex("m", a, b, d)


def vertex_coords(v: Vertex) -> tuple[int, int]:
    """Exact position in 1/12 lattice units."""
    base_x, base_y = 12 * v.a + 6 * v.b, 12 * v.b
    if v.kind == "t":
        return base_x, base_y
    if v.kind == "c":
        return (base_x + 6, base_y + 4) if v.tag == "u" else (base_x + 12, base_y + 8)
    if v.tag == "E":
        return base_x + 6, base_y
    if v.tag == "N":
        return base_x + 3, base_y + 6
    return base_x + 9, base_y + 6  # 'D'


def vertex_color(v: Vertex) -> str:
    return "black" if v.kind == "m" else "white"


def _edge(u: Vertex, v: Vertex, f: Face, g: Face) -> Edge:
    if v < u:
        u, v = v, u
    return Edge(u, v, (f, g) if f <= g else (g, f))


# Boundary cycle (TriVertex, Midpoint, Centroid, Midpoint) of each face class,
# and the neighboring face across each boundary edge, anchored at (a, b).
def _boundary_spec(f: Face):
    a, b = f.a, f.b
    if f.up:
        c_v = centroid(a, b, True)
        if f.c == 0:
            verts = (tri(a, b), midpoint(a, b, "E"), c_v, midpoint(a, b, "N"))
            nbrs = (Face(a, b - 1, False, 1), Face(a, b, True, 1),
                    Face(a, b, True, 2), Face(a - 1, b, False, 0))
        elif f.c == 1:
            verts = (tri(a + 1, b), midpoint(a, b, "D"), c_v, midpoint(a, b, "E"))
            nbrs = (Face(a, b, False, 0), Face(a, b, True, 2),
                    Face(a, b, True, 0), Face(a, b - 1, False, 2))
        else:
            verts = (tri(a, b + 1), midpoint(a, b, "N"), c_v, midpoint(a, b, "D"))
            nbrs = (Face(a - 1, b, False, 2), Face(a, b, True, 0),
                    Face(a, b, True, 1), Face(a, b, False, 1))
    else:
        c_v = centroid(a, b, False)
        if f.c == 0:
            verts = (tri(a + 1, b), midpoint(a + 1, b, "N"), c_v, midpoint(a, b, "D"))
            nbrs = (Face(a + 1, b, True, 0), Face(a, b, False, 2),
                    Face(a, b, False, 1), Face(a, b, True, 1))
        elif f.c == 1:
            verts = (tri(a, b + 1), midpoint(a, b + 1, "E"), c_v, midpoint(a, b, "D"))
            nbrs = (Face(a, b + 1, True, 0), Face(a, b, False, 2),
                    Face(a, b, False, 0), Face(a, b, True, 2))
        else:
            verts = (tri(a + 1, b + 1), midpoint(a + 1, b, "N"), c_v, midpoint(a, b + 1, "E"))
            nbrs = (Face(a + 1, b, True, 2), Face(a, b, False, 0),
                    Face(a, b, False, 1), Face(a, b + 1, True, 1))
    return verts, nbrs


def face_boundary(f: Face) -> tuple[tuple[Vertex, ...], tuple[Edge, ...]]:
    """The 4 boundary vertices in rotational order and the 4 boundary edges,
    each edge carrying its two incident faces in the infinite lattice."""
    verts, nbrs = _boundary_spec(f)
    edges = tuple(_edge(verts[i], verts[(i + 1) % 4], f, nbrs[i]) for i in range(4))
    return verts, edges


def _class_edges(up: bool, c: int) -> tuple[tuple[Vertex, Vertex, Face], ...]:
    verts, nbrs = _boundary_spec(Face(0, 0, up, c))
    return tuple((*sorted((verts[i], verts[(i + 1) % 4])), nbrs[i]) for i in range(4))


#: The six face classes at the origin: per class (up, c), its 4 boundary
#: edges in rotational order as ``(u, v, g)``, endpoints u < v and g the face
#: across the edge.  Translating a face by (a, b) moves its vertices and
#: neighbours by (a, b) and keeps each edge's endpoint order (the endpoints
#: differ in kind) and the classes, hence the labels, of its two faces.
FACE_CLASSES = {(up, c): _class_edges(up, c) for up in (True, False) for c in range(3)}
_CORNER_SUMS = {cls: tuple(sum(p) // 2 for p in zip(*(vertex_coords(v) for *uv, _ in edges
                                                           for v in uv)))  # 2 per vertex
                for cls, edges in FACE_CLASSES.items()}


def face_adjacency(f: Face) -> tuple[Face, ...]:
    """The 4 edge-adjacent faces, aligned with the boundary edges of f."""
    a, b = f.a, f.b
    return tuple([Face(a + ga, b + gb, up, c)
                  for _, _, (ga, gb, up, c) in FACE_CLASSES[f.up, f.c]])


def face_corner_sum(f: Face) -> tuple[int, int]:
    """Componentwise sum of the 4 boundary vertex coordinates (4x centroid)."""
    x, y = _CORNER_SUMS[f.up, f.c]
    return x + 48 * f.a + 24 * f.b, y + 48 * f.b


# ---------------------------------------------------------------------------
# Labeling and 180-degree rotation


#: The centre of the 180-degree rotation that realizes sigma on the lattice:
#: the midpoint of the (0,0) diagonal edge.
RHO_CENTER = (9, 6)


@dataclass(frozen=True)
class Labeling:
    """Bijective face labels per class."""

    up: tuple[int, int, int]
    down: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.up + self.down) != list(LABELS):
            raise ValueError(f"labels must be a bijection onto 1..6: {self.up}+{self.down}")

    def label(self, f: Face) -> int:
        return (self.up if f.up else self.down)[f.c]

    def class_of(self, label: int) -> tuple[bool, int]:
        if label in self.up:
            return True, self.up.index(label)
        return False, self.down.index(label)


def rotate180(f: Face) -> Face:
    """Image of f under the 180-degree rotation about ``RHO_CENTER``, in
    closed form: the rotation carries triangle (a, b) onto (-a, -b) of the
    other orientation and corner c onto corner 2 - c.

    The rotation maps up kites to down kites and carries a face with label i
    to one with label sigma(i) for any labeling whose antipodal label pairs
    sit on antipodal face classes.
    """
    return Face(-f.a, -f.b, not f.up, 2 - f.c)


# ---------------------------------------------------------------------------
# Blocks


class BlockSchemeError(ValueError):
    """A labeling admits no consistent block scheme."""


#: Label multisets of the four block types, keyed by their conventional names.
BLOCK_TYPES = {"254": (2, 5, 4), "316": (3, 1, 6), "214": (2, 1, 4), "356": (3, 5, 6)}


def _regime(b: int) -> tuple[str, str]:
    """The two block types that tile row b, alternating along the row."""
    return ("254", "316") if b <= 0 else ("214", "356")


def _derive_shape(classes: list[tuple[bool, int]]) -> dict[tuple[bool, int], int]:
    """Relative a-offsets realizing three face classes as a connected in-row
    triple; offsets are normalized to minimum 0.  Raises if disconnected."""
    offsets = {classes[0]: 0}
    frontier = [classes[0]]
    while frontier:
        cls = frontier.pop()
        for g in face_adjacency(Face(0, 0, *cls)):
            other = (g.up, g.c)
            if g.b == 0 and other in classes:  # a neighbour in the same triangle row
                pos = offsets[cls] + g.a
                if other not in offsets:
                    offsets[other] = pos
                    frontier.append(other)
                elif offsets[other] != pos:
                    raise BlockSchemeError(f"inconsistent in-row offsets for {classes}")
    if len(offsets) != 3:
        raise BlockSchemeError(f"classes {classes} are not in-row connected")
    shift = min(offsets.values())
    return {k: v - shift for k, v in offsets.items()}


class BlockScheme:
    """The partition of the lattice faces into blocks T(i, j).

    Rows b <= 0 are tiled by [254]/[316] triples, rows b >= 1 by [214]/[356]
    triples; ``shapes`` holds each type's face classes with their relative
    a-offsets, and T(0,0) is the [254] block with unit index a = b = 0.
    T(i, j) has the closed form of ``block``, which calibration checks
    against the geometric block adjacency of ``_instance_neighbors``.
    """

    def __init__(self, labeling: Labeling, shapes: dict[str, dict[tuple[bool, int], int]]):
        self.labeling = labeling
        self.shapes = shapes

    @staticmethod
    def from_labeling(labeling: Labeling) -> "BlockScheme":
        shapes = {}
        for name, labels in BLOCK_TYPES.items():
            classes = [labeling.class_of(l) for l in labels]
            if len(set(classes)) != 3:
                raise BlockSchemeError(f"block [{name}] has repeated classes")
            shapes[name] = _derive_shape(classes)
        for pair in (("254", "316"), ("214", "356")):
            union = set(shapes[pair[0]]) | set(shapes[pair[1]])
            if len(union) != 6:
                raise BlockSchemeError(f"blocks {pair} do not tile a strip")
        return BlockScheme(labeling, shapes)

    def block_at_face(self, f: Face) -> tuple[str, int, int]:
        """The (type, a, b) of the unique block containing face f."""
        for name in _regime(f.b):
            da = self.shapes[name].get((f.up, f.c))
            if da is not None:
                return name, f.a - da, f.b
        raise BlockSchemeError(f"face {f} not covered in its row regime")

    def instance_faces(self, name: str, a: int, b: int) -> tuple[Face, ...]:
        return tuple(sorted(Face(a + da, b, up, c)
                            for (up, c), da in self.shapes[name].items()))

    def _instance_neighbors(self, name: str, a: int, b: int):
        members = set(self.instance_faces(name, a, b))
        found = []
        for f in members:
            for g in face_adjacency(f):
                if g not in members:
                    blk = self.block_at_face(g)
                    if blk not in found:
                        found.append(blk)
        same_row = sorted((blk for blk in found if blk[2] == b),
                          key=lambda blk: sum(face_corner_sum(m)[0]
                                              for m in self.instance_faces(*blk)))
        north = [blk for blk in found if blk[2] == b + 1]
        south = [blk for blk in found if blk[2] == b - 1]
        if len(same_row) != 2 or len(north) != 1 or len(south) != 1:
            raise BlockSchemeError(f"block {(name, a, b)} lacks 4-directional neighbors")
        return {"W": same_row[0], "E": same_row[1], "N": north[0], "S": south[0]}

    def block(self, i: int, j: int) -> tuple[str, int, int]:
        """Block T(i, j) as (type, a, b), in closed form: the parity rule's
        type, unit index a = (i - j + 1) // 2 and row b = j."""
        return expected_block_type(i, j), (i - j + 1) // 2, j

    def block_faces(self, i: int, j: int) -> tuple[Face, ...]:
        """The three faces of block T(i, j)."""
        return self.instance_faces(*self.block(i, j))

    def distinguished_square(self, label: int, i: int, j: int) -> Face:
        """The unique face with the given label inside block T(i, j)."""
        faces = [f for f in self.block_faces(i, j) if self.labeling.label(f) == label]
        if len(faces) != 1:
            raise BlockSchemeError(f"block T({i},{j}) has no unique label-{label} face")
        return faces[0]

    def s2(self) -> Face:
        return self.distinguished_square(2, 2, 0)

    def s3(self) -> Face:
        return self.distinguished_square(3, 1, 0)


def expected_block_type(i: int, j: int) -> str:
    """The parity rule for block types, validated at calibration time."""
    return _regime(j)[(i + j) % 2]


# ---------------------------------------------------------------------------
# Quiver duality


def _unit_cell_edges() -> Iterator[Edge]:
    """One representative edge per edge class: every edge has exactly one
    black (midpoint) endpoint, so the midpoints of cell (0,0) enumerate the
    twelve classes."""
    edge_map: dict[tuple[Vertex, Vertex], Edge] = {}
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for up in (True, False):
                for c in range(3):
                    for e in face_boundary(Face(a, b, up, c))[1]:
                        edge_map[(e.u, e.v)] = e
    cell_mids = {midpoint(0, 0, d) for d in "END"}
    for e in edge_map.values():
        black = e.u if e.u.kind == "m" else e.v
        if black in cell_mids:
            yield e


def quiver_from_tiling(labeling: Labeling) -> tuple[tuple[int, ...], ...]:
    """The exchange matrix dual to the tiling: one arrow per edge class,
    oriented so that, walking the edge white to black, the left face is the
    arrow's source."""
    b = [[0] * 6 for _ in range(6)]
    for e in _unit_cell_edges():
        white, black = (e.u, e.v) if e.u.kind != "m" else (e.v, e.u)
        wx, wy = vertex_coords(white)
        bx, by = vertex_coords(black)
        dx, dy = bx - wx, by - wy
        f, g = e.faces
        fx, fy = face_corner_sum(f)
        cross_f = dx * (fy - 4 * wy) - dy * (fx - 4 * wx)
        src, dst = (f, g) if cross_f > 0 else (g, f)
        s, t = labeling.label(src), labeling.label(dst)
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    return tuple(tuple(row) for row in b)
