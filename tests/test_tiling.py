"""Lattice structure, labeling constraints, block scheme, and calibration."""

import itertools

import pytest

from dp3 import calibration
from dp3.calibration import (
    CalibrationError,
    _octahedral_ok,
    _rho_sigma_ok,
    calibrate,
    default_scheme,
    labeling_failures,
)
from dp3.laurent import SIGMA
from dp3.quiver import B0
from dp3.tiling import (
    RHO_CENTER,
    BlockScheme,
    Face,
    Labeling,
    _boundary_spec,
    expected_block_type,
    face_adjacency,
    face_boundary,
    face_corner_sum,
    quiver_from_tiling,
    rotate180,
    vertex_color,
    vertex_coords,
)
from support import perturbation_failures

WINDOW = [Face(a, b, up, c)
          for a in range(-3, 3) for b in range(-2, 3)
          for up in (True, False) for c in range(3)]


class TestLatticeGraph:
    def test_boundary_is_alternating_4_cycle(self):
        for f in WINDOW[:24]:
            verts, edges = face_boundary(f)
            assert len(verts) == 4 and len(edges) == 4
            colors = [vertex_color(v) for v in verts]
            assert colors == ["white", "black", "white", "black"]

    def test_boundary_order_tri_mid_centroid_mid(self):
        kinds = [v.kind for v in face_boundary(Face(0, 0, True, 0))[0]]
        assert kinds == ["t", "m", "c", "m"]

    def test_translated_base_faces_match_the_boundary_spec(self):
        # face_adjacency and face_corner_sum translate the six base faces;
        # _boundary_spec writes out every face's boundary directly
        for a, b in itertools.product(range(-4, 5), repeat=2):
            for up in (True, False):
                for c in range(3):
                    f = Face(a, b, up, c)
                    verts, nbrs = _boundary_spec(f)
                    coords = [vertex_coords(v) for v in verts]
                    assert face_adjacency(f) == nbrs, f
                    assert face_corner_sum(f) == (sum(x for x, _ in coords),
                                                  sum(y for _, y in coords)), f

    def test_adjacency_symmetric(self):
        for f in WINDOW:
            for g in face_adjacency(f):
                assert f in face_adjacency(g)

    def test_each_edge_shared_with_one_other_face(self):
        f = Face(0, 0, False, 1)
        for e in face_boundary(f)[1]:
            assert f in e.faces
            (other,) = [g for g in e.faces if g != f]
            assert other in face_adjacency(f)

    def test_infinite_lattice_degrees(self):
        # collect all edges touching the cell (0,0) vertices from a window
        incident = {}
        for f in WINDOW:
            for e in face_boundary(f)[1]:
                for v in (e.u, e.v):
                    incident.setdefault(v, set()).add((e.u, e.v))
        assert len(incident[("t", 0, 0, "")]) == 6
        assert len(incident[("c", 0, 0, "u")]) == 3
        assert len(incident[("c", 0, 0, "d")]) == 3
        for d in "END":
            assert len(incident[("m", 0, 0, d)]) == 4

    def test_fundamental_domain_counts(self):
        # 6 faces, 12 edge classes, 3 black + 3 white vertex classes: V-E+F=0
        from dp3.tiling import _unit_cell_edges

        edges = list(_unit_cell_edges())
        assert len(edges) == 12
        cm = sum(1 for e in edges if (e.u.kind, e.v.kind).count("c"))
        assert cm == 6  # centroid-midpoint edges; the rest are trivertex halves
        blacks = {e.u if e.u.kind == "m" else e.v for e in edges}
        whites = {(v.kind, v.tag) for e in edges for v in (e.u, e.v) if v.kind != "m"}
        assert len(blacks) == 3 and len(whites) == 3
        assert 6 - 12 + 6 == 0  # V - E + F on the torus quotient

    def test_coordinates_injective(self):
        owner = {}
        for f in WINDOW:
            for v in face_boundary(f)[0]:
                assert owner.setdefault(vertex_coords(v), v) == v


class TestLabeling:
    def test_label_2_neighbors(self, scheme):
        lab = scheme.labeling
        two = next(f for f in WINDOW if lab.label(f) == 2)
        assert sorted(lab.label(g) for g in face_adjacency(two)) == [1, 3, 5, 6]

    def test_no_antipodal_neighbors(self, scheme):
        lab = scheme.labeling
        for f in WINDOW:
            banned = SIGMA(lab.label(f))
            assert banned not in [lab.label(g) for g in face_adjacency(f)]

    def test_label_adjacency_is_octahedron(self, scheme):
        lab = scheme.labeling
        adj = set()
        for up in (True, False):
            for c in range(3):
                f = Face(0, 0, up, c)
                adj.update(frozenset((lab.label(f), lab.label(g)))
                           for g in face_adjacency(f))
        missing = {frozenset((i, SIGMA(i))) for i in (1, 2, 3)}
        complete = {frozenset(p) for p in itertools.combinations(range(1, 7), 2)}
        assert adj == complete - missing

    def test_translation_invariance(self, scheme):
        lab = scheme.labeling
        for up in (True, False):
            for c in range(3):
                labels = {lab.label(Face(a, b, up, c))
                          for a in (-2, 0, 5) for b in (-1, 0, 3)}
                assert len(labels) == 1


class TestRotation:
    def test_involution(self):
        for f in WINDOW:
            assert rotate180(rotate180(f)) == f

    def test_swaps_orientation(self):
        for f in WINDOW:
            assert rotate180(f).up != f.up

    def test_relabels_by_sigma(self, scheme):
        lab = scheme.labeling
        for f in WINDOW:
            assert lab.label(rotate180(f)) == SIGMA(lab.label(f))

    def test_conjugates_adjacency(self):
        for f in WINDOW[:24]:
            fr = rotate180(f)
            assert sorted(face_adjacency(fr)) == sorted(
                rotate180(g) for g in face_adjacency(f))

    def test_turns_the_boundary_about_the_center(self):
        # the closed form against forward geometry: the image's corners are
        # the face's corners turned 180 degrees about RHO_CENTER
        cx, cy = RHO_CENTER
        for f in WINDOW:
            turned = sorted((2 * cx - x, 2 * cy - y)
                            for x, y in map(vertex_coords, face_boundary(f)[0]))
            assert sorted(map(vertex_coords, face_boundary(rotate180(f))[0])) == turned, f


class TestBlocks:
    def test_anchor_block_labels(self, scheme):
        labels = sorted(scheme.labeling.label(f) for f in scheme.block_faces(0, 0))
        assert labels == [2, 4, 5]

    @pytest.mark.parametrize("ij, want", [
        ((0, 0), [2, 4, 5]),
        ((-1, 1), [1, 2, 4]),
        ((-1, 0), [1, 3, 6]),
    ])
    def test_block_faces_examples(self, scheme, ij, want):
        got = sorted(scheme.labeling.label(f) for f in scheme.block_faces(*ij))
        assert got == want

    def test_type_parity_rule(self, scheme):
        # the faces of T(i, j) carry the labels of [254] / [316] in rows
        # j <= 0 and of [214] / [356] above, by the parity of i + j
        for i in range(-9, 5):
            for j in range(-4, 5):
                even, odd = ((2, 4, 5), (1, 3, 6)) if j <= 0 else ((1, 2, 4), (3, 5, 6))
                labels = tuple(sorted(scheme.labeling.label(f) for f in scheme.block_faces(i, j)))
                assert labels == (even if (i + j) % 2 == 0 else odd), (i, j)

    def test_blocks_partition_faces(self, scheme):
        seen = {}
        for i in range(-4, 4):
            for j in range(-2, 3):
                for f in scheme.block_faces(i, j):
                    assert f not in seen, f"face {f} in two blocks"
                    seen[f] = (i, j)
        # the walked region is simply connected: no face skipped inside it
        inner = [f for f in WINDOW if f in seen]
        assert len(inner) > 60

    def test_four_directional_neighbors(self, scheme):
        nbrs = scheme._instance_neighbors(*scheme.block(0, 0))
        assert set(nbrs) == {"N", "S", "E", "W"}
        assert nbrs["E"] == scheme.block(1, 0)
        assert nbrs["N"] == scheme.block(0, 1)

    def test_closed_form_matches_geometry(self, scheme):
        block = scheme.block
        for i in range(-30, 11):
            for j in range(-15, 16):
                want = {"N": block(i, j + 1), "S": block(i, j - 1),
                        "E": block(i + 1, j), "W": block(i - 1, j)}
                assert scheme._instance_neighbors(*block(i, j)) == want, (i, j)

    def test_deep_block_index(self, scheme):
        # T(i - 2k, j) is T(i, j) translated by -k lattice units along a
        shifted = sorted(Face(f.a - 2500, f.b, f.up, f.c) for f in scheme.block_faces(0, 3))
        assert list(scheme.block_faces(-5000, 3)) == shifted

    def test_block_multiplicities_in_diamonds(self, scheme):
        from dp3.diamonds import diamond_blocks

        for n in range(1, 7):
            types = [scheme.block(i, j)[0] for i, j in diamond_blocks(n)]
            want = {
                "254": n * (n + 1) // 2,
                "316": n * (n - 1) // 2,
                "214": n * (n - 1) // 2,
                "356": (n - 1) * (n - 2) // 2,
            }
            assert {t: types.count(t) for t in want} == want

    def test_distinguished_squares(self, scheme):
        assert scheme.labeling.label(scheme.s2()) == 2
        assert scheme.labeling.label(scheme.s3()) == 3
        assert scheme.s2() in scheme.block_faces(2, 0)
        assert scheme.s3() in scheme.block_faces(1, 0)


class TestQuiverDuality:
    def test_matches_b0_up_to_global_sign(self, scheme):
        dual = quiver_from_tiling(scheme.labeling)
        neg = tuple(tuple(-v for v in row) for row in dual)
        assert dual == B0 or neg == B0

    def test_twelve_arrows(self, scheme):
        dual = quiver_from_tiling(scheme.labeling)
        assert sum(1 for row in dual for v in row if v > 0) == 12

    def test_antipodal_columns_sigma_related(self, scheme):
        dual = quiver_from_tiling(scheme.labeling)
        s = [SIGMA(i) - 1 for i in range(1, 7)]
        for j in range(6):
            for i in range(6):
                assert dual[s[i]][s[j]] == dual[i][j]


class TestCalibration:
    def test_unique_survivor(self, scheme):
        fresh = calibrate()
        assert fresh.labeling == scheme.labeling
        assert fresh.shapes == scheme.shapes

    def test_default_scheme_is_calibrated_once(self, monkeypatch):
        assert default_scheme() is default_scheme()
        searches = []

        def counting():
            searches.append(None)
            return calibrate()

        monkeypatch.setattr(calibration, "calibrate", counting)
        default_scheme.cache_clear()
        assert default_scheme() is default_scheme()
        assert len(searches) == 1

    def test_calibrated_half_diamond_weights(self, scheme):
        from dp3.diamonds import build_diamond
        from dp3.matchings import enumerate_pm
        from support import matching_weight, parse_poly

        g = build_diamond(1, False, scheme)
        weights = sorted(str(matching_weight(g, m)) for m in enumerate_pm(g))
        assert weights == sorted([
            str(parse_poly("x2^-2 x3^-1 x5^-1")),
            str(parse_poly("x1^-1 x2^-2 x6^-1")),
        ])

    def test_wrong_block_formula_fails(self, scheme, monkeypatch):
        def off_by_one(self, i, j):
            return expected_block_type(i, j), (i - j) // 2, j

        monkeypatch.setattr(BlockScheme, "block", off_by_one)
        assert labeling_failures(scheme.labeling) == [
            "block grid disagrees with geometric block adjacency"]
        with pytest.raises(CalibrationError, match="no labeling satisfies"):
            calibrate()

    def test_octahedral_and_rotation_checks_agree(self):
        # checks 1 and 2 of the search accept the same 48 labelings; check 2
        # is the only one that ties rotate180 to sigma
        labelings = [Labeling(up=p[:3], down=p[3:]) for p in itertools.permutations(range(1, 7))]
        octahedral = [_octahedral_ok(lab) for lab in labelings]
        rotation = [_rho_sigma_ok(lab) for lab in labelings]
        assert (sum(octahedral), sum(rotation)) == (48, 48)
        assert octahedral == rotation

    def test_calibrated_labeling_has_no_failures(self, scheme):
        assert labeling_failures(scheme.labeling) == []

    def test_search_finds_the_paper_labeling(self):
        assert calibrate().labeling == Labeling(up=(4, 6, 5), down=(1, 3, 2))

    @pytest.mark.parametrize("up, down, count", [
        ((2, 3, 1), (5, 6, 4), 0),
        ((2, 6, 5), (1, 3, 4), 24),
        ((4, 3, 1), (5, 6, 2), 42),
    ])
    def test_oracles_stop_at_the_first_failure(self, up, down, count):
        # the three labelings besides the survivor that reach the oracles;
        # each also fails later oracles, which are not run
        assert labeling_failures(Labeling(up, down)) == [
            f"|PM(D_3/2)| = {count}, expected 16"]

    def test_every_single_entry_perturbation_breaks(self, scheme):
        up, down = scheme.labeling.up, scheme.labeling.down
        tables = [list(up) + list(down)]
        for slot in range(6):
            for new in range(1, 7):
                table = list(up) + list(down)
                if table[slot] == new:
                    continue
                table[slot] = new
                failures = perturbation_failures(tuple(table[:3]), tuple(table[3:]))
                assert failures, f"perturbation {slot}->{new} slipped through"
