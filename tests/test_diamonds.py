"""Diamond construction, face statistics, covering monomials, exports."""

import json

import pytest

from dp3.diamonds import (
    boundary_vector,
    boundary_vector_closed,
    build_diamond,
    build_patch,
    covering_monomial,
    covering_monomial_closed,
    diamond_blocks,
    diamond_face_set,
    face_vector,
    face_vector_closed,
    graph_to_dot,
    graph_to_json,
    graph_to_svg,
    patch_boundary_faces,
    patch_covering_monomial,
    patch_face_vector,
)
from dp3.laurent import SIGMA, LaurentPoly, label_exponents
from dp3.tiling import RHO_CENTER, BlockScheme, Face, Vertex, face_corner_sum
from support import (
    LABELINGS,
    OTHER_LABELINGS,
    boundary_faces_by_edges,
    build_patch_by_faces,
    covering_monomial_by_faces,
    is_connected,
    labeling_id,
    random_patches,
    sigma_vector,
)


def mono(*labels):
    e = [0] * 6
    for l in labels:
        e[l - 1] += 1
    return LaurentPoly.monomial(1, e)


class TestFaceSets:
    def test_order_one_is_the_anchor_block(self, scheme):
        labels = sorted(scheme.labeling.label(f) for f in diamond_face_set(2, False, scheme))
        assert labels == [2, 4, 5]

    def test_three_halves(self, scheme):
        faces = diamond_face_set(3, False, scheme)
        assert len(faces) == 8
        assert face_vector(3, False, scheme) == (1, 3, 1, 2, 1, 0)

    def test_order_two_blocks_and_faces(self, scheme):
        assert sorted(diamond_blocks(2)) == [(-2, 0), (-1, -1), (-1, 0), (-1, 1), (0, 0)]
        faces = diamond_face_set(4, False, scheme)
        assert len(faces) == 15
        assert face_vector(4, False, scheme) == (2, 4, 1, 4, 3, 1)

    def test_half_order_zero_and_half(self, scheme):
        assert diamond_face_set(0, False, scheme) == frozenset()
        assert diamond_face_set(1, False, scheme) == frozenset({scheme.s2()})

    def test_integer_orders_nest(self, scheme):
        for n in range(1, 6):
            small = diamond_face_set(2 * n, False, scheme)
            assert small < diamond_face_set(2 * n + 1, False, scheme)
            assert small < diamond_face_set(2 * n + 2, False, scheme)

    def test_primed_is_rotation_image(self, scheme):
        # D'_m is D_m turned 180 degrees about RHO_CENTER, relabeled by sigma:
        # a face's corner sum is 4 times its centre, so the image of a face
        # at corner sum (x, y) sits at (8 cx - x, 8 cy - y)
        cx, cy = RHO_CENTER
        label = scheme.labeling.label

        def turned(f):
            x, y = face_corner_sum(f)
            return 8 * cx - x, 8 * cy - y

        for n in range(0, 11):
            primed = {face_corner_sum(f): label(f) for f in diamond_face_set(n, True, scheme)}
            image = {turned(f): SIGMA(label(f)) for f in diamond_face_set(n, False, scheme)}
            assert primed == image, n

    def test_primed_face_counts_are_sigma_image(self, scheme):
        for n in range(1, 8):
            assert face_vector(n, True, scheme) == sigma_vector(face_vector(n, False, scheme))

    def test_negative_order_rejected(self, scheme):
        with pytest.raises(ValueError):
            diamond_face_set(-1, False, scheme)


class TestGraphs:
    def test_half_diamond_is_a_square(self, scheme):
        g = build_diamond(1, False, scheme)
        assert len(g.vertices) == 4 and len(g.edges) == 4
        degree = {}
        for u, v, _, _ in g.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert set(degree.values()) == {2}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_even_vertex_count_and_connected(self, scheme, n):
        g = build_diamond(n, False, scheme)
        assert len(g.vertices) % 2 == 0
        assert is_connected(g)

    def test_empty_diamond(self, scheme):
        g = build_diamond(0, False, scheme)
        assert g.vertices == () and g.edges == () and g.faces == ()

    def test_edge_weights_use_lattice_labels(self, scheme):
        # the single label-2 square: its four edges face labels 3, 5, 1, 6
        g = build_diamond(1, False, scheme)
        partner = sorted(la if la != 2 else lb for _, _, la, lb in g.edges)
        assert partner == [1, 3, 5, 6]


class TestClosedForms:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_face_and_boundary_vectors(self, scheme, n):
        assert face_vector(n, False, scheme) == face_vector_closed(n)
        assert boundary_vector(n, False, scheme) == boundary_vector_closed(n)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_covering_monomials(self, scheme, n):
        assert covering_monomial(n, False, scheme) == covering_monomial_closed(n)

    def test_special_small_cases(self, scheme):
        assert covering_monomial(1, False, scheme) == mono(1, 2, 3, 5, 6)
        assert covering_monomial(0, False, scheme) == mono(3)
        assert covering_monomial(0, True, scheme) == mono(6)

    def test_boundary_examples(self, scheme):
        assert boundary_vector(2, False, scheme) == (1, 0, 3, 0, 0, 2)
        assert boundary_vector(3, False, scheme) == (2, 0, 3, 0, 2, 4)
        assert boundary_vector(4, False, scheme) == (2, 0, 6, 0, 1, 5)

    @pytest.mark.parametrize("n", range(0, 12))
    def test_primed_monomial_is_sigma_image(self, scheme, n):
        assert covering_monomial(n, True, scheme) == \
            covering_monomial(n, False, scheme).permute(SIGMA)


class TestCoverRecursions:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_recursion_one(self, scheme, n):
        m = lambda k, p=False: covering_monomial(k, p, scheme)
        lhs = m(2 * n) * m(2 * n - 3)
        assert lhs == m(2 * n - 1) * m(2 * n - 2) * mono(1, 2, 3, 4, 5, 6)
        assert lhs == m(2 * n - 1, True) * m(2 * n - 2, True) * mono(1, 2, 2, 3, 3, 5)
        assert lhs == LaurentPoly.monomial(1, (
            2 * n * n - 3 * n + 3, 2 * n * n - 3 * n + 3, 2 * n * n - n + 2,
            2 * n * n - 3 * n + 2, 2 * n * n - 3 * n + 3, 2 * n * n - n + 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_recursion_two(self, scheme, n):
        m = lambda k, p=False: covering_monomial(k, p, scheme)
        lhs = m(2 * n + 1) * m(2 * n - 2)
        assert lhs == m(2 * n) * m(2 * n - 1) * mono(1, 3, 2, 6, 4, 5)
        assert lhs == m(2 * n, True) * m(2 * n - 1, True) * mono(1, 3, 2, 3, 2, 5)
        assert lhs == LaurentPoly.monomial(1, (
            2 * n * n - n + 2, 2 * n * n - n + 2, 2 * n * n + n + 2,
            2 * n * n - n + 1, 2 * n * n - n + 2, 2 * n * n + n + 1))


class TestTranslationInvariance:
    def test_any_label_2_square_gives_same_weight_and_cover(self, scheme):
        from dp3.matchings import weighted_pm_sum

        anchor = diamond_face_set(1, False, scheme)
        base_w = weighted_pm_sum(build_diamond(1, False, scheme))
        base_m = covering_monomial(1, False, scheme)
        (s2,) = anchor
        for da, db in ((1, 0), (-2, 1), (3, -2)):
            shifted = Face(s2.a + da, s2.b + db, s2.up, s2.c)
            assert scheme.labeling.label(shifted) == 2
            g = build_patch({shifted}, scheme, -1, False)
            assert weighted_pm_sum(g) == base_w
            assert patch_covering_monomial({shifted}, scheme) == base_m


class TestTemplatePath:
    """build_patch and the boundary counts read the class table
    (``tiling.FACE_CLASSES``); support's builders read ``face_boundary``."""

    @pytest.mark.parametrize("primed", (False, True))
    def test_diamonds_equal_the_per_face_build(self, scheme, primed):
        for n in range(0, 23):
            faces = diamond_face_set(n, primed, scheme)
            g = build_diamond(n, primed, scheme)
            assert g == build_patch_by_faces(faces, scheme, n, primed), n
            assert all(type(v) is Vertex for v in g.vertices)
            assert all(type(u) is type(v) is Vertex for u, v, _, _ in g.edges)

    @pytest.mark.parametrize("primed", (False, True))
    def test_diamond_covers_and_boundaries_equal_the_reference(self, scheme, primed):
        label = scheme.labeling.label
        for n in range(1, 23):
            faces = diamond_face_set(n, primed, scheme)
            assert covering_monomial(n, primed, scheme) == \
                covering_monomial_by_faces(faces, scheme), n
            assert boundary_vector(n, primed, scheme) == \
                label_exponents(map(label, boundary_faces_by_edges(faces))), n

    @pytest.mark.parametrize("labeling", LABELINGS, ids=labeling_id)
    def test_patches_equal_the_reference(self, labeling):
        scheme = BlockScheme(labeling, {})  # the builders read only the labeling
        for seed in range(3):
            for faces in random_patches(seed):
                assert build_patch(faces, scheme, -1, False) == \
                    build_patch_by_faces(faces, scheme, -1, False)
                assert patch_covering_monomial(faces, scheme) == \
                    covering_monomial_by_faces(faces, scheme)
                outside = boundary_faces_by_edges(faces)
                assert patch_boundary_faces(faces) == outside
                assert patch_face_vector(outside, scheme) == \
                    label_exponents(map(labeling.label, outside))

    @pytest.mark.parametrize("labeling", OTHER_LABELINGS, ids=labeling_id)
    def test_diamond_face_sets_under_other_labelings(self, scheme, labeling):
        other = BlockScheme(labeling, {})
        for n in range(0, 13):
            for primed in (False, True):
                faces = diamond_face_set(n, primed, scheme)
                assert build_patch(faces, other, n, primed) == \
                    build_patch_by_faces(faces, other, n, primed)
                assert patch_covering_monomial(faces, other) == \
                    covering_monomial_by_faces(faces, other)


class TestExports:
    def test_json_fields_and_labels(self, scheme):
        doc = json.loads(graph_to_json(build_diamond(2, False, scheme)))
        assert doc["half_order"] == 2 and doc["primed"] is False
        assert sorted(f["label"] for f in doc["faces"]) == [2, 4, 5]
        assert {v["color"] for v in doc["vertices"]} == {"black", "white"}
        for e in doc["edges"]:
            assert len(e["labels"]) == 2

    def test_json_deterministic(self, scheme):
        a = graph_to_json(build_diamond(3, False, scheme))
        b = graph_to_json(build_diamond(3, False, scheme))
        assert a == b

    def test_primed_labels_sigma(self, scheme):
        plain = json.loads(graph_to_json(build_diamond(3, False, scheme)))
        primed = json.loads(graph_to_json(build_diamond(3, True, scheme)))
        got = sorted(f["label"] for f in primed["faces"])
        want = sorted(SIGMA(f["label"]) for f in plain["faces"])
        assert got == want

    def test_dot_four_cycle(self, scheme):
        dot = graph_to_dot(build_diamond(1, False, scheme))
        assert dot.count(" -- ") == 4

    def test_svg_renders(self, scheme):
        svg = graph_to_svg(build_diamond(2, False, scheme))
        assert svg.startswith("<svg") and svg.count("<polygon") == 3
