"""Matching counts, weighted sums, the enumeration oracle, condensation."""

import dataclasses
import random

import pytest

from dp3 import matchings
from dp3.calibration import default_scheme
from dp3.diamonds import build_diamond, covering_monomial
from dp3.laurent import SIGMA, UNIT_KEY, LaurentPoly
from dp3.matchings import (
    LimitExceededError,
    aggregate_enumeration,
    condensation_instance,
    count_pm,
    diamond_sum,
    enumerate_pm,
    matching_weight,
    matchings_route_y,
    verify_condensation,
    weighted_pm_sum,
)
from dp3.quiver import recurrence_y
from support import matching_covers, parse_poly, sweep_stats

COUNTS = {1: 2, 2: 4, 3: 16, 4: 64, 5: 512, 6: 4096, 7: 65536, 8: 1048576}


class TestCounts:
    @pytest.mark.parametrize("n, want", sorted(COUNTS.items()))
    def test_closed_form(self, scheme, n, want):
        assert count_pm(build_diamond(n, False, scheme)) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_primed_counts_match(self, scheme, n):
        assert count_pm(build_diamond(n, True, scheme)) == COUNTS[n]

    def test_empty_graph_has_one_matching(self, scheme):
        g = build_diamond(0, False, scheme)
        assert count_pm(g) == 1
        assert weighted_pm_sum(g) == LaurentPoly.one()

    @pytest.mark.parametrize("n", range(0, 11))
    def test_sweep_orders_agree(self, scheme, n):
        # the default sweeps the reduced graph, the reference orders the graph as built
        for primed in (False, True):
            g = build_diamond(n, primed, scheme)
            assert count_pm(g) == count_pm(g, "yx") == count_pm(g, "xy")
            if n >= 2:
                assert len(matchings._sweep(g)[0]) < len(g.vertices)

    def test_unknown_order_rejected(self, scheme):
        with pytest.raises(ValueError):
            count_pm(build_diamond(1, False, scheme), "zigzag")


class TestWeightedSums:
    def test_half_diamond(self, scheme):
        got = weighted_pm_sum(build_diamond(1, False, scheme))
        assert got == parse_poly("x2^-2 x3^-1 x5^-1 + x1^-1 x2^-2 x6^-1")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_specializes_to_count(self, scheme, n):
        for primed in (False, True):
            g = build_diamond(n, primed, scheme)
            assert weighted_pm_sum(g).evaluate() == count_pm(g)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_primed_is_sigma_image(self, scheme, n):
        w = weighted_pm_sum(build_diamond(n, False, scheme))
        wp = weighted_pm_sum(build_diamond(n, True, scheme))
        assert wp == w.permute(SIGMA)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_positive_and_no_more_terms_than_matchings(self, scheme, n):
        w = weighted_pm_sum(build_diamond(n, False, scheme))
        assert w.min_coefficient() > 0
        assert w.term_count() <= COUNTS[n]

    @pytest.mark.parametrize("n", range(0, 11))
    def test_sweep_orders_agree(self, scheme, n):
        # the default sweeps the reduced graph, the reference orders the graph as built
        for primed in (False, True):
            g = build_diamond(n, primed, scheme)
            assert weighted_pm_sum(g) == weighted_pm_sum(g, "yx") == weighted_pm_sum(g, "xy")


def _add_shifted(new, mask, poly, w):
    """The weighted fold the packed one replaced: a dict of packed exponent
    keys per state, merged term by term."""
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


def dict_fold_sum(graph, order):
    sweep = matchings._sweep(graph, order)
    return LaurentPoly(matchings._frontier_sum(sweep, {UNIT_KEY: 1}, _add_shifted) or {})


def relabelled(graph, rng):
    """The graph with about a tenth of its edges deleted and each remaining
    edge given two labels drawn from a random palette of 1 to 6 labels."""
    palette = rng.sample(range(1, 7), rng.randint(1, 6))
    edges = tuple((u, v, *sorted(rng.choices(palette, k=2)))
                  for u, v, _, _ in graph.edges if rng.random() > 0.1)
    return dataclasses.replace(graph, edges=edges)


class TestPackedFold:
    @pytest.mark.parametrize("order", ["yx", "xy", None])
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("n", range(0, 11))
    def test_equals_dict_fold(self, scheme, n, primed, order):
        g = build_diamond(n, primed, scheme)
        assert weighted_pm_sum(g, order) == dict_fold_sum(g, order)

    def test_general_lattice_ranks(self, scheme):
        # random labels give difference lattices of every rank 0..5; random
        # deletions give graphs without a perfect matching
        ranks, empty = set(), 0
        for seed in range(120):
            rng = random.Random(seed)
            g = relabelled(build_diamond(rng.randint(1, 5), rng.random() < 0.5, scheme), rng)
            got = weighted_pm_sum(g)
            assert got == aggregate_enumeration(g), seed
            assert got == weighted_pm_sum(g, "xy"), seed
            assert count_pm(g) == count_pm(g, "yx") == count_pm(g, "xy"), seed
            ranks.add(len(matchings._difference_lattice(matchings._sweep(g, "yx"))[0]))
            empty += not got
        assert ranks == {0, 1, 2, 3, 4, 5}
        assert empty > 0

    def test_unknown_order_rejected(self, scheme):
        with pytest.raises(ValueError):
            weighted_pm_sum(build_diamond(1, False, scheme), "zigzag")

    def test_odd_cycle_rejected(self, scheme):
        # a triangle with a pendant edge: one perfect matching, one odd cycle
        g = build_diamond(2, False, scheme)
        u, v, w, z = g.vertices[:4]
        g = dataclasses.replace(g, vertices=(u, v, w, z),
                                edges=((u, v, 1, 2), (v, w, 1, 3), (u, w, 2, 3), (w, z, 4, 5)))
        with pytest.raises(ValueError, match="bipartite"):
            weighted_pm_sum(g)

    def test_off_lattice_decoding_raises(self, scheme, monkeypatch):
        # doubling the first basis row puts half the decoded exponents off it
        lattice = matchings._difference_lattice

        def coarse(sweep):
            basis, pivots = lattice(sweep)
            return [[2 * a for a in basis[0]]] + basis[1:], pivots

        monkeypatch.setattr(matchings, "_difference_lattice", coarse)
        with pytest.raises(ArithmeticError, match="off the lattice"):
            weighted_pm_sum(build_diamond(4, False, scheme))

    def test_carry_raises(self, scheme, monkeypatch):
        # a fold that adds every value twice overflows the digits
        fold = matchings._add_packed

        def twice(new, mask, value, w):
            fold(new, mask, value, w)
            fold(new, mask, value, w)

        monkeypatch.setattr(matchings, "_add_packed", twice)
        with pytest.raises(ArithmeticError, match="disagree"):
            weighted_pm_sum(build_diamond(1, False, scheme))


def post_filter_frontier_sum(sweep, unit, fold):
    """The kernel the pruning one replaced: every transition is folded, and
    the states keeping a vertex past its last neighbor are dropped after
    the step."""
    verts, earlier, has_future, dead_at = sweep
    states = {0: unit}
    for s in range(len(verts)):
        bit = 1 << s
        future, back = has_future[s], earlier[s]
        new = {}
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


ALL_ORDERS = (None, "yx", "xy")


def assert_kernels_agree(monkeypatch, graph, order=None):
    """Every pass of ``count_pm`` and ``weighted_pm_sum`` (the count, the
    extremes and the packed pass) returns the same value from the pruning
    kernel as from the post-filter one."""
    kernel, folds = matchings._frontier_sum, []

    def both(sweep, unit, fold):
        got = kernel(sweep, unit, fold)
        assert got == post_filter_frontier_sum(sweep, unit, fold)
        folds.append(fold)
        return got

    with monkeypatch.context() as m:
        m.setattr(matchings, "_frontier_sum", both)
        count = count_pm(graph, order)
        w = weighted_pm_sum(graph, order)
    assert folds[0] is matchings._add_count
    assert (matchings._add_packed in folds) == (count > 0)
    return count, w


class TestPruningKernel:
    @pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o or "default")
    def test_equals_post_filter_on_diamonds(self, scheme, monkeypatch, order):
        for n in range(0, 9):
            for primed in (False, True):
                count, _ = assert_kernels_agree(monkeypatch, build_diamond(n, primed, scheme),
                                                order)
                assert count == (COUNTS[n] if n else 1)

    def test_equals_post_filter_on_random_graphs(self, scheme, monkeypatch):
        # the graphs of TestPackedFold.test_general_lattice_ranks
        empty = 0
        for seed in range(120):
            rng = random.Random(seed)
            g = relabelled(build_diamond(rng.randint(1, 5), rng.random() < 0.5, scheme), rng)
            count, _ = assert_kernels_agree(monkeypatch, g)
            empty += not count
        assert empty > 0

    def test_isolated_vertex(self, scheme, monkeypatch):
        g = build_diamond(3, False, scheme)
        v = g.vertices[5]
        g = dataclasses.replace(g, edges=tuple(e for e in g.edges if v not in e[:2]))
        for order in (None, "yx", "xy"):
            assert assert_kernels_agree(monkeypatch, g, order) == (0, LaurentPoly.zero())


def made_graph(scheme, count, edges):
    """A graph on the first ``count`` vertices of a diamond, with ``edges``
    given as (vertex index, vertex index, label, label)."""
    g = build_diamond(4, False, scheme)
    vs = g.vertices[:count]
    return dataclasses.replace(g, vertices=vs,
                               edges=tuple((vs[i], vs[j], la, lb) for i, j, la, lb in edges))


def assert_reduction_exact(g):
    """The default sweeps the reduced graph, the reference orders sweep it
    as built.  All agree with enumeration."""
    w, count = aggregate_enumeration(g), len(enumerate_pm(g))
    for order in ALL_ORDERS:
        assert weighted_pm_sum(g, order) == w, order
        assert count_pm(g, order) == count, order
    return w


class TestReduction:
    def test_contraction_makes_parallel_edges(self, scheme):
        # a 4-cycle: contracting any vertex leaves two vertices joined twice
        g = made_graph(scheme, 4, [(0, 1, 1, 2), (1, 2, 3, 4), (2, 3, 5, 6), (3, 0, 1, 5)])
        w = assert_reduction_exact(g)
        assert w == parse_poly("x1^-1 x2^-1 x5^-1 x6^-1 + x1^-1 x3^-1 x4^-1 x5^-1")
        verts, earlier, _, _ = matchings._sweep(g)
        assert len(verts) == 2 and len(earlier[1]) == 2

    def test_degree_two_to_one_neighbor_is_kept(self, scheme):
        # vertex 0 is joined twice to 1, which also meets 2 and 3; 4 and 5
        # each join 2 and 3 and are contracted
        g = made_graph(scheme, 6, [(0, 1, 1, 2), (0, 1, 3, 4), (1, 2, 5, 6), (1, 3, 1, 6),
                                   (2, 4, 2, 3), (3, 4, 4, 5), (2, 5, 1, 3), (3, 5, 2, 6)])
        w = assert_reduction_exact(g)
        assert w.term_count() == 4
        verts = matchings._sweep(g)[0]
        assert g.vertices[0] in verts and len(verts) == 4

    @pytest.mark.parametrize("listed", [(0, 1, 2, 3, 4, 5), (0, 1, 3, 5, 4, 2)],
                             ids=["path-order", "shuffled"])
    def test_path_reduces_to_one_edge(self, scheme, listed):
        # a path of six vertices contracts twice, whichever vertex goes first,
        # to one edge that carries the weight of its only perfect matching
        g = made_graph(scheme, 6, [(0, 1, 1, 2), (1, 2, 3, 4), (2, 3, 5, 6),
                                   (3, 4, 1, 3), (4, 5, 2, 4)])
        g = dataclasses.replace(g, vertices=tuple(g.vertices[i] for i in listed))
        w = assert_reduction_exact(g)
        assert w == parse_poly("x1^-1 x2^-2 x4^-1 x5^-1 x6^-1")
        verts, earlier, _, _ = matchings._sweep(g)
        assert len(verts) == 2 and earlier[0] == []
        ((_, key),) = earlier[1]
        assert LaurentPoly({UNIT_KEY + key: 1}) == w

    def test_odd_cycles_stay_odd(self, scheme):
        # the triangle with a pendant edge of TestPackedFold.test_odd_cycle_rejected:
        # each degree-2 vertex has adjacent neighbors, so nothing contracts
        g = made_graph(scheme, 4, [(0, 1, 1, 2), (1, 2, 1, 3), (0, 2, 2, 3), (2, 3, 4, 5)])
        for order in ALL_ORDERS:
            assert len(matchings._sweep(g, order)[0]) == 4
            assert count_pm(g, order) == 1
        # a 5-cycle with a pendant edge contracts to the triangle with one
        g = made_graph(scheme, 6, [(0, 1, 1, 2), (1, 2, 1, 3), (2, 3, 2, 3), (3, 4, 4, 5),
                                   (4, 0, 1, 4), (0, 5, 2, 5)])
        for order in ALL_ORDERS:
            assert count_pm(g, order) == 1
            with pytest.raises(ValueError, match="bipartite"):
                weighted_pm_sum(g, order)
        assert len(matchings._sweep(g)[0]) == 4


#: The six lattice axes of ``tiling.vertex_coords`` and their reverses.
AXES = ((1, 0), (-1, 0), (2, 1), (-2, -1), (2, -1), (-2, 1),
        (2, 3), (-2, -3), (2, -3), (-2, 3), (0, 1), (0, -1))


class TestSweepChoice:
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("n", range(6, 13))
    def test_chosen_direction_near_best(self, scheme, monkeypatch, n, primed):
        g = build_diamond(n, primed, scheme)
        chosen, _ = sweep_stats(matchings._sweep(g))
        measured = []
        for axis in AXES:
            monkeypatch.setattr(matchings, "SWEEP", axis)
            # an axis is stopped once it costs more than the chosen one
            measured.append(sweep_stats(matchings._sweep(g), limit=chosen))
        best = min(steps for steps, _ in filter(None, measured))
        assert chosen <= 1.25 * best

    def test_reference_orders_sort_by_rows_and_columns(self, scheme):
        g = build_diamond(5, True, scheme)
        xy = matchings.vertex_coords
        assert matchings._sweep(g, "yx")[0] == sorted(g.vertices, key=lambda v: (xy(v)[::-1], v))
        assert matchings._sweep(g, "xy")[0] == sorted(g.vertices, key=lambda v: (xy(v), v))

    def test_unknown_direction_rejected(self, scheme):
        g = build_diamond(1, False, scheme)
        for order in ((2, 3), [2, 3]):
            with pytest.raises(ValueError):
                count_pm(g, order)


class TestPackedBudget:
    """The packed pass of weighted_pm_sum is refused past its byte budget."""

    def test_random_labels_at_n8_are_refused(self, scheme):
        # a rank-5 lattice: hundreds of kilobytes per last-pivot step
        rng = random.Random(8)
        g = build_diamond(8, False, scheme)
        g = dataclasses.replace(g, edges=tuple((u, v, rng.randint(1, 6), rng.randint(1, 6))
                                                for u, v, _, _ in g.edges))
        with pytest.raises(ValueError, match="budget"):
            weighted_pm_sum(g)

    def test_budget_is_inclusive(self, scheme, monkeypatch):
        # D_6 needs 18 bytes per step: a radix of 9 times 2-byte digits
        g = build_diamond(6, False, scheme)
        monkeypatch.setattr(matchings, "PACKED_BYTES_BUDGET", 18)
        assert weighted_pm_sum(g) == dict_fold_sum(g, None)
        monkeypatch.setattr(matchings, "PACKED_BYTES_BUDGET", 17)
        with pytest.raises(ValueError, match="rank-2 lattice needs 18 bytes"):
            weighted_pm_sum(g)


class TestEnumeration:
    def test_anchor_block_has_four_matchings(self, scheme):
        g = build_diamond(2, False, scheme)
        ms = enumerate_pm(g)
        assert len(ms) == 4
        assert all(matching_covers(g, m) for m in ms)

    def test_deterministic_order(self, scheme):
        g = build_diamond(3, False, scheme)
        assert enumerate_pm(g) == enumerate_pm(g)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_aggregation_equals_dp(self, scheme, n):
        for primed in (False, True):
            g = build_diamond(n, primed, scheme)
            assert aggregate_enumeration(g) == weighted_pm_sum(g)

    def test_aggregation_equals_sum_of_matching_weights(self, scheme):
        # the slow path it replaced: one polynomial addition per matching
        for seed in range(20):
            rng = random.Random(seed)
            g = relabelled(build_diamond(rng.randint(1, 4), rng.random() < 0.5, scheme), rng)
            total = LaurentPoly.zero()
            for m in enumerate_pm(g):
                total = total + matching_weight(g, m)
            assert aggregate_enumeration(g) == total, seed

    def test_limit_guard(self, scheme):
        with pytest.raises(LimitExceededError):
            enumerate_pm(build_diamond(4, False, scheme), limit=3)

    def test_matching_weight(self, scheme):
        g = build_diamond(1, False, scheme)
        weights = {str(matching_weight(g, m)) for m in enumerate_pm(g)}
        assert weights == {"x2^-2 x3^-1 x5^-1", "x1^-1 x2^-2 x6^-1"}


class TestCondensation:
    def test_kind2_n1_center_is_empty(self, scheme):
        inst = condensation_instance(1, 2, scheme)
        assert inst.center.half_order == 0
        assert diamond_sum(*inst.center, inst.scheme) == LaurentPoly.one()

    def test_kind1_n2_center_is_half_diamond(self, scheme):
        inst = condensation_instance(2, 1, scheme)
        assert inst.center.half_order == 1
        assert inst.big.half_order == 4

    def test_kind1_n3_graph_roster(self, scheme):
        inst = condensation_instance(3, 1, scheme)
        assert (inst.big.half_order, inst.center.half_order) == (6, 3)
        assert (inst.pair1[0].half_order, inst.pair1[1].half_order) == (5, 4)
        assert inst.pair2[0].primed and inst.pair2[1].primed

    @pytest.mark.parametrize("kind, n", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_identities_hold(self, scheme, kind, n):
        lhs, rhs = verify_condensation(condensation_instance(n, kind, scheme))
        assert lhs == rhs
        assert lhs - rhs == LaurentPoly.zero()

    def test_broken_instance_reports_diff(self, scheme):
        inst = condensation_instance(2, 1, scheme)
        broken = condensation_instance(2, 1, scheme)
        object.__setattr__(broken, "pair1",
                           (inst.pair1[0], inst.pair1[1], LaurentPoly.one()))
        lhs, rhs = verify_condensation(broken)
        assert lhs != rhs
        assert lhs - rhs != LaurentPoly.zero()

    def test_range_guards(self, scheme):
        with pytest.raises(ValueError):
            condensation_instance(1, 1, scheme)
        with pytest.raises(ValueError):
            condensation_instance(0, 2, scheme)
        with pytest.raises(ValueError):
            condensation_instance(2, 3, scheme)


def built_roster(n, kind, scheme):
    """The graphs a condensation instance was made of before it named its
    diamonds: big, center, then each pair, as (half-order, primed) and
    weighted sum."""
    if kind == 1:
        big, center, a, b = 2 * n, 2 * n - 3, 2 * n - 1, 2 * n - 2
    else:
        big, center, a, b = 2 * n + 1, 2 * n - 2, 2 * n, 2 * n - 1
    graphs = [build_diamond(big, False, scheme), build_diamond(center, False, scheme),
              build_diamond(a, False, scheme), build_diamond(b, False, scheme),
              build_diamond(a, True, scheme), build_diamond(b, True, scheme)]
    return [((g.half_order, g.primed), weighted_pm_sum(g)) for g in graphs]


class TestDiamondSum:
    """The memo of w(D) against the kernel it caches."""

    @pytest.mark.parametrize("primed", [False, True])
    def test_equals_kernel_on_built_diamond(self, scheme, primed):
        matchings.clear_diamond_sums()
        for n in range(11):
            assert diamond_sum(n, primed, scheme) == weighted_pm_sum(
                build_diamond(n, primed, scheme)), n

    def test_each_sum_is_kept(self, scheme):
        assert diamond_sum(5, True, scheme) is diamond_sum(5, True, scheme)
        # no scheme means the default one, looked up under the same key
        assert diamond_sum(5, True) is diamond_sum(5, True, default_scheme())

    @pytest.mark.parametrize("kind, n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)])
    def test_condensation_roster_matches_built_graphs(self, scheme, kind, n):
        inst = condensation_instance(n, kind, scheme)
        named = inst.diamonds
        assert [(tuple(d), diamond_sum(*d, inst.scheme)) for d in named] == built_roster(
            n, kind, scheme)

    def test_kernels_are_not_cached(self):
        # tests patch the kernels' internals and the oracle suite recomputes
        # through them, so only diamond_sum may keep results, in one memo
        for fn in (weighted_pm_sum, count_pm, build_diamond, diamond_sum):
            assert not hasattr(fn, "cache_info"), fn.__name__
        assert matchings._SUMS[(2, False, default_scheme())] is diamond_sum(2)


class TestMatchingRoute:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_recurrence(self, scheme, n):
        y, yp = recurrence_y(n)
        assert matchings_route_y(n, False, scheme) == y
        assert matchings_route_y(n, True, scheme) == yp

    def test_route_is_weight_times_cover(self, scheme):
        w = weighted_pm_sum(build_diamond(3, False, scheme))
        assert matchings_route_y(3, False, scheme) == w * covering_monomial(3, False, scheme)

    def test_needs_positive_order(self, scheme):
        with pytest.raises(ValueError):
            matchings_route_y(0, False, scheme)
