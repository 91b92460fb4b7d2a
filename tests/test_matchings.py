"""Matching counts, weighted sums, the enumeration oracle, condensation."""

import random

import pytest

from dp3 import cli, matchings
from dp3.diamonds import build_diamond, build_patch, covering_monomial
from dp3.laurent import SIGMA, UNIT_KEY, LaurentPoly
from dp3.matchings import (
    LimitExceededError,
    aggregate_enumeration,
    condensation_diamonds,
    count_pm,
    enumerate_pm,
    matchings_route_y,
    verify_condensation,
    weighted_pm_sum,
)
from dp3.quiver import MAX_N, recurrence_y
from dp3.tiling import BlockScheme
from support import (
    LABELINGS,
    greedy_order_by_definition,
    labeling_id,
    line_sweep,
    matching_covers,
    matching_weight,
    parse_poly,
    points_edges_by_edge,
    random_patches,
    sweep_stats,
)

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


def _add_shifted(new, pairs, w):
    """The weighted fold the packed one replaced: a dict of packed exponent
    keys per state, merged term by term."""
    for mask, poly in pairs:
        tgt = new.get(mask)
        if tgt is None:
            new[mask] = {k + w: c for k, c in poly.items()} if w else dict(poly)
            continue
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
    return graph._replace(edges=edges)


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
        g = g._replace(vertices=(u, v, w, z),
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

        def twice(new, pairs, w):
            fold(new, pairs, w)
            fold(new, pairs, w)

        monkeypatch.setattr(matchings, "_add_packed", twice)
        with pytest.raises(ArithmeticError, match="disagree"):
            weighted_pm_sum(build_diamond(1, False, scheme))


def post_filter_frontier_sum(sweep, unit, fold):
    """The kernel the pruning one replaced, kept apart from the slot
    program: one state at a time on masks of sweep indices, with prune
    masks of its own taken from ``earlier``.  Every transition is folded,
    one pair per batch, and the states keeping a vertex past its last
    neighbor are dropped after the step."""
    _, earlier, _ = sweep
    last = list(range(len(earlier)))
    for s, back in enumerate(earlier):
        for u, _ in back:
            last[u] = max(last[u], s)
    dead_at = [0] * len(earlier)
    for u, s in enumerate(last):
        dead_at[s] |= 1 << u
    states = {0: unit}
    for s, back in enumerate(earlier):
        bit = 1 << s
        new = {}
        for mask, value in states.items():
            if last[s] > s:
                fold(new, ((mask | bit, value),), 0)
            for u, w in back:
                if mask >> u & 1:
                    fold(new, ((mask & ~(1 << u), value),), w)
        states = {m: v for m, v in new.items() if not m & dead_at[s]}
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
        g = g._replace(edges=tuple(e for e in g.edges if v not in e[:2]))
        for order in (None, "yx", "xy"):
            assert assert_kernels_agree(monkeypatch, g, order) == (0, LaurentPoly.zero())


def made_graph(scheme, count, edges):
    """A graph on the first ``count`` vertices of a diamond, with ``edges``
    given as (vertex index, vertex index, label, label)."""
    g = build_diamond(4, False, scheme)
    vs = g.vertices[:count]
    return g._replace(vertices=vs,
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
        verts, earlier, _ = matchings._sweep(g)
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
        g = g._replace(vertices=tuple(g.vertices[i] for i in listed))
        w = assert_reduction_exact(g)
        assert w == parse_poly("x1^-1 x2^-2 x4^-1 x5^-1 x6^-1")
        verts, earlier, _ = matchings._sweep(g)
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


def program_slots(program):
    """The number of slots a slot program uses; they are the lowest bits."""
    used = 0
    for bit, back, dead in program:
        used |= bit | dead
        for u, _ in back:
            used |= u
    assert used & used + 1 == 0
    return used.bit_length()


def assert_slot_case(monkeypatch, graph):
    """Every order agrees with enumeration and with the post-filter kernel;
    returns the weighted sum."""
    w = assert_reduction_exact(graph)
    for order in ALL_ORDERS:
        assert assert_kernels_agree(monkeypatch, graph, order) == (len(enumerate_pm(graph)), w)
    return w


class TestSlotProgram:
    """Slot reuse on small graphs whose sweeps reach each case.  The vertex
    indices are into ``made_graph``'s diamond; ``xy`` visits 0, 2, 4, 1, 3,
    5 in that order."""

    def test_vertex_takes_the_slot_freed_at_its_own_step(self, scheme, monkeypatch):
        # a path 0-2-1-3: vertex 0 dies at 2's step, where 2 takes its slot
        g = made_graph(scheme, 4, [(0, 2, 1, 2), (2, 1, 3, 4), (1, 3, 5, 6)])
        assert any(bit & dead for bit, _, dead in matchings._sweep(g, "xy")[2])
        assert_slot_case(monkeypatch, g)

    def test_parallel_edges_into_a_dying_vertex(self, scheme, monkeypatch):
        # the path with 0-2 and 1-3 doubled: both doubled edges end at a
        # vertex whose last neighbor is the other end
        g = made_graph(scheme, 4, [(0, 2, 1, 2), (0, 2, 3, 4), (2, 1, 3, 4), (1, 3, 5, 6),
                                   (1, 3, 1, 6)])
        forced = [[u for u, _ in back if u & dead] for _, back, dead in matchings._sweep(g, "xy")[2]]
        assert [len(f) for f in forced] == [0, 2, 1, 2] and all(len(set(f)) <= 1 for f in forced)
        assert assert_slot_case(monkeypatch, g).term_count() == 4

    def test_last_neighbor_of_two_pending_partners(self, scheme, monkeypatch):
        # 0 and 2 both meet 4 and 1, and 4 also meets 3, which meets 5: at
        # 1's step in xy order both die, and the state that deferred 0, 2 and
        # 4 holds both and is dropped
        g = made_graph(scheme, 6, [(0, 4, 1, 2), (0, 1, 3, 4), (2, 4, 5, 6), (2, 1, 1, 3),
                                   (3, 4, 2, 4), (3, 5, 5, 6)])
        dead = [dead for _, _, dead in matchings._sweep(g, "xy")[2]]
        assert [d.bit_count() for d in dead] == [0, 0, 0, 2, 1, 1]
        assert assert_slot_case(monkeypatch, g).term_count() == 2

    def test_two_components(self, scheme, monkeypatch):
        # two 4-cycles, each reduced to two vertices joined twice: the second
        # component reuses the slot the first freed
        g = made_graph(scheme, 8, [(0, 1, 1, 2), (2, 1, 3, 4), (0, 3, 5, 6), (2, 3, 1, 6),
                                   (4, 5, 1, 2), (5, 6, 3, 4), (6, 7, 5, 6), (7, 4, 2, 3)])
        program = matchings._sweep(g)[2]
        assert [bool(back) for _, back, _ in program] == [False, True, False, True]
        assert program_slots(program) == 1
        assert assert_slot_case(monkeypatch, g).term_count() == 4


#: The six lattice axes of ``tiling.vertex_coords`` and their reverses.
AXES = ((1, 0), (-1, 0), (2, 1), (-2, -1), (2, -1), (-2, 1),
        (2, 3), (-2, -3), (2, -3), (-2, 3), (0, 1), (0, -1))


def assert_greedy_order_exact(monkeypatch, graph):
    """The greedy order visits each vertex of the reduced graph once, in the
    order its definition gives, and ``count_pm`` and ``weighted_pm_sum`` of
    ``graph`` are the same as with the reduced graph swept along the
    straight line ``SWEEP``."""
    points, edges = matchings._reduce(*matchings._points_edges(graph))
    order = matchings._min_frontier_order(points, edges)
    assert sorted(order) == list(range(len(points)))
    assert order == greedy_order_by_definition(points, edges)
    assert matchings._sweep(graph)[0] == [points[i][2] for i in order]
    count, w = count_pm(graph), weighted_pm_sum(graph)
    with monkeypatch.context() as m:
        m.setattr(matchings, "_sweep", lambda g, order=None: line_sweep(g, matchings.SWEEP))
        assert (count_pm(graph), weighted_pm_sum(graph)) == (count, w)


#: (state-steps, peak states) of the default sweep of D_N and of D'_N, as
#: sweep_stats counts them; a change to _reduce or to the greedy order that
#: moves them updates this table and says why
SWEEP_SIZES = {
    1: ((3, 1), (3, 1)),
    2: ((3, 1), (3, 1)),
    3: ((11, 2), (11, 2)),
    4: ((19, 3), (19, 3)),
    5: ((61, 6), (59, 6)),
    6: ((151, 10), (156, 10)),
    7: ((333, 15), (318, 15)),
    8: ((918, 35), (896, 34)),
    9: ((1450, 35), (1543, 46)),
    10: ((4755, 126), (4526, 124)),
    11: ((6366, 126), (7063, 145)),
    12: ((23331, 440), (21795, 455)),
    13: ((28472, 440), (31741, 471)),
    14: ((107748, 1660), (98576, 1700)),
}


#: (slots, fold calls per pass) of the default sweep of D_N and of D'_N.  A
#: pass calls the fold once per edge of the reduced graph and once per vertex
#: with a later neighbor, however many states there are; a change to the
#: graph, the order or the slot program that moves them updates this table
#: and says why
KERNEL_SIZES = {
    1: ((1, 3), (1, 3)),
    2: ((1, 5), (1, 5)),
    3: ((2, 18), (2, 18)),
    4: ((3, 28), (3, 28)),
    5: ((4, 55), (4, 55)),
    6: ((5, 82), (5, 83)),
    7: ((6, 126), (6, 127)),
    8: ((7, 171), (7, 172)),
    9: ((8, 233), (8, 234)),
    10: ((9, 296), (9, 297)),
    11: ((10, 376), (10, 377)),
    12: ((11, 457), (11, 458)),
    13: ((12, 555), (12, 556)),
    14: ((13, 654), (13, 655)),
}


def kernel_size(monkeypatch, graph):
    """The slots of ``graph``'s default program and the fold calls of each
    pass of ``count_pm`` and ``weighted_pm_sum``, checking that every mask
    handed to a fold fits in the slots."""
    slots = program_slots(matchings._sweep(graph)[2])
    kernel, calls = matchings._frontier_sum, []

    def counted(sweep, unit, fold):
        calls.append(0)

        def checked(new, pairs, w):
            calls[-1] += 1
            assert all(0 <= mask < 1 << slots for mask, _ in pairs)
            fold(new, pairs, w)

        return kernel(sweep, unit, checked)

    with monkeypatch.context() as m:
        m.setattr(matchings, "_frontier_sum", counted)
        count_pm(graph)
        weighted_pm_sum(graph)
    return slots, calls


class TestPointsEdges:
    def test_one_key_per_label_pair_equals_one_per_edge(self, scheme):
        for n in range(0, 23):
            for primed in (False, True):
                g = build_diamond(n, primed, scheme)
                assert matchings._points_edges(g) == points_edges_by_edge(g), (n, primed)

    @pytest.mark.parametrize("labeling", LABELINGS, ids=labeling_id)
    def test_patches_under_any_labeling(self, labeling):
        scheme = BlockScheme(labeling, {})
        for seed in range(3):
            for faces in random_patches(seed):
                g = build_patch(faces, scheme, -1, False)
                assert matchings._points_edges(g) == points_edges_by_edge(g)


class TestSweepChoice:
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_chosen_direction_near_best(self, scheme, n, primed):
        # the greedy order takes no more state-steps than the best of the
        # twelve straight lines from N=5 on, and at most 1.25 times as many
        # below
        g = build_diamond(n, primed, scheme)
        chosen, _ = sweep_stats(matchings._sweep(g))
        # an axis is stopped once it costs more than the greedy order
        measured = [sweep_stats(line_sweep(g, axis), limit=chosen) for axis in AXES]
        best = min((steps for steps, _ in filter(None, measured)), default=chosen)
        assert chosen <= (best if n >= 5 else 1.25 * best)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_sweep_sizes_are_pinned(self, scheme, n):
        got = tuple(sweep_stats(matchings._sweep(build_diamond(n, primed, scheme)))
                    for primed in (False, True))
        assert got == SWEEP_SIZES[n]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_kernel_sizes_are_pinned(self, scheme, monkeypatch, n):
        # the count, extremes and packed passes each fold whole batches
        got = []
        for primed in (False, True):
            slots, calls = kernel_size(monkeypatch, build_diamond(n, primed, scheme))
            assert len(calls) == 3 and len(set(calls)) == 1
            got.append((slots, calls[0]))
        assert tuple(got) == KERNEL_SIZES[n]

    @pytest.mark.parametrize("n", range(0, 15))
    def test_greedy_order_is_exact(self, scheme, monkeypatch, n):
        for primed in (False, True):
            assert_greedy_order_exact(monkeypatch, build_diamond(n, primed, scheme))

    def test_greedy_order_is_exact_on_random_graphs(self, scheme, monkeypatch):
        # the graphs of TestPackedFold.test_general_lattice_ranks, some of
        # them with several components
        for seed in range(120):
            rng = random.Random(seed)
            g = relabelled(build_diamond(rng.randint(1, 5), rng.random() < 0.5, scheme), rng)
            assert_greedy_order_exact(monkeypatch, g)

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
        g = g._replace(edges=tuple((u, v, rng.randint(1, 6), rng.randint(1, 6))
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

    def test_limit_guard(self, scheme, monkeypatch):
        monkeypatch.setattr(matchings, "ENUMERATION_LIMIT", 3)
        with pytest.raises(LimitExceededError):
            enumerate_pm(build_diamond(4, False, scheme))

    def test_matching_weight(self, scheme):
        g = build_diamond(1, False, scheme)
        weights = {str(matching_weight(g, m)) for m in enumerate_pm(g)}
        assert weights == {"x2^-2 x3^-1 x5^-1", "x1^-1 x2^-2 x6^-1"}


def kernel_sums(diamonds, scheme):
    """w(D) of each (half-order, primed) diamond, from the kernel."""
    return {d: weighted_pm_sum(build_diamond(*d, scheme)) for d in diamonds}


def check_id(n):
    """The kind and n that the verify check id of the identity at half-order
    N = n names: kind 1 for even N = 2n, kind 2 for odd N = 2n + 1."""
    return f"{1 + n % 2}-{n // 2}"


class TestCondensation:
    def test_kind2_n1_center_is_empty(self, scheme):
        big, center, *_ = condensation_diamonds(3)
        assert (big, center) == ((3, False), (0, False))
        assert kernel_sums([center], scheme)[center] == LaurentPoly.one()

    def test_kind1_n2_center_is_half_diamond(self):
        big, center, *_ = condensation_diamonds(4)
        assert (big, center) == ((4, False), (1, False))

    def test_kind1_n3_graph_roster(self):
        assert condensation_diamonds(6) == (
            (6, False), (3, False), (5, False), (4, False), (5, True), (4, True))

    @pytest.mark.parametrize("n", range(3, 11), ids=check_id)
    def test_identities_hold(self, scheme, n):
        lhs, rhs = verify_condensation(n, kernel_sums(condensation_diamonds(n), scheme))
        assert lhs == rhs
        assert lhs - rhs == LaurentPoly.zero()

    def test_broken_instance_reports_diff(self, scheme, monkeypatch):
        sums = kernel_sums(condensation_diamonds(4), scheme)
        for d in sums:  # one sum with one more matching
            lhs, rhs = verify_condensation(4, {**sums, d: sums[d] + LaurentPoly.one()})
            assert lhs != rhs, d
            assert lhs - rhs != LaurentPoly.zero()
        for i in range(2):  # one factor monomial without its x6 or x5
            labels = list(matchings.RECURSION_FACTOR_LABELS)
            labels[i] = labels[i][:-1]
            monkeypatch.setattr(matchings, "RECURSION_FACTOR_LABELS", tuple(labels))
            lhs, rhs = verify_condensation(4, sums)
            assert lhs != rhs, i

    def test_range_guards(self):
        for n in (2, 1, 0, -1):
            with pytest.raises(ValueError):
                condensation_diamonds(n)
        with pytest.raises(ValueError):
            verify_condensation(2, {})


def built_roster(n, kind, scheme):
    """The graphs a condensation identity was made of when it was indexed by
    kind and n: big, center, then each pair, as (half-order, primed)."""
    if kind == 1:
        big, center, a, b = 2 * n, 2 * n - 3, 2 * n - 1, 2 * n - 2
    else:
        big, center, a, b = 2 * n + 1, 2 * n - 2, 2 * n, 2 * n - 1
    graphs = [build_diamond(big, False, scheme), build_diamond(center, False, scheme),
              build_diamond(a, False, scheme), build_diamond(b, False, scheme),
              build_diamond(a, True, scheme), build_diamond(b, True, scheme)]
    return tuple((g.half_order, g.primed) for g in graphs)


class TestDiamondSum:
    """w(D) as ``dp3 verify`` sums it for its suites, against the kernel on
    each built diamond."""

    @pytest.mark.parametrize("primed", [False, True])
    def test_equals_kernel_on_built_diamond(self, scheme, primed):
        ahead = cli._work_ahead(("theorem", "recursions"), 6, scheme)
        sums, covers = ahead["sum"], ahead["cover"]
        # theorem: N = 1..6; recursions adds D_0 and D_{7/2}, unprimed,
        # whose covering monomials its own checks make
        want = set(range(1, 7)) | (set() if primed else {0, 7})
        assert {n for n, p in sums if p == primed} == want
        assert {n for n, p in covers if p == primed} == set(range(1, 7))
        for n in want:
            assert sums[n, primed] == weighted_pm_sum(build_diamond(n, primed, scheme)), n

    @pytest.mark.parametrize("kind, n", [(1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)])
    def test_condensation_roster_matches_built_graphs(self, scheme, kind, n):
        assert condensation_diamonds(2 * n + kind - 1) == built_roster(n, kind, scheme)

    def test_kernels_are_not_cached(self, scheme):
        # tests patch the kernels' internals and the oracle suite recomputes
        # through them, so no kernel keeps results, and no memo of sums is
        # left in the module once one has been taken
        for fn in (weighted_pm_sum, count_pm, build_diamond, matchings_route_y,
                   verify_condensation):
            assert not hasattr(fn, "cache_info"), fn.__name__
        matchings_route_y(2, False, scheme)
        assert [name for name, value in vars(matchings).items() if isinstance(value, dict)
                and any(isinstance(v, LaurentPoly) for v in value.values())] == []


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

    def test_refuses_past_the_route_bound(self, scheme, monkeypatch):
        # refused before the diamond is built
        monkeypatch.setattr(matchings, "build_diamond", None)
        with pytest.raises(ValueError, match=f"is past N <= {MAX_N}"):
            matchings_route_y(MAX_N + 1, False, scheme)
