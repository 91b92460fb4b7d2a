"""Matching counts, weighted sums, the enumeration oracle, condensation."""

import pytest

from dp3.diamonds import build_diamond, covering_monomial
from dp3.laurent import ALL_ONES, SIGMA, LaurentPoly, parse_poly
from dp3.matchings import (
    LimitExceededError,
    aggregate_enumeration,
    condensation_instance,
    count_pm,
    enumerate_pm,
    matching_covers,
    matching_weight,
    matchings_route_y,
    verify_condensation,
    weighted_pm_sum,
)
from dp3.quiver import recurrence_y

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sweep_orders_agree(self, scheme, n):
        g = build_diamond(n, False, scheme)
        assert count_pm(g, "yx") == count_pm(g, "xy")

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
            assert weighted_pm_sum(g).evaluate(ALL_ONES) == count_pm(g)

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sweep_orders_agree(self, scheme, n):
        g = build_diamond(n, False, scheme)
        assert weighted_pm_sum(g, "yx") == weighted_pm_sum(g, "xy")


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
        assert weighted_pm_sum(inst.center) == LaurentPoly.one()

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
