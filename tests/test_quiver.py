"""Exchange matrix mutation, the period-6 sequence, and the y recurrence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dp3 import quiver
from dp3.laurent import SIGMA, LaurentPoly
from dp3.quiver import (
    B0,
    MUTATION_CYCLE,
    Seed,
    initial_seed,
    mutate_matrix,
    mutate_seed,
    recurrence_y,
    remember_y,
    run_periodic_sequence,
)
from support import Y1, Y1P, empty_recurrence_memo, mutate_matrix_by_cases, x


def count_closed(n: int) -> int:
    return 2 ** ((n // 2) * (n // 2 + 1)) if n % 2 == 0 else 2 ** (((n + 1) // 2) ** 2)


class TestB0:
    def test_skew_symmetric(self):
        assert all(B0[i][j] == -B0[j][i] for i in range(6) for j in range(6))

    def test_no_arrows_between_antipodal_nodes(self):
        assert B0[0][4] == B0[1][3] == B0[2][5] == 0

    def test_sigma_invariant(self):
        s = [SIGMA(i) - 1 for i in range(1, 7)]
        assert all(B0[s[i]][s[j]] == B0[i][j] for i in range(6) for j in range(6))

    def test_column_2_signs(self):
        col = [B0[i][1] for i in range(6)]
        assert {i + 1 for i in range(6) if col[i] > 0} == {3, 5}
        assert {i + 1 for i in range(6) if col[i] < 0} == {1, 6}


class TestMatrixMutation:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_involution(self, k):
        assert mutate_matrix(mutate_matrix(B0, k), k) == B0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_skew_preserved(self, k):
        b = mutate_matrix(B0, k)
        assert all(b[i][j] == -b[j][i] for i in range(6) for j in range(6))

    @pytest.mark.parametrize("a", (1, 2, 3))
    def test_antipodal_pair_reverses_incident_arrows(self, a):
        pair = {a, SIGMA(a)}
        got = mutate_matrix(mutate_matrix(B0, a), SIGMA(a))
        want = tuple(
            tuple(-B0[i][j] if (i + 1 in pair) != (j + 1 in pair) else B0[i][j]
                  for j in range(6))
            for i in range(6))
        assert got == want

    def test_period_six(self):
        b = B0
        for k in MUTATION_CYCLE:
            b = mutate_matrix(b, k)
        assert b == B0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            mutate_matrix(B0, 0)

    @given(st.lists(st.integers(-3, 3), min_size=15, max_size=15), st.integers(1, 6))
    def test_closed_form_matches_the_sign_cases(self, upper, k):
        # a random skew-symmetric 6x6 matrix from its 15 entries above the diagonal
        entries = iter(upper)
        b = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                b[i][j] = next(entries)
                b[j][i] = -b[i][j]
        b = tuple(map(tuple, b))
        assert mutate_matrix(b, k) == mutate_matrix_by_cases(b, k)


class TestSeedMutation:
    def test_first_three_mutations(self):
        s1 = mutate_seed(initial_seed(), 2)
        assert s1.cluster[1] == Y1
        s2 = mutate_seed(s1, 4)
        assert s2.cluster[3] == Y1P
        s3 = mutate_seed(s2, 5)
        num = (x(3) * x(5) + x(1) * x(6)) * (x(3) * x(4) + x(2) * x(6))
        assert s3.cluster[4] == num.exact_div(x(2) * x(4) * x(5))

    def test_other_nodes_untouched(self):
        s1 = mutate_seed(initial_seed(), 2)
        for i in (0, 2, 3, 4, 5):
            assert s1.cluster[i] == LaurentPoly.var(i + 1)

    @pytest.mark.parametrize("k", [0, 7])
    def test_node_index_out_of_range(self, k):
        # k = 0 would read column -1 if nothing checked it first
        with pytest.raises(ValueError, match=f"node index {k} out of range 1..6"):
            mutate_seed(initial_seed(), k)


class TestSharedBinomial:
    """Steps 2m and 2m+1 mutate antipodal nodes, whose columns are negatives
    of each other, so the second step reuses the first one's binomial."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """The binomials the mutations compute: one ``exchange_binomial`` each."""
        made, kernel = [], quiver.exchange_binomial

        def counting(pos, neg):
            made.append(kernel(pos, neg))
            return made[-1]

        monkeypatch.setattr(quiver, "exchange_binomial", counting)
        return made

    def test_one_binomial_per_antipodal_pair(self, sums, monkeypatch):
        divided, exact_div = [], LaurentPoly.exact_div

        def counting(num, den):
            divided.append(num)
            return exact_div(num, den)

        monkeypatch.setattr(LaurentPoly, "exact_div", counting)
        seq = run_periodic_sequence(12)
        monkeypatch.undo()
        assert len(sums) == 6
        # each binomial is divided twice, once per variable of its sigma-pair,
        # and is packed once: both divisions divide one integer
        assert list(map(id, divided)) == [id(b) for b in sums for _ in range(2)]
        assert all(len(b._packed) == 1 for b in sums)
        assert seq.entries == tuple(v for n in range(1, 7) for v in recurrence_y(n))

    def test_a_reusing_step_keeps_no_binomial(self):
        # so no binomial is held while the next step builds its products
        s = mutate_seed(initial_seed(), 2)
        assert s.exchange is not None and mutate_seed(s, 4).exchange is None

    def test_unrelated_steps_compute_their_own(self, sums):
        # after the mutation at 2, column 5 is (-1, 1, 1, 1, 0, -2): other
        # factors than column 2's, so its binomial is computed
        s = mutate_seed(mutate_seed(initial_seed(), 2), 5)
        assert len(sums) == 2
        assert s.cluster[4] == (Y1 * x(3) * x(4) + x(1) * x(6) ** 2).exact_div(x(5))

    def test_equal_but_distinct_factors_are_not_reused(self, sums):
        # a seed whose variables equal the previous seed's, but are other
        # objects, computes its binomial again
        s = mutate_seed(initial_seed(), 2)
        copy = Seed(s.matrix, tuple(v * LaurentPoly.one() for v in s.cluster), s.exchange)
        assert copy == s and copy.cluster[0] is not s.cluster[0]
        sums.clear()
        assert mutate_seed(copy, 4) == mutate_seed(s, 4)
        assert len(sums) == 1

    def test_other_exponents_are_not_reused(self, sums):
        # the same objects in column 4, but with doubled exponents: the
        # binomial is computed, and it squares both monomials
        s = mutate_seed(initial_seed(), 2)
        doubled = tuple(tuple(2 * v if j == 3 else v for j, v in enumerate(row))
                        for row in s.matrix)
        sums.clear()
        got = mutate_seed(Seed(doubled, s.cluster, s.exchange), 4)
        assert len(sums) == 1
        assert got.cluster[3] == (x(1) ** 2 * x(6) ** 2 + x(3) ** 2 * x(5) ** 2).exact_div(x(4))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_mutation_is_an_involution(self, k):
        # the second mutation at k sees column k negated: it reuses the
        # binomial, when the first computed it, and divides it by the new variable
        for seed in (initial_seed(), mutate_seed(mutate_seed(initial_seed(), 2), 5)):
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_the_exchange_is_not_part_of_a_seeds_value(self):
        s = mutate_seed(initial_seed(), 2)
        bare = Seed(s.matrix, s.cluster)
        assert s.exchange is not None and bare.exchange is None
        assert s == bare and not s != bare

    def test_recurrence_never_permutes(self, monkeypatch):
        def fail(self, perm):
            raise AssertionError("permute called")

        monkeypatch.setattr(LaurentPoly, "permute", fail)
        with empty_recurrence_memo():
            pairs = [recurrence_y(n) for n in range(1, 11)]
        monkeypatch.undo()
        assert all(yp == y.permute(SIGMA) for y, yp in pairs)


class TestRecurrence:
    def test_base_cases(self):
        # the memo holds the bases from the start
        bases = {-2: (x(2), x(4)), -1: (x(5), x(1)), 0: (x(3), x(6))}
        for n, pair in bases.items():
            assert recurrence_y(n) is quiver._Y[n]
            assert recurrence_y(n) == pair

    def test_n1(self):
        assert recurrence_y(1) == (Y1, Y1P)

    def test_exchange_relation_holds(self):
        for n in range(1, 7):
            y, _ = recurrence_y(n)
            y1, yp1 = recurrence_y(n - 1)
            y2, yp2 = recurrence_y(n - 2)
            y3, _ = recurrence_y(n - 3)
            assert y * y3 == y1 * y2 + yp1 * yp2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_and_positivity(self, n):
        y, yp = recurrence_y(n)
        assert y.evaluate() == count_closed(n)
        assert y.min_coefficient() > 0
        assert yp == y.permute(SIGMA)

    def test_below_range(self):
        with pytest.raises(ValueError):
            recurrence_y(-3)

    def test_remembered_pairs_never_replace_the_memo(self):
        # a pair computed elsewhere fills a gap in the memo, never a value
        # the memo holds
        with empty_recurrence_memo():
            assert recurrence_y(1) == (Y1, Y1P)
            remember_y({0: (x(1), x(2)), 1: (x(1), x(2)), 2: (x(3), x(4))})
            assert recurrence_y(0) == (x(3), x(6))
            assert recurrence_y(1) == (Y1, Y1P)
            assert recurrence_y(2) == (x(3), x(4))

    def test_an_emptied_memo_keeps_the_bases(self):
        recurrence_y(1)
        with empty_recurrence_memo():
            assert sorted(quiver._Y) == [-2, -1, 0]
            recurrence_y(2)
        assert sorted(quiver._Y) == [-2, -1, 0]
        assert recurrence_y(0) == (x(3), x(6))


class TestPeriodicSequence:
    def test_six_steps_return_b0(self):
        seed = initial_seed()
        for k in MUTATION_CYCLE:
            seed = mutate_seed(seed, k)
        assert seed.matrix == B0
        seq = run_periodic_sequence(6)
        assert len(seq.entries) == 6
        assert seq.y(1) == Y1 and seq.y_prime(1) == Y1P
        assert seq.y(3) == recurrence_y(3)[0]

    def test_two_steps_sigma(self):
        seq = run_periodic_sequence(2)
        assert seq.y_prime(1) == seq.y(1).permute(SIGMA)

    def test_twelve_steps_y6(self):
        seq = run_periodic_sequence(12)
        assert seq.y(6).evaluate() == 4096
        assert seq.entries == tuple(v for n in range(1, 7) for v in recurrence_y(n))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            run_periodic_sequence(0)
