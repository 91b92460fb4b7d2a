"""Laurent polynomial arithmetic: worked examples and ring properties."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dp3 import cli, laurent, matchings
from dp3.cli import main
from dp3.laurent import (
    SIGMA,
    LaurentPoly,
    NotDivisibleError,
    VarPermutation,
    format_poly,
    unpack_key,
)
from dp3.calibration import default_scheme
from dp3.diamonds import build_diamond
from dp3.quiver import recurrence_y, run_periodic_sequence
from support import (
    ParseError,
    empty_recurrence_memo,
    format_poly_by_terms,
    parse_poly,
    unpack_digits_by_loop,
    x,
)


def P(text: str) -> LaurentPoly:
    return parse_poly(text)


class TestRingOps:
    def test_add_cancels(self):
        assert x(1) + x(2) + (-x(2)) == x(1)

    def test_monomial_scaling(self):
        got = (x(3) * x(5) + x(1) * x(6)) * LaurentPoly.var(2, -1)
        assert got == P("x2^-1 x3 x5 + x1 x2^-1 x6")

    def test_binomial_product(self):
        # numerator of y_2, expanded by hand
        got = (x(3) * x(5) + x(1) * x(6)) * (x(3) * x(4) + x(2) * x(6))
        assert got == P("x3^2 x4 x5 + x2 x3 x5 x6 + x1 x3 x4 x6 + x1 x2 x6^2")

    def test_zero_is_absorbing(self):
        z = LaurentPoly.zero()
        assert z * x(1) == z
        assert not z
        assert z + x(4) == x(4)

    def test_pow(self):
        b = x(1) + x(2)
        assert b ** 3 == b * b * b
        assert b ** 0 == LaurentPoly.one()
        assert LaurentPoly.var(3, -1) * x(3) == LaurentPoly.one()

    @pytest.mark.parametrize("p", [x(3), x(1) + x(2)], ids=["monomial", "binomial"])
    def test_negative_power_raises(self, p):
        with pytest.raises(ValueError, match="negative power"):
            p ** -1


class TestExactDivision:
    def test_difference_of_squares(self):
        num = x(3) ** 2 * x(5) ** 2 - x(1) ** 2 * x(6) ** 2
        den = x(3) * x(5) - x(1) * x(6)
        assert num.exact_div(den) == x(3) * x(5) + x(1) * x(6)

    def test_monomial_divisor_always_exact(self):
        got = (x(3) * x(5) + x(1) * x(6)).exact_div(x(2))
        assert got == P("x2^-1 x3 x5 + x1 x2^-1 x6")

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            (x(1) + x(2)).exact_div(x(1) + x(3))

    def test_coefficient_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            x(1).exact_div(LaurentPoly.monomial(2, (0,) * 6))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            x(1).exact_div(LaurentPoly.zero())


class TestPermutation:
    def test_sigma_cycle_structure(self):
        assert [SIGMA(i) for i in range(1, 7)] == [5, 4, 6, 2, 1, 3]
        assert all(SIGMA(SIGMA(i)) == i for i in range(1, 7))

    def test_sigma_on_variable(self):
        assert x(2).permute(SIGMA) == x(4)

    def test_sigma_fixes_y1_numerator(self):
        p = x(3) * x(5) + x(1) * x(6)
        assert p.permute(SIGMA) == p

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            VarPermutation((1, 1, 2, 3, 4, 5))


class TestEvaluate:
    def test_all_ones(self):
        assert (x(3) * x(5) + x(1) * x(6)).evaluate() == 2
        assert (x(1) * LaurentPoly.var(2, -1)).evaluate() == 1


class TestText:
    def test_canonical_order(self):
        assert format_poly(x(3) * x(5) + x(1) * x(6)) == "x1 x6 + x3 x5"

    def test_parse_monomial(self):
        p = P("x2^-1 x3 x5")
        assert p.term_count() == 1
        assert next(p.terms())[0] == (0, -1, 1, 0, 1, 0)

    def test_negative_and_coefficients(self):
        assert format_poly(P("-2 x1 + x2 - 5")) == "-2 x1 + x2 - 5"

    def test_zero(self):
        assert format_poly(LaurentPoly.zero()) == "0"
        assert P("x1 - x1") == LaurentPoly.zero()

    @pytest.mark.parametrize("bad, pos", [
        ("", 0),
        ("x", 0),
        ("x7", 0),
        ("x1 + + x2", 5),
        ("3 * x1", 2),
        ("x1^", 3),
    ])
    def test_parse_errors_carry_position(self, bad, pos):
        with pytest.raises(ParseError) as exc:
            parse_poly(bad)
        assert exc.value.position == pos


# -- randomized algebraic laws ------------------------------------------------

exponents = st.tuples(*[st.integers(-3, 3)] * 6)
polys = st.dictionaries(exponents, st.integers(-5, 5), max_size=5).map(
    LaurentPoly.from_exponent_terms)
nonzero_polys = polys.filter(bool)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()


@given(polys, nonzero_polys)
def test_division_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


@given(polys, polys)
def test_permute_is_ring_hom(a, b):
    assert (a * b).permute(SIGMA) == a.permute(SIGMA) * b.permute(SIGMA)
    assert (a + b).permute(SIGMA) == a.permute(SIGMA) + b.permute(SIGMA)
    assert a.permute(SIGMA).permute(SIGMA) == a


@given(polys, polys)
def test_evaluate_is_ring_hom(a, b):
    assert (a * b).evaluate() == a.evaluate() * b.evaluate()
    assert (a + b).evaluate() == a.evaluate() + b.evaluate()


@given(polys, polys)
def test_canonical_form_no_zero_coefficients(a, b):
    for p in (a + b, a - b, a * b):
        assert all(c != 0 for _, c in p.terms())


@given(polys)
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p)) == p


# exponents in -1..1 and coefficients in -2..2 make unit coefficients,
# exponents of +-1 and constant terms common; {} is the zero polynomial
text_polys = st.dictionaries(
    st.one_of(st.just((0,) * 6), st.tuples(*[st.integers(-1, 1)] * 6), exponents),
    st.integers(-2, 2), max_size=6).map(LaurentPoly.from_exponent_terms)


@settings(max_examples=300)
@given(text_polys)
@example(LaurentPoly.zero())
@example(-LaurentPoly.one())
@example(LaurentPoly.monomial(-7, (0,) * 6))
@example(LaurentPoly.monomial(-1, (0, 0, -1, 0, 0, 0)))
@example(LaurentPoly.monomial(1, (-3_000_000, 0, 0, 0, 0, 3_000_000)))
def test_format_matches_the_term_by_term_oracle(p):
    assert format_poly(p) == format_poly_by_terms(p)


# -- exponent range -------------------------------------------------------------

ONE = LaurentPoly.one()
BIG_EXP = LaurentPoly.var(3, 3_000_000)
DENSE = x(1) + x(2) + x(1) * x(2) + ONE
SPARSE = x(1) + x(2) * x(3) ** 5 + LaurentPoly.var(4, -7) * x(6)


class TestExponentRange:
    def test_power_past_the_field_raises(self):
        # the x2 field used to carry into x1, giving x1 x2^-4777216
        with pytest.raises(OverflowError):
            LaurentPoly.var(2, 4_000_000) ** 3

    @pytest.mark.parametrize("p", [DENSE, SPARSE, ONE], ids=["packed", "schoolbook", "monomial"])
    def test_product_past_the_field_raises(self, p):
        with pytest.raises(OverflowError):
            (p * BIG_EXP) * (p * BIG_EXP)

    @pytest.mark.parametrize("p", [DENSE, SPARSE, ONE], ids=["packed", "elimination", "monomial"])
    def test_quotient_past_the_field_raises(self, p):
        with pytest.raises(OverflowError):
            (p * BIG_EXP).exact_div(LaurentPoly.var(3, -2_000_000))
        with pytest.raises(OverflowError):
            (p * p * BIG_EXP).exact_div(p * LaurentPoly.var(3, -2_000_000))

    def test_negative_power_past_the_field_raises(self):
        with pytest.raises(OverflowError):
            LaurentPoly.var(2, -3_000_000) ** 2

    def test_largest_exponents_still_pack(self):
        top = LaurentPoly.var(2, (1 << 22) - 1)
        p = top * LaurentPoly.var(2, -1)
        assert p.term_count() == 1
        assert next(p.terms())[0] == (0, (1 << 22) - 2, 0, 0, 0, 0)


# -- packed arithmetic against the dict loops -----------------------------------------

coefficients = st.integers(-(1 << 64), 1 << 64).filter(bool)
def grids(coeffs):
    return st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs,
                           min_size=4, max_size=16)
shifts = st.tuples(*[st.integers(-4, 4)] * 6)
shears = st.tuples(*[st.integers(-3, 3)] * 4)


@st.composite
def lattice_polys(draw, count: int, coeffs=coefficients) -> list[LaurentPoly]:
    """Polynomials in u, v times a monomial, u = x1 * (monomial in x3..x6)
    and v = x1^f x2 * (monomial in x3..x6): dense supports on one lattice of
    rank at most 2 with pivots x1, x2, whose basis rows are sheared like
    those of y_N."""
    u = (1, 0) + draw(shears)
    v = (draw(st.integers(-1, 1)), 1) + draw(shears)
    out = []
    for _ in range(count):
        m = draw(shifts)
        out.append(LaurentPoly.from_exponent_terms(
            {tuple(e + i * a + j * b for e, a, b in zip(m, u, v)): c
             for (i, j), c in draw(grids(coeffs)).items()}))
    return out


def packed_mul(a: LaurentPoly, b: LaurentPoly):
    return laurent._packed_mul(a, b, laurent._pair_lattice(a, b))


def packed_div(num: LaurentPoly, den: LaurentPoly):
    return laurent._packed_div(num, den, laurent._pair_lattice(num, den))


def always_packed():
    """Lift the density test, so that every product and quotient whose
    lattice is usable is packed."""
    return mock.patch.object(laurent, "_PACK_DENSITY", 1 << 30)


@settings(max_examples=60, deadline=None)
@given(lattice_polys(2))
def test_packed_product_matches_schoolbook(ab):
    a, b = ab
    with always_packed():
        got = packed_mul(a, b)
    assert got is not None
    assert got == laurent._schoolbook_mul(a._terms, b._terms)


@settings(max_examples=60, deadline=None)
@given(lattice_polys(2))
def test_packed_quotient_matches_elimination(ab):
    a, b = ab
    num = a * b
    with always_packed():
        assert packed_div(num, b) == a._terms
    (nlo, nhi), (dlo, dhi) = laurent._ranges(num._terms), laurent._ranges(b._terms)
    lo, hi = [s - t for s, t in zip(nlo, dlo)], [s - t for s, t in zip(nhi, dhi)]
    assert laurent._eliminate(num._terms, b._terms, lo, hi) == a._terms


@settings(max_examples=60, deadline=None)
@given(lattice_polys(2), st.integers(0, 1 << 10), coefficients)
def test_packed_division_refuses_an_inexact_quotient(ab, index, c):
    a, b = ab
    # a * b with one coefficient changed is not a multiple of b: b has at
    # least four terms, so it is not a unit
    product = a * b
    key = sorted(product._terms)[index % product.term_count()]
    num = product + LaurentPoly(_raw={key: c})
    with always_packed():
        try:
            got = packed_div(num, b)
        except NotDivisibleError:
            got = None
    assert got is None
    with pytest.raises(NotDivisibleError):
        num.exact_div(b)


@pytest.mark.parametrize("q, den, widths", [
    # quotient coefficients up to 184756 against the numerator's 48450
    ((ONE + x(1)) ** 20, ONE - x(1), [2, 4]),
    # 162 needs a second byte, and its carry lands between the quotient's
    # rows, at x1^3, outside its pivot box
    (P("-9 x1^2 x2 + 162 x1^2 - 4 x1 x2 + 16 x1 + 2 x2"), P("x1 x2 - x1 + x2 + 1"), [1, 2]),
], ids=["binomial", "row-padding"])
def test_quotient_wider_than_numerator_doubles_the_width(monkeypatch, q, den, widths):
    num = q * den
    assert max(abs(c) for _, c in num.terms()).bit_length() <= 8 * widths[0]
    seen = []
    unpack = laurent.unpack_digits

    def recording(value, length, width):
        seen.append(width)
        return unpack(value, length, width)

    monkeypatch.setattr(laurent, "unpack_digits", recording)
    assert packed_div(num, den) == q._terms
    assert seen == widths
    assert num.exact_div(den) == q


def test_divisor_wider_than_numerator():
    # (1+x1)^11 has coefficients up to 462, its product with 1-x1 only 165,
    # so the digits must be sized for the divisor too
    den = (ONE + x(1)) ** 11
    num = den * (ONE - x(1))
    assert max(abs(c) for _, c in den.terms()) > max(abs(c) for _, c in num.terms())
    assert packed_div(num, den) == (ONE - x(1))._terms
    assert num.exact_div(den) == ONE - x(1)


def test_inexact_quotient_by_a_wider_divisor_is_not_divisible():
    with pytest.raises(NotDivisibleError):
        packed_div(P("x1 + 3"), P("x1 + 300"))
    with pytest.raises(NotDivisibleError):
        P("x1 + 3").exact_div(P("x1 + 300"))


@settings(max_examples=60, deadline=None)
@given(lattice_polys(1, st.integers(-2, 2).filter(bool)), shifts, st.integers(6, 14))
def test_packed_quotient_by_a_wider_divisor(b, m, k):
    """Divisors b (1+x1)^k whose coefficients exceed those of the
    numerator (1-x1) b (1+x1)^k times a monomial."""
    (b,) = b
    q = (ONE - x(1)) * LaurentPoly.monomial(1, m)
    den = b * (ONE + x(1)) ** k
    num = q * den
    assert max(abs(c) for _, c in den.terms()) > max(abs(c) for _, c in num.terms())
    with always_packed():
        assert packed_div(num, den) == q._terms
    assert num.exact_div(den) == q


def test_sparse_high_rank_product_is_not_packed():
    a = sum((LaurentPoly.var(i, 10) for i in range(1, 7)), LaurentPoly.one())
    assert packed_mul(a, a) is None
    assert a * a == LaurentPoly(_raw=laurent._schoolbook_mul(a._terms, a._terms))


def test_rank_zero_lattice_cannot_hold_a_packed_operand():
    # a rank-0 lattice holds one point per coset, so no two-term operand
    with pytest.raises(ArithmeticError):
        laurent._packed_mul(x(1) + x(2), x(3) + x(4), ([], []))
    with pytest.raises(ArithmeticError):
        laurent._packed_div(x(1) * x(3) + x(2) * x(4), x(3) + x(4), ([], []))


def test_rank_zero_lift_is_the_base_point():
    base = (1, 0, -2, 0, 0, 3)
    assert laurent.lift_pivots(base, [], [], []) == [laurent.pack_exponents(base)]


def test_quiver_routes_match_dict_arithmetic(monkeypatch):
    """The seed route and the recurrence, computed packed and again with
    every product and quotient forced through the dict loops."""
    packed = []
    for name in ("_packed_mul", "_packed_div"):
        def counting(*args, _f=getattr(laurent, name)):
            out = _f(*args)
            packed.append(out is not None)
            return out
        monkeypatch.setattr(laurent, name, counting)

    def both_routes():
        with empty_recurrence_memo():
            return run_periodic_sequence(24).entries, [recurrence_y(n) for n in range(1, 13)]

    fast = both_routes()
    assert len(packed) > 50 and all(packed)
    monkeypatch.setattr(laurent, "_PACK_DENSITY", 0)
    del packed[:]
    slow = both_routes()
    assert not any(packed)
    assert fast == slow


def assert_cached_support_holds(p: LaurentPoly):
    """The degree box a nonzero value carries is _ranges of its terms, and
    every term lifts through the lattice basis it carries."""
    assert tuple(p._degree_box()) == laurent._ranges(p._terms)
    basis, pivots = p._support_basis()
    keys = list(p._terms)
    if len(keys) == 1:
        assert basis == []
        return
    exps = [unpack_key(k) for k in keys]
    assert laurent.lift_pivots(exps[0], basis, pivots,
                               [[e[c] for e in exps] for c in pivots]) == keys


def test_cached_boxes_and_lattices_hold_on_the_quiver_values(monkeypatch):
    """Every value made while computing recurrence_y(1..14) and
    run_periodic_sequence(28), products, sums and quotients
    included."""
    made, given_at_birth = [], []
    init = LaurentPoly.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
        given_at_birth.append((self._box is not None, self._lattice is not None))

    monkeypatch.setattr(LaurentPoly, "__init__", recording)
    with empty_recurrence_memo():
        run_periodic_sequence(28)
        for n in range(1, 15):
            recurrence_y(n)
    monkeypatch.undo()
    # the operations that made them gave most of them a box, and every value
    # with more than one term its lattice (a share would move with the count
    # of monomials, which are made from dicts)
    boxes, lattices = zip(*given_at_birth)
    assert sum(boxes) > 0.6 * len(made)
    assert all(lattice for p, lattice in zip(made, lattices) if p.term_count() > 1)
    for p in filter(None, made):
        assert_cached_support_holds(p)


def assert_lattice_given_at_birth(p: LaurentPoly):
    """The operation that made p gave it a lattice, and every term lifts
    through it."""
    assert p._lattice is not None
    assert_cached_support_holds(p)


def rank(p: LaurentPoly) -> int:
    return len(p._support_basis()[0])


@settings(max_examples=60, deadline=None)
@given(lattice_polys(3), shifts, st.integers(0, 1 << 10))
# 1 - x1^3 spans only 3Z in x1; its quotient by 1 - x1 needs steps of 1
@example([P("1 + x1 + x1^2"), ONE, P("1 - x1")], (0,) * 6, 0)
def test_sums_and_quotients_carry_their_lattice(abc, m, index):
    """Sums and differences that cancel in part or in full, or whose
    summands lie in different cosets, and exact quotients (packed,
    eliminated and by a monomial) carry the lattice their operation gave."""
    a, b, c = abc
    p = a * b
    key = sorted(p._terms)[index % p.term_count()]
    one_term = LaurentPoly(_raw={key: p._terms[key]})
    for s in (p + c, p - c, (p + c) - c, p - one_term, one_term - p,
              p + p * LaurentPoly.monomial(1, m)):
        assert_lattice_given_at_birth(s)
    assert p - p == LaurentPoly.zero()
    assert (p + c) - c == p and (p - one_term).term_count() == p.term_count() - 1
    # p's lattice has pivots x1 and x2 only, so x3 leaves it
    assert rank(p + p * x(3)) == rank(p) + 1

    # a numerator made from its terms spans only their differences
    num = LaurentPoly(_raw=dict((p * c)._terms))
    with always_packed():
        packed = num.exact_div(c)
    with mock.patch.object(laurent, "_PACK_DENSITY", 0):
        eliminated = num.exact_div(c)
    mono = LaurentPoly.monomial(-3, m)
    for q in (packed, eliminated, (p * mono).exact_div(mono)):
        assert q == p
        assert_lattice_given_at_birth(q)


def test_no_value_finds_its_lattice_from_its_terms(capsys, monkeypatch):
    """Every value with more than one term made by the quiver routes and by
    every suite gets its lattice from the operation that made it."""
    found = []
    support_basis = LaurentPoly._support_basis

    def recording(self):
        if self._lattice is None and self.term_count() > 1:
            found.append(self.term_count())
        return support_basis(self)

    monkeypatch.setattr(LaurentPoly, "_support_basis", recording)
    # in-process, so that the diamond sums are made where they are recorded
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    with empty_recurrence_memo():
        run_periodic_sequence(28)
        for n in range(1, 15):
            recurrence_y(n)
        assert main(["verify", "--suite", "all", "--max-half-order", "8"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert found == []


def test_carried_lattices_are_spanned_by_the_terms():
    """The lattice y_N, y'_N and w(D) carry is the one their exponent
    differences span, so the pivot boxes (and the packing density) are
    those of the tightest lattice.  Two echelon bases span one lattice
    exactly when they and the echelon basis of their union have the same
    pivots and pivot entries."""
    def shape(lattice):
        return [(p, row[p]) for row, p in zip(*lattice)]

    values = [v for n in range(1, 15) for v in recurrence_y(n)]
    scheme = default_scheme()
    values += [matchings.weighted_pm_sum(build_diamond(n, primed, scheme))
               for n in range(1, 11) for primed in (False, True)]
    for v in values:
        carried = v._lattice
        spanned = LaurentPoly(_raw=dict(v._terms))._support_basis()
        assert shape(carried) == shape(spanned) == shape(laurent.echelon(carried[0] + spanned[0]))


# -- integer kernels ------------------------------------------------------------------

divisors = st.builds(lambda d, z: d << z, st.integers(-(1 << 200), 1 << 200).filter(bool),
                     st.integers(0, 9))


@settings(max_examples=300)
@given(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(1 << 400), 1 << 400)), divisors,
       st.integers(-(1 << 12), 1 << 12))
@example(0, 12, 0)
@example(1, -(5 << 70), 1)
@example(-1, 6, 3)
def test_exact_quotient_matches_divmod(q, d, r):
    """divmod's quotient when the remainder is 0, else None: both signs,
    even divisors, a zero numerator, 0- and 1-bit quotients (q in 0, +-1),
    and numerators r shorter than the divisor."""
    for num in (q * d, q * d + r, r):
        quot, rem = divmod(num, d)
        assert laurent._exact_quotient(num, d) == (None if rem else quot)


@given(st.integers(1, 5).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    st.integers(-(1 << 8 * w - 1) + 1, (1 << 8 * w - 1) - 1), max_size=30))))
def test_unpack_digits_matches_the_digit_loop(wd):
    """Random balanced digit strings, |d| < 256**w / 2, read back at every
    length up to two past the last digit: None below the last nonzero one."""
    w, digits = wd
    value = sum(d << 8 * w * i for i, d in enumerate(digits))
    nonzero = [i for i, d in enumerate(digits) if d]
    for length in range(len(digits) + 3):
        got = laurent.unpack_digits(value, length, w)
        assert got == unpack_digits_by_loop(value, length, w)
        fits = not nonzero or nonzero[-1] < length
        assert got == ((nonzero, [digits[i] for i in nonzero]) if fits else None)
