"""Exact Laurent polynomial arithmetic in the six cluster variables x1..x6.

A Laurent polynomial is a finite sum of integer multiples of monomials
x1^e1 ... x6^e6 with integer (possibly negative) exponents.  It is stored as
a dict mapping a packed exponent key to a nonzero arbitrary precision
integer coefficient, so equality is dict equality and no zero coefficient is
ever stored.

Exponent packing: each of the six exponents is biased by 2**23 and stored
in its own 24-bit field, x1 in the most significant field.  Packed keys
therefore compare like exponent vectors in lexicographic order (x1 most
significant), and monomial multiplication is a single integer addition.
Exponents must stay below 2**22 in magnitude; a product, power or quotient
whose exponents would leave that range raises OverflowError.

Products and quotients of dense polynomials are computed on big integers
(a Kronecker substitution).  The exponent differences within each operand
span a lattice ``L``; every operand lies in one coset of ``L``, and so do
the product and any exact quotient (cosets of ``L`` cannot cancel against
each other, and the Laurent ring is a domain).  ``echelon`` gives a basis
of ``L`` whose pivot exponents determine a point of a coset.  Each operand
becomes one integer: a coefficient is one digit, of a fixed number of bytes
and balanced around zero, at the mixed-radix position of its pivot
exponents in the result's pivot box.  One multiplication or exact division
of Python integers then does the work; the digits are read back with one
``to_bytes`` pass (``unpack_digits``) and lifted to packed keys through
the basis (``lift_pivots``), both shared with the weighted matching sum.

A product is exact by construction: the box's widths are the sums of the
operands', so positions never wrap, and the digit width holds the largest
possible coefficient.  A quotient is exact only by proof.  The integer
quotient is found 2-adically (``_exact_quotient``): from the low end, with
a Newton-iterated inverse of the divisor's odd part, in Karatsuba products
rather than CPython's quadratic long division, and it is accepted only once
``q * den == num`` holds on the integers.  When none exists, that proves no
exact Laurent quotient exists, because an exact one makes the packed
equation hold at every width.  Otherwise the decoded quotient is returned
only after ``q * den == num`` is shown on packed integers at a width that
holds every coefficient of both sides; a failed decode or proof doubles
the width a few times and then leaves the call to leading-term
elimination.

Packing pays only when the pivot box is dense: sparse supports of high
rank make it exponentially large.  So a product (quotient) is packed only
when its box holds at most _PACK_DENSITY digits per pair of operand terms
(per numerator term); otherwise the dict schoolbook loop (the
elimination) runs.  A monomial operand shifts the other's keys in one pass.

Each value carries its degree box (per-variable lowest and highest
exponents) and a lattice it lies in one coset of, under one rule: the
operation that made the value gives them, else they are found from its
terms on first use (the lattice as ``echelon`` of its exponent
differences).  A product's box and lattice are the sums of its
factors'; an exact quotient's box is the difference of the operands' and
its lattice their sum.  A sum's lattice is the sum of the summands' plus
the difference of their first exponent vectors, since cancellation only
removes terms.  A monomial factor or divisor and a negation keep the
lattice, and a weighted matching sum gets the one its decoding lifted every
term through; a permutation, which only the sigma checks compare, starts
with neither.  So each ``y_N`` has its box and
lattice computed at most once, however often it is an operand.

All values are immutable after construction (the cached box and lattice
are idempotent fills); every operation returns a new
polynomial, so values can be shared freely between threads.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

N_VARS = 6

_FIELD_BITS = 24
_BIAS = 1 << 23
_MASK = (1 << _FIELD_BITS) - 1
_SHIFTS = tuple(_FIELD_BITS * (N_VARS - 1 - i) for i in range(N_VARS))

# Key of the unit monomial; k1 + k2 - UNIT_KEY adds exponent vectors.
UNIT_KEY = sum(_BIAS << s for s in _SHIFTS)

_EXP_LIMIT = 1 << 22

# A product (quotient) is packed only when its pivot box holds at most this
# many digits per pair of operand terms (per numerator term); sparse
# high-rank supports would make the box exponentially large.  The y_N of
# the quiver and theorem suites need at most 0.75 (1.25), so the bound has
# room to spare; only sparse input reaches the dict loops.
_PACK_DENSITY = 8
# A packed division that cannot decode or prove its quotient doubles the
# digit width at most this many times before handing over to elimination.
_MAX_DOUBLINGS = 3

class NotDivisibleError(ArithmeticError):
    """Raised when an exact Laurent quotient does not exist."""


def pack_exponents(exps: Sequence[int]) -> int:
    if len(exps) != N_VARS:
        raise ValueError(f"expected {N_VARS} exponents, got {len(exps)}")
    key = 0
    for e, s in zip(exps, _SHIFTS):
        if not -_EXP_LIMIT < e < _EXP_LIMIT:
            raise OverflowError(f"exponent {e} out of packable range")
        key |= (e + _BIAS) << s
    return key


def unpack_key(key: int) -> tuple[int, ...]:
    return tuple(((key >> s) & _MASK) - _BIAS for s in _SHIFTS)


def label_exponents(labels: Iterable[int], power: int = 1) -> tuple[int, ...]:
    """Exponent vector of the product of x_l**power over the labels l, counted
    with repetition: power -1 gives edge and matching weights, +1 monomials
    built from face labels."""
    exps = [0] * N_VARS
    for l in labels:
        exps[l - 1] += power
    return tuple(exps)


class VarPermutation:
    """A permutation of the variable indices 1..6, acting via x_i -> x_image(i)."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        if sorted(image) != list(range(1, N_VARS + 1)):
            raise ValueError(f"not a permutation of 1..{N_VARS}: {image}")
        self.image = image

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __repr__(self) -> str:
        return f"VarPermutation({self.image})"


#: The 180-degree symmetry (15)(24)(36) of the quiver and the lattice.
SIGMA = VarPermutation((5, 4, 6, 2, 1, 3))


class LaurentPoly:
    """An exact Laurent polynomial in x1..x6 with integer coefficients."""

    __slots__ = ("_terms", "_box", "_lattice")

    def __init__(self, terms: Mapping[int, int] | None = None, *, _raw: dict | None = None,
                 _box=None, _lattice=None):
        # _raw is trusted to contain no zero coefficients, _box to be its
        # degree box and _lattice an echelon basis and pivots of a lattice
        # it lies in one coset of (internal fast path).
        if _raw is not None:
            self._terms = _raw
        else:
            self._terms = {k: c for k, c in (terms or {}).items() if c != 0}
        self._box = _box
        self._lattice = _lattice

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def var(i: int, power: int = 1) -> "LaurentPoly":
        """The monomial x_i**power, 1-based index."""
        if not 1 <= i <= N_VARS:
            raise ValueError(f"variable index {i} out of range 1..{N_VARS}")
        return LaurentPoly.monomial(1, label_exponents((i,), power))

    @staticmethod
    def monomial(coeff: int, exps: Sequence[int]) -> "LaurentPoly":
        if coeff == 0:
            return _ZERO
        return LaurentPoly(_raw={pack_exponents(exps): coeff})

    @staticmethod
    def from_exponent_terms(terms: Mapping[Sequence[int], int]) -> "LaurentPoly":
        return LaurentPoly({pack_exponents(e): c for e, c in terms.items()})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Iterate (exponent vector, coefficient) pairs in canonical order."""
        for k in sorted(self._terms, reverse=True):
            yield unpack_key(k), self._terms[k]

    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({UNIT_KEY: other} if other else {})
        return NotImplemented

    def _degree_box(self) -> tuple[list[int], list[int]]:
        """Per-variable lowest and highest exponents of a nonzero value,
        computed on first use unless the operation that made it knew them."""
        if self._box is None:
            self._box = _ranges(self._terms)
        return self._box

    def _support_basis(self) -> tuple[list[list[int]], list[int]]:
        """An echelon basis and pivots of a lattice the nonzero value lies in
        one coset of: the one the operation that made it gave it, else, on
        first use, ``echelon`` of its exponent differences."""
        if self._lattice is None:
            keys = iter(self._terms)
            key0 = next(keys)
            self._lattice = echelon(unpack_key(UNIT_KEY + k - key0) for k in keys)
        return self._lattice

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        a, b = self._terms, other._terms
        # every term of the sum lies in a0 + (La + Lb + Z(b0 - a0)), and
        # cancellation only removes terms
        lattice = echelon(self._support_basis()[0] + other._support_basis()[0]
                          + [unpack_key(UNIT_KEY + next(iter(b)) - next(iter(a)))])
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly(_raw=out, _lattice=lattice)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(_raw={k: -c for k, c in self._terms.items()}, _box=self._box,
                           _lattice=self._lattice)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        f, g = (self, other) if len(self._terms) >= len(other._terms) else (other, self)
        a, b = f._terms, g._terms
        (alo, ahi), (blo, bhi) = f._degree_box(), g._degree_box()
        # the degree box of a product is the sum of its factors' (a domain)
        box = [x + y for x, y in zip(alo, blo)], [x + y for x, y in zip(ahi, bhi)]
        _check_range(*box)
        if len(b) == 1:
            ((kb, cb),) = b.items()
            off = kb - UNIT_KEY
            return LaurentPoly(_raw={k + off: c * cb for k, c in a.items()}, _box=box,
                               _lattice=f._support_basis())
        # the product lies in one coset of the sum of its factors' lattices
        lattice = _pair_lattice(f, g)
        out = _packed_mul(f, g, lattice)
        return LaurentPoly(_raw=_schoolbook_mul(a, b) if out is None else out, _box=box,
                           _lattice=lattice)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported; use LaurentPoly.var(i, -k)")
        # start from the first factor, not from 1 times it, so that p ** 1
        # is p itself, with the box and lattice it has computed
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _ONE if result is None else result

    def exact_div(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den, raising NotDivisibleError if none exists.

        Exact quotients have, in every variable, max and min degree equal to
        the difference of the operands' max/min degrees; an empty such box
        proves inexactness, and the quotient keeps the box.  A monomial
        divisor shifts every term; a numerator dense in its pivot box goes
        through ``_packed_div``, whose integer quotient is taken 2-adically
        and proven by ``q * den == num``; anything else (or a packed
        division that cannot settle the quotient) through ``_eliminate``.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return _ZERO
        num, d = self._terms, den._terms
        (nlo, nhi), (dlo, dhi) = self._degree_box(), den._degree_box()
        lo = [x - y for x, y in zip(nlo, dlo)]
        hi = [x - y for x, y in zip(nhi, dhi)]
        if any(l > h for l, h in zip(lo, hi)):
            raise NotDivisibleError("no exact quotient (empty degree box)")
        _check_range(lo, hi)
        if len(d) == 1:
            ((kd, cd),) = d.items()
            off = kd - UNIT_KEY
            out = {}
            for k, c in num.items():
                q, r = divmod(c, cd)
                if r:
                    raise NotDivisibleError("coefficient not divisible")
                out[k - off] = q
            return LaurentPoly(_raw=out, _box=(lo, hi), _lattice=self._support_basis())
        # an exact quotient lies in one coset of the operands' lattice sum
        lattice = _pair_lattice(self, den)
        out = _packed_div(self, den, lattice)
        return LaurentPoly(_raw=_eliminate(num, d, lo, hi) if out is None else out,
                           _box=(lo, hi), _lattice=lattice)

    def permute(self, perm: VarPermutation) -> "LaurentPoly":
        """Apply x_i -> x_perm(i) to every monomial.  The biased exponent
        fields move as they are, since all share one bias.  The image finds
        its degree box and lattice on first use, if it is ever an operand."""
        keys = list(self._terms)
        out = [0] * len(keys)
        for s, j in zip(_SHIFTS, perm.image):
            t = _SHIFTS[j - 1]
            out = [a | (k >> s & _MASK) << t for a, k in zip(out, keys)]
        return LaurentPoly(_raw=dict(zip(out, self._terms.values())))

    def evaluate(self) -> int:
        """The value at x_1 = ... = x_6 = 1: the sum of the coefficients."""
        return sum(self._terms.values())

    def min_coefficient(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no coefficients")
        return min(self._terms.values())

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        s = format_poly(self)
        if len(s) > 120:
            s = f"<{len(self._terms)} terms> {s[:100]}..."
        return f"LaurentPoly({s!r})"


_ZERO = LaurentPoly(_raw={})
_ONE = LaurentPoly(_raw={UNIT_KEY: 1})


# -- dict arithmetic -------------------------------------------------------------


def _ranges(terms: dict[int, int]) -> tuple[list[int], list[int]]:
    """Per-variable lowest and highest exponent of a nonzero polynomial."""
    lo, hi = [], []
    for s in _SHIFTS:
        col = [k >> s & _MASK for k in terms]
        lo.append(min(col) - _BIAS)
        hi.append(max(col) - _BIAS)
    return lo, hi


def _check_range(lo: Sequence[int], hi: Sequence[int]) -> None:
    """Raise OverflowError unless every exponent in [lo, hi] is packable."""
    if min(lo) <= -_EXP_LIMIT or max(hi) >= _EXP_LIMIT:
        raise OverflowError(f"result exponents {lo}..{hi} out of packable range")


def _schoolbook_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for kb, cb in b.items():
        off = kb - UNIT_KEY
        for ka, ca in a.items():
            k = ka + off
            s = get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _eliminate(num: dict[int, int], den: dict[int, int], lo: list[int],
               hi: list[int]) -> dict[int, int]:
    """Iterated leading-term elimination under the canonical (lex) order.
    A tentative quotient term outside the degree box [lo, hi] proves
    inexactness, which also bounds the number of elimination steps."""
    rem = dict(num)
    den_items = list(den.items())
    kd = max(den)
    cd = den[kd]
    quot: dict[int, int] = {}
    while rem:
        kr = max(rem)
        cq, r = divmod(rem[kr], cd)
        if r:
            raise NotDivisibleError("leading coefficient not divisible")
        kq = kr - kd + UNIT_KEY
        eq = unpack_key(kq)
        if any(e < l or e > h for e, l, h in zip(eq, lo, hi)):
            raise NotDivisibleError("no exact quotient")
        quot[kq] = cq
        off = kq - UNIT_KEY
        for k, c in den_items:
            kk = k + off
            s = rem.get(kk, 0) - cq * c
            if s:
                rem[kk] = s
            else:
                del rem[kk]
    return quot


# -- lattice packing -------------------------------------------------------------


def echelon(vectors: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer row reduction: an echelon basis of the lattice the vectors
    span, each row's leading entry positive, and the leading columns."""
    rows = [list(v) for v in vectors if any(v)]
    basis, pivots = [], []
    for col in range(N_VARS):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv, others = live[0], live[1:]
            live = [piv]
            for r in others:
                k = r[col] // piv[col]
                r = [a - k * b for a, b in zip(r, piv)]
                if r[col]:
                    live.append(r)
                elif any(r):
                    rows.append(r)
        if live:
            piv = live[0] if live[0][col] > 0 else [-a for a in live[0]]
            basis.append(piv)
            pivots.append(col)
    return basis, pivots


def _offset(exps: Sequence[int]) -> int:
    """The packed-key offset of an exponent vector: key(e + f) = key(e) +
    _offset(f), for any integers as long as the sum stays packable."""
    return sum(e << s for e, s in zip(exps, _SHIFTS))


def lift_pivots(base: Sequence[int], basis, pivots, qs: list[list[int]]) -> list[int] | None:
    """Packed keys of the points of the coset ``base + L``, ``L`` spanned
    by the echelon ``basis``, whose pivot exponents are the columns ``qs``
    (``qs[j][i]`` the exponent of x at ``pivots[j]`` of the i-th point), or
    None when some column entry is off the coset.  The pivot exponents of a
    point determine it, because each basis row is zero left of its pivot,
    so a result the lift succeeds on lies in that one coset: the packed
    arithmetic and the weighted matching sum give it ``L``.  The keys are
    exact whenever the points' exponents are packable."""
    # coords[j][i]: the coefficient of basis[j] in point i minus base
    coords: list[list[int]] = []
    for row, p, col in zip(basis, pivots, qs):
        x = [q - base[p] for q in col]
        for prev, c in zip(basis, coords):
            m = prev[p]
            if m:
                x = [a - m * b for a, b in zip(x, c)]
        d = row[p]
        if d != 1:
            c = [a // d for a in x]
            if any(a != d * b for a, b in zip(x, c)):
                return None
            x = c
        coords.append(x)
    # a rank-0 lattice has no columns: its coset is the one point base
    keys = [UNIT_KEY + _offset(base)] * (len(qs[0]) if qs else 1)
    for row, c in zip(basis, coords):
        k = _offset(row)
        keys = [a + b * k for a, b in zip(keys, c)]
    return keys


def _pair_lattice(a: LaurentPoly, b: LaurentPoly) -> tuple[list[list[int]], list[int]]:
    """An echelon basis and pivots of the sum of the operands' support
    lattices."""
    return echelon(a._support_basis()[0] + b._support_basis()[0])


def _positions(terms: dict[int, int], pivots, lows, radix) -> list[int]:
    """Mixed-radix digit positions of the terms: sum_j (q_j - lows[j]) *
    radix[j], q_j the term's exponent of x at pivots[j]."""
    pos = [0] * len(terms)
    for p, low, r in zip(pivots, lows, radix):
        s, low = _SHIFTS[p], low + _BIAS
        pos = [a + ((k >> s & _MASK) - low) * r for a, k in zip(pos, terms)]
    return pos


def _pack(positions: Sequence[int], coeffs: Iterable[int], length: int, width: int) -> int:
    """sum c * 256**(width * i) over the (position i, coefficient c) pairs,
    all positions below ``length`` and all |c| < 256**width.  Positive and
    negative coefficients are packed apart, each in one linear conversion."""
    pos, neg = bytearray(length * width), None
    for i, c in zip(positions, coeffs):
        i *= width
        if c > 0:
            pos[i:i + width] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(length * width)
            neg[i:i + width] = (-c).to_bytes(width, "little")
    value = int.from_bytes(pos, "little")
    return value if neg is None else value - int.from_bytes(neg, "little")


def unpack_digits(value: int, length: int, width: int) -> tuple[list[int], list[int]] | None:
    """The nonzero digits of ``value`` in base 256**width, balanced: each in
    [-256**width / 2, 256**width / 2).  Returns position and coefficient
    lists, or None when it needs more than ``length`` digits.  Adding the
    constant with byte 0x80 at the top of every digit turns each balanced
    digit into an unsigned one, so one linear conversion to bytes and one
    slice per digit read them all.  The decoder of both the packed Laurent
    arithmetic and the weighted matching sum."""
    value += int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    if value < 0 or value.bit_length() > 8 * width * length:
        return None
    data = value.to_bytes(width * length, "little")
    from_bytes, half = int.from_bytes, 1 << 8 * width - 1
    digits = [from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    positions = [i for i, d in enumerate(digits) if d != half]
    return positions, [digits[i] - half for i in positions]


def _radix(widths: Sequence[int]) -> list[int]:
    radix = [1]
    for w in widths[:-1]:
        radix.append(radix[-1] * w)
    return radix


def _pivot_box(value: LaurentPoly, pivots) -> tuple[list[int], list[int]]:
    """The lowest pivot exponents and the pivot ranges of a nonzero value.
    Raises ArithmeticError when the value has more terms than its pivot box
    has points: the pivot exponents of a point of one coset of the lattice
    determine it, so the lattice cannot hold the value."""
    lo, hi = value._degree_box()
    lows, widths = [lo[p] for p in pivots], [hi[p] - lo[p] + 1 for p in pivots]
    if len(value._terms) > prod(widths):
        raise ArithmeticError("a packed operand does not lie in one coset of the lattice")
    return lows, widths


def _norms(coeffs: Iterable[int]) -> tuple[int, int]:
    mags = [abs(c) for c in coeffs]
    return max(mags), sum(mags)


def digit_bytes(bound: int) -> int:
    """Bytes per digit that hold every coefficient of magnitude at most
    ``bound`` as a balanced digit, sign included."""
    return bound.bit_length() // 8 + 1


def _product_width(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Digit width for every coefficient of a product of polynomials with
    (max, sum) coefficient magnitudes ``a`` and ``b``."""
    return digit_bytes(min(a[0] * b[1], a[1] * b[0]))


def _packed_mul(a: LaurentPoly, b: LaurentPoly, lattice) -> dict[int, int] | None:
    """The product by one big-integer multiplication, or None when the
    operands' pivot box is too sparse for packing.  ``lattice`` is their
    ``_pair_lattice``.

    Both operands are packed with the mixed radix of the product's pivot
    box, whose widths are the sums of theirs, so positions add without
    wrapping; the digit width holds every product coefficient, so the
    balanced digits of the integer product are its coefficients.  Raises
    ArithmeticError when ``lattice`` cannot hold an operand or the product
    (it is not their ``_pair_lattice``)."""
    basis, pivots = lattice
    alo, aw = _pivot_box(a, pivots)
    blo, bw = _pivot_box(b, pivots)
    a, b = a._terms, b._terms
    widths = [x + y - 1 for x, y in zip(aw, bw)]
    size = prod(widths)
    if size > _PACK_DENSITY * len(a) * len(b):
        return None
    radix = _radix(widths)
    width = _product_width(_norms(a.values()), _norms(b.values()))
    apos = _positions(a, pivots, alo, radix)
    bpos = _positions(b, pivots, blo, radix)
    value = (_pack(apos, a.values(), max(apos) + 1, width)
             * _pack(bpos, b.values(), max(bpos) + 1, width))
    positions, coeffs = unpack_digits(value, size, width)
    qs = [[low + i // r % w for i in positions] for low, r, w in zip(
        [x + y for x, y in zip(alo, blo)], radix, widths)]
    base = [x + y for x, y in zip(unpack_key(next(iter(a))), unpack_key(next(iter(b))))]
    keys = lift_pivots(base, basis, pivots, qs)
    if keys is None:
        raise ArithmeticError("packed product left the lattice of its operands")
    return dict(zip(keys, coeffs))


def _odd_inverse(d: int, bits: int) -> int:
    """The inverse of an odd ``d`` modulo 2**bits, by Newton's iteration:
    if d * inv == 1 + 2**m * e (mod 2**p), m >= p / 2, then d * (inv -
    2**m * inv * e) == 1 (mod 2**p), so each step doubles the correct bits."""
    precisions = [bits]
    while precisions[-1] > 3:
        precisions.append(precisions[-1] + 1 >> 1)
    inv = d & 7  # d * d == 1 (mod 8)
    for p in reversed(precisions[:-1]):
        m = p + 1 >> 1
        e = (d & (1 << p) - 1) * inv >> m & (1 << p - m) - 1
        inv = inv - ((inv * e & (1 << p - m) - 1) << m) & (1 << p) - 1
    return inv


def _exact_quotient(num: int, den: int) -> int | None:
    """num // den when den (nonzero) divides num, else None.

    Exact division from the low end (Jebelean, J. Symbolic Comput. 15,
    1993).  Once the trailing zero bits are stripped, |den| is odd, and an
    exact quotient is |num| times the inverse of |den| modulo 2**k, k the
    most bits the quotient can have.  It is taken in blocks of a third of
    den's bits, each one product with the inverse modulo the block size,
    while r = |num| - q * |den| is kept exactly; q is returned only when r
    ends at 0, which is q * den == num on the integers.  A few Karatsuba
    products replace CPython's quadratic long division."""
    if not num:
        return 0
    shift = (den & -den).bit_length() - 1
    r, d = abs(num), abs(den) >> shift
    if r & (1 << shift) - 1:
        return None
    r >>= shift
    k = r.bit_length() - d.bit_length() + 1
    if k < 1:
        return None
    step = min(k, -(-d.bit_length() // 3))
    inv = _odd_inverse(d, step)
    q = 0
    for i in range(0, k, step):
        mask = (1 << min(step, k - i)) - 1
        block = (r >> i & mask) * inv & mask
        r -= block * d << i
        q |= block << i
    if r:
        return None
    return -q if (num < 0) != (den < 0) else q


def _packed_div(num: LaurentPoly, den: LaurentPoly, lattice) -> dict[int, int] | None:
    """The exact quotient by one exact division of big integers, or None
    when packing does not apply or cannot settle it; ``lattice`` is the
    operands' ``_pair_lattice``.  Raises NotDivisibleError on an empty
    quotient pivot box or when the packed divisor does not divide the packed
    numerator.

    Everything is packed with the mixed radix of the numerator's pivot box.
    An exact quotient ``q`` lies in the coset of num's base minus den's, in
    the box of pivot ranges num's minus den's, so ``pack(num) = pack(q) *
    pack(den)`` at every digit width: an integer quotient that does not
    exist proves there is none.  Otherwise the integer quotient is decoded
    and lifted; the result is returned only once ``q * den == num`` is
    proven by comparing packed integers at a digit width that holds every
    coefficient of both sides, with q's pivot exponents inside the box
    (then packing is injective and a ring homomorphism).  When the width of
    the division already holds them, its own exact equation is that
    comparison.  A failed decode or proof doubles the width, up to
    _MAX_DOUBLINGS times."""
    basis, pivots = lattice
    nlo, nw = _pivot_box(num, pivots)
    dlo, dw = _pivot_box(den, pivots)
    num, den = num._terms, den._terms
    qw = [x - y + 1 for x, y in zip(nw, dw)]
    if min(qw) < 1:
        raise NotDivisibleError("no exact quotient (empty pivot box)")
    size = prod(nw)
    if size > _PACK_DENSITY * len(num):
        return None
    radix = _radix(nw)
    npos = _positions(num, pivots, nlo, radix)
    dpos = _positions(den, pivots, dlo, radix)
    qsize = sum((w - 1) * r for w, r in zip(qw, radix)) + 1
    qlo = [x - y for x, y in zip(nlo, dlo)]
    base = [x - y for x, y in zip(unpack_key(next(iter(num))), unpack_key(next(iter(den))))]
    nnorms, dnorms = _norms(num.values()), _norms(den.values())
    # num's and den's digits need only fit unsigned; q's are balanced, with
    # a sign, and may need more
    width = -(-max(nnorms[0], dnorms[0]).bit_length() // 8)
    for _ in range(_MAX_DOUBLINGS + 1):
        quot = _exact_quotient(_pack(npos, num.values(), size, width),
                               _pack(dpos, den.values(), max(dpos) + 1, width))
        if quot is None:
            raise NotDivisibleError("no exact quotient (packed divisor does not divide)")
        digits = unpack_digits(quot, qsize, width)
        if digits is not None:
            positions, coeffs = digits
            coords = [[i // r % w for i in positions] for r, w in zip(radix, nw)]
            if all(max(c) < w for c, w in zip(coords, qw)):
                keys = lift_pivots(base, basis, pivots,
                                   [[low + x for x in c] for low, c in zip(qlo, coords)])
                proof = max(_product_width(_norms(coeffs), dnorms), digit_bytes(nnorms[0]))
                if keys is not None and (proof <= width or (
                        _pack(positions, coeffs, qsize, proof)
                        * _pack(dpos, den.values(), max(dpos) + 1, proof)
                        == _pack(npos, num.values(), size, proof))):
                    return dict(zip(keys, coeffs))
        width *= 2
    return None


class _FactorTexts(dict):
    """x_i's factor text by biased exponent field, filled as fields are met."""

    def __init__(self, i: int):
        self.x = f" x{i}"

    def __missing__(self, field: int) -> str:
        e = field - _BIAS
        text = self[field] = "" if e == 0 else self.x if e == 1 else f"{self.x}^{e}"
        return text


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms sorted by exponent vector descending, with
    exponent fields read from the packed keys through per-call text tables."""
    terms = p._terms
    if not terms:
        return "0"
    t1, t2, t3, t4, t5, t6 = map(_FactorTexts, range(1, N_VARS + 1))
    s1, s2, s3, s4, s5, _ = _SHIFTS
    out = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        head = f" + {c}" if c > 0 else f" - {-c}"
        if (c == 1 or c == -1) and key != UNIT_KEY:
            head = head[:2]  # a unit coefficient shows on the constant term only
        out.append(f"{head}{t1[key >> s1]}{t2[key >> s2 & _MASK]}{t3[key >> s3 & _MASK]}"
                   f"{t4[key >> s4 & _MASK]}{t5[key >> s5 & _MASK]}{t6[key & _MASK]}")
    out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]  # no " + ", a bare "-"
    return "".join(out)
