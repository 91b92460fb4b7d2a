"""Exact Laurent polynomial arithmetic in the six cluster variables x1..x6.

A Laurent polynomial is a finite sum of integer multiples of monomials
x1^e1 ... x6^e6 with integer (possibly negative) exponents.  Internally a
polynomial is a dict mapping a packed exponent key to a nonzero arbitrary
precision integer coefficient, so equality is dict equality and no zero
coefficient is ever stored.

Exponent packing: each of the six exponents is biased by 2**23 and stored
in its own 24-bit field, x1 in the most significant field.  Packed keys
therefore compare like exponent vectors in lexicographic order (x1 most
significant), monomial multiplication is a single integer addition, and
dict operations stay cheap even for polynomials with many thousands of
terms.  Exponents must stay below 2**22 in magnitude, far beyond anything
the diamond computations produce.

All values are immutable after construction; every operation returns a new
polynomial, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

N_VARS = 6

_FIELD_BITS = 24
_BIAS = 1 << 23
_MASK = (1 << _FIELD_BITS) - 1
_SHIFTS = tuple(_FIELD_BITS * (N_VARS - 1 - i) for i in range(N_VARS))

# Key of the unit monomial; k1 + k2 - UNIT_KEY adds exponent vectors.
UNIT_KEY = sum(_BIAS << s for s in _SHIFTS)

_EXP_LIMIT = 1 << 22


class NotDivisibleError(ArithmeticError):
    """Raised when an exact Laurent quotient does not exist."""


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def __eq__(self, other) -> bool:
        return isinstance(other, VarPermutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"VarPermutation({self.image})"

    def is_involution(self) -> bool:
        return all(self.image[self.image[i - 1] - 1] == i for i in range(1, N_VARS + 1))


#: The 180-degree symmetry (15)(24)(36) of the quiver and the lattice.
SIGMA = VarPermutation((5, 4, 6, 2, 1, 3))


class LaurentPoly:
    """An exact Laurent polynomial in x1..x6 with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | None = None, *, _raw: dict | None = None):
        # _raw is trusted to contain no zero coefficients (internal fast path).
        if _raw is not None:
            self._terms = _raw
        else:
            self._terms = {k: c for k, c in (terms or {}).items() if c != 0}
        self._hash = None

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
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly(_raw={UNIT_KEY: c} if c else {})

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

    def coefficients(self) -> list[int]:
        return list(self._terms.values())

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def exponents_of_monomial(self) -> tuple[int, ...]:
        if len(self._terms) != 1:
            raise ValueError("not a monomial")
        (k,) = self._terms
        return unpack_key(k)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({UNIT_KEY: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly(_raw=out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(_raw={k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly(_raw=out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _ZERO
        if len(a) < len(b):
            a, b = b, a
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
        return LaurentPoly(_raw=out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise NotDivisibleError("negative powers exist only for monomials")
            (k,), (c,) = self._terms.keys(), self._terms.values()
            if abs(c) != 1:
                raise NotDivisibleError("negative powers need a unit coefficient")
            return LaurentPoly(_raw={UNIT_KEY + n * (k - UNIT_KEY): c ** (n & 1) if c < 0 else 1})
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def exact_div(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / den, raising NotDivisibleError if none exists.

        Iterated leading-term elimination under the canonical (lex) order.
        Exact quotients have, in every variable, max and min degree equal to
        the difference of the operands' max/min degrees; any tentative
        quotient term outside that box proves inexactness, which also bounds
        the number of elimination steps.
        """
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return _ZERO
        if len(den._terms) == 1:
            (kd,), (cd,) = den._terms.keys(), den._terms.values()
            off = kd - UNIT_KEY
            out = {}
            for k, c in self._terms.items():
                q, r = divmod(c, cd)
                if r:
                    raise NotDivisibleError("coefficient not divisible")
                out[k - off] = q
            return LaurentPoly(_raw=out)

        lo, hi = _degree_box(self, den)
        if any(l > h for l, h in zip(lo, hi)):
            raise NotDivisibleError("no exact quotient (empty degree box)")

        rem = dict(self._terms)
        den_items = list(den._terms.items())
        kd = max(den._terms)
        cd = den._terms[kd]
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
        return LaurentPoly(_raw=quot)

    def permute(self, perm: VarPermutation) -> "LaurentPoly":
        """Apply x_i -> x_perm(i) to every monomial."""
        img = perm.image
        out = {}
        for k, c in self._terms.items():
            e = unpack_key(k)
            new = [0] * N_VARS
            for i in range(N_VARS):
                new[img[i] - 1] = e[i]
            out[pack_exponents(new)] = c
        return LaurentPoly(_raw=out)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a point with all coordinates nonzero."""
        if len(point) != N_VARS:
            raise ValueError(f"expected {N_VARS} coordinates")
        pt = [Fraction(p) for p in point]
        if any(p == 0 for p in pt):
            raise ZeroDivisionError("evaluation point must avoid zero coordinates")
        if all(p == 1 for p in pt):
            return Fraction(sum(self._terms.values()))
        total = Fraction(0)
        for k, c in self._terms.items():
            v = Fraction(c)
            for p, e in zip(pt, unpack_key(k)):
                if e:
                    v *= p ** e
            total += v
        return total

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


def _degree_box(num: LaurentPoly, den: LaurentPoly) -> tuple[list[int], list[int]]:
    """Componentwise exponent bounds any exact quotient num/den must satisfy."""

    def spread(p: LaurentPoly) -> tuple[list[int], list[int]]:
        lo = [_EXP_LIMIT] * N_VARS
        hi = [-_EXP_LIMIT] * N_VARS
        for k in p._terms:
            for i, e in enumerate(unpack_key(k)):
                if e < lo[i]:
                    lo[i] = e
                if e > hi[i]:
                    hi[i] = e
        return lo, hi

    nlo, nhi = spread(num)
    dlo, dhi = spread(den)
    return [a - b for a, b in zip(nlo, dlo)], [a - b for a, b in zip(nhi, dhi)]


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms sorted by exponent vector descending."""
    if not p:
        return "0"
    parts: list[str] = []
    for exps, coeff in p.terms():
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e != 0:
                factors.append(f"x{i}^{e}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = " ".join(factors)
        if not parts:
            parts.append(f"-{term}" if coeff < 0 else term)
        else:
            parts.append(f"- {term}" if coeff < 0 else f"+ {term}")
    return " ".join(parts)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical grammar: poly := ['-'] term (('+'|'-') term)*.

    A term is an optional integer followed by whitespace-separated factors
    x<idx> or x<idx>^<int>.  Raises ParseError with the character position
    of the first offending token.
    """
    terms: dict[int, int] = {}
    pos = 0
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int, int]:
        start = i
        if i < n and text[i] in "+-":
            i += 1
        if i >= n or not text[i].isdigit():
            raise ParseError("expected integer", start)
        while i < n and text[i].isdigit():
            i += 1
        return int(text[start:i]), i

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty input", 0)
    sign = 1
    if text[pos] == "-":
        sign = -1
        pos = skip_ws(pos + 1)
    first = True
    while True:
        if not first:
            pos = skip_ws(pos)
            if pos == n:
                break
            if text[pos] == "+":
                sign = 1
            elif text[pos] == "-":
                sign = -1
            else:
                raise ParseError("expected '+' or '-' between terms", pos)
            pos = skip_ws(pos + 1)
        first = False

        coeff = sign
        exps = [0] * N_VARS
        saw_factor = False
        pos = skip_ws(pos)
        if pos < n and (text[pos].isdigit()):
            v, pos = read_int(pos)
            coeff = sign * v
            saw_factor = True
        while True:
            pos = skip_ws(pos)
            if pos >= n or text[pos] != "x":
                break
            xpos = pos
            pos += 1
            if pos >= n or not text[pos].isdigit():
                raise ParseError("expected variable index after 'x'", xpos)
            idx = 0
            while pos < n and text[pos].isdigit():
                idx = idx * 10 + int(text[pos])
                pos += 1
            if not 1 <= idx <= N_VARS:
                raise ParseError(f"variable index {idx} out of range", xpos)
            e = 1
            if pos < n and text[pos] == "^":
                e, pos = read_int(pos + 1)
            exps[idx - 1] += e
            saw_factor = True
        if not saw_factor:
            raise ParseError("expected a term", pos if pos < n else n - 1)
        k = pack_exponents(exps)
        s = terms.get(k, 0) + coeff
        if s:
            terms[k] = s
        else:
            terms.pop(k, None)
        pos = skip_ws(pos)
        if pos == n:
            break
    return LaurentPoly(_raw=terms)


def x(i: int) -> LaurentPoly:
    """Shorthand for the generator x_i."""
    return LaurentPoly.var(i)


ALL_ONES = (1,) * N_VARS
