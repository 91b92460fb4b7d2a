"""Seed mutation for the dP3 quiver and the period-6 cluster variable sequence.

The quiver has six nodes carrying the initial cluster x1..x6 and is encoded
by the skew-symmetric exchange matrix B0 below (1-based node labels).  The
180-degree symmetry sigma = (15)(24)(36) fixes B0, and there are no arrows
between antipodal node pairs.

Mutating cyclically at nodes 2, 4, 5, 1, 3, 6 returns the matrix to B0 and
produces the variables y_1, y'_1, y_2, y'_2, ... which alternatively follow
the closed three-term recurrence

    y_N y_{N-3} = y_{N-1} y_{N-2} + y'_{N-1} y'_{N-2},
    y'_N y'_{N-3} = y'_{N-1} y'_{N-2} + y_{N-1} y_{N-2},

with bases y_{-2}=x2, y'_{-2}=x4, y_{-1}=x5, y'_{-1}=x1, y_0=x3, y'_0=x6.
Both routes compute the right-hand side they share once; they must agree.
"""

from __future__ import annotations

from operator import is_
from typing import NamedTuple

from .laurent import LaurentPoly, exchange_binomial

BMatrix = tuple[tuple[int, ...], ...]

#: The largest N that ``recurrence_y``, ``run_periodic_sequence`` (2N
#: steps) and the matching route compute, and that ``dp3 export`` builds a
#: diamond for: a recurrence step's time grows about 1.6-fold per N, and
#: N = MAX_N takes about 40 s of CPU by the recurrence or the seed route
#: (Python 3.11, a 2-vCPU VM).
MAX_N = 26

#: Mutation order of the periodic sequence.
MUTATION_CYCLE = (2, 4, 5, 1, 3, 6)

#: The exchange matrix of the dP3 quiver, rows/columns 1-based nodes.
B0: BMatrix = (
    (0, -1, 1, 1, 0, -1),
    (1, 0, -1, 0, -1, 1),
    (-1, 1, 0, -1, 1, 0),
    (-1, 0, 1, 0, 1, -1),
    (0, 1, -1, -1, 0, 1),
    (1, -1, 0, 1, -1, 0),
)


def mutate_matrix(b: BMatrix, k: int) -> BMatrix:
    """Fomin-Zelevinsky matrix mutation at node k (1-based): b_ij changes sign
    if i or j is k, else gains (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    if not 1 <= k <= 6:
        raise ValueError(f"node index {k} out of range 1..6")
    k -= 1
    return tuple(tuple(-b[i][j] if k in (i, j)
                       else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                       for j in range(len(b))) for i in range(len(b)))


class Seed(NamedTuple):
    """An exchange matrix together with the cluster variables at its nodes;
    ``exchange`` (not part of its value) is what ``mutate_seed`` may reuse."""

    matrix: BMatrix
    cluster: tuple[LaurentPoly, ...]
    exchange: tuple | None = None

    def __eq__(self, other):
        return self[:2] == other[:2]

    def __ne__(self, other):  # tuple's own would compare exchange too
        return self[:2] != other[:2]


def initial_seed() -> Seed:
    return Seed(B0, tuple(LaurentPoly.var(i) for i in range(1, 7)))


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Mutate at node k: exchange binomial from column k, then exact division.
    A binomial that the mutation making ``seed`` computed is reused once, when
    column k picks the very same variable objects with the same or negated exponents."""
    b, cl = seed.matrix, seed.cluster
    matrix = mutate_matrix(b, k)  # before column k is read: it rejects k outside 1..6
    rows = [i for i in range(6) if b[i][k - 1]]
    factors, exps = [cl[i] for i in rows], [b[i][k - 1] for i in rows]
    old, old_exps, binomial = seed.exchange or ((), (), None)
    reused = (len(factors) == len(old) and all(map(is_, factors, old))
              and exps in (old_exps, [-e for e in old_exps]))
    if not reused:
        binomial = exchange_binomial(*([v ** (s * e) for v, e in zip(factors, exps) if s * e > 0]
                                       for s in (1, -1)))
    cluster = cl[: k - 1] + (binomial.exact_div(cl[k - 1]),) + cl[k:]
    # one sigma-pair per binomial: held through the next products, it raises peak memory
    return Seed(matrix, cluster, None if reused else (factors, exps, binomial))


#: recurrence_y's memo, (y_N, y'_N) by N, holding the bases N = -2, -1, 0
#: from the start; a value in it is never replaced.
_Y: dict[int, tuple[LaurentPoly, LaurentPoly]] = {
    -2: (LaurentPoly.var(2), LaurentPoly.var(4)),
    -1: (LaurentPoly.var(5), LaurentPoly.var(1)),
    0: (LaurentPoly.var(3), LaurentPoly.var(6)),
}


def check_order(n: int) -> None:
    """Raise ValueError unless N = n is within MAX_N, the bound of the
    recurrence, the seed route, the matching route and the diamond export."""
    if n > MAX_N:
        raise ValueError(f"N={n} is past N <= {MAX_N}, the bound on N of every dp3 command")


def recurrence_y(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The pair (y_N, y'_N) for -2 <= N <= MAX_N via the three-term exchange
    recurrence.

    Memoized in ``_Y``, which ``remember_y`` also fills; it computes each N
    up to n that the memo lacks, in order.  Results are immutable and the
    memo is only appended to, so concurrent readers always observe
    consistent values.
    """
    if n < -2:
        raise ValueError("recurrence defined for N >= -2 only")
    check_order(n)
    for m in range(1, n + 1):
        if m not in _Y:
            (y1, yp1), (y2, yp2), (y3, yp3) = _Y[m - 1], _Y[m - 2], _Y[m - 3]
            # the numerator of both: sigma maps it to itself
            num = exchange_binomial((y1, y2), (yp1, yp2))
            _Y.setdefault(m, (num.exact_div(y3), num.exact_div(yp3)))
    return _Y[n]


def remember_y(pairs: dict[int, tuple[LaurentPoly, LaurentPoly]]) -> None:
    """Put ``{N: (y_N, y'_N)}`` that ``recurrence_y`` computed in another
    process into its memo, keeping any pair the memo already holds."""
    for n, pair in pairs.items():
        _Y.setdefault(n, pair)


class YSequence(NamedTuple):
    """Variables harvested from the periodic mutation sequence, in order
    y_1, y'_1, y_2, y'_2, ..."""

    entries: tuple[LaurentPoly, ...]

    def y(self, n: int) -> LaurentPoly:
        return self.entries[2 * n - 2]

    def y_prime(self, n: int) -> LaurentPoly:
        return self.entries[2 * n - 1]


def run_periodic_sequence(steps: int) -> YSequence:
    """Mutate ``steps`` times through the cycle 2,4,5,1,3,6, harvesting the
    new variable of every step.  This is the seed-mutation route alone: it
    never consults the recurrence, so the two routes stay independent."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_order((steps + 1) // 2)
    seed = initial_seed()
    harvested = []
    for s in range(steps):
        k = MUTATION_CYCLE[s % 6]
        seed = mutate_seed(seed, k)
        harvested.append(seed.cluster[k - 1])
    return YSequence(tuple(harvested))
