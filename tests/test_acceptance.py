"""Acceptance criteria, one test per criterion.

Every assertion is exact (integer or Laurent polynomial equality); the two
criteria with stated time budgets assert them against a monotonic clock.
Each test prints a single PASS line on success so a -s run reads as a
checklist.
"""

import time

from dp3.calibration import calibrate
from dp3.diamonds import (
    boundary_vector,
    boundary_vector_closed,
    build_diamond,
    covering_monomial,
    covering_monomial_closed,
    face_vector,
    face_vector_closed,
)
from dp3.laurent import SIGMA, LaurentPoly
from dp3.matchings import (
    aggregate_enumeration,
    condensation_diamonds,
    count_pm,
    matchings_route_y,
    verify_condensation,
    weighted_pm_sum,
)
from dp3.quiver import (
    B0,
    MUTATION_CYCLE,
    initial_seed,
    mutate_matrix,
    mutate_seed,
    recurrence_y,
)
from support import parse_poly, perturbation_failures

MAX_N = 8
PM_COUNTS = {1: 2, 2: 4, 3: 16, 4: 64, 5: 512, 6: 4096, 7: 65536, 8: 1048576}


def _report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def mono(*labels):
    e = [0] * 6
    for l in labels:
        e[l - 1] += 1
    return LaurentPoly.monomial(1, e)


def test_criterion_1_matching_counts(scheme):
    t0 = time.monotonic()
    for n, want in PM_COUNTS.items():
        assert count_pm(build_diamond(n, False, scheme)) == want
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"count budget exceeded: {elapsed:.1f}s"
    _report("criterion-1 matching counts",
            f"m=1/2..4 -> {sorted(PM_COUNTS.values())}, {elapsed:.2f}s")


def test_criterion_2_main_theorem(scheme):
    t0 = time.monotonic()
    for n in range(1, MAX_N + 1):
        y, yp = recurrence_y(n)
        assert matchings_route_y(n, False, scheme) == y, f"y_{n} mismatch"
        assert matchings_route_y(n, True, scheme) == yp, f"y'_{n} mismatch"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"theorem budget exceeded: {elapsed:.1f}s"
    _report("criterion-2 main theorem",
            f"recurrence == w*m for N <= {MAX_N}, primed and unprimed, {elapsed:.2f}s")


def test_criterion_3_specialization(scheme):
    for n in range(1, MAX_N + 1):
        assert recurrence_y(n)[0].evaluate() == PM_COUNTS[n]
    _report("criterion-3 specialization", f"y_N(1,...,1) = |PM(D_N/2)| for N <= {MAX_N}")


def test_criterion_4_quiver_behavior():
    b = B0
    for k in MUTATION_CYCLE:
        b = mutate_matrix(b, k)
    assert b == B0

    for a in (1, 2, 3):
        pair = {a, SIGMA(a)}
        got = mutate_matrix(mutate_matrix(B0, a), SIGMA(a))
        want = tuple(tuple(-B0[i][j] if (i + 1 in pair) != (j + 1 in pair) else B0[i][j]
                           for j in range(6)) for i in range(6))
        assert got == want, f"pair mutation at ({a}, sigma({a}))"

    seed = initial_seed()
    for s in range(2 * MAX_N):
        k = MUTATION_CYCLE[s % 6]
        seed = mutate_seed(seed, k)
        n = s // 2 + 1
        assert seed.cluster[k - 1] == recurrence_y(n)[s % 2], f"seed step {s + 1}"

    for n in range(1, MAX_N + 1):
        y, yp = recurrence_y(n)
        assert yp == y.permute(SIGMA), f"y'_{n} != sigma(y_{n})"
    _report("criterion-4 quiver behavior",
            "period 6, pair negation, sigma pairing, seed == recurrence")


def test_criterion_5_weight_recursions(scheme):
    for n in range(3, 10):
        sums = {d: weighted_pm_sum(build_diamond(*d, scheme)) for d in condensation_diamonds(n)}
        lhs, rhs = verify_condensation(n, sums)
        assert lhs == rhs, f"the weight recursion fails at N={n}"
    _report("criterion-5 weight recursions", "N=3..9, exact")


def test_criterion_6_covering_monomials(scheme):
    for n in range(2, 12):  # integer and half orders through n = 5
        assert face_vector(n, False, scheme) == face_vector_closed(n)
        assert boundary_vector(n, False, scheme) == boundary_vector_closed(n)
        assert covering_monomial(n, False, scheme) == covering_monomial_closed(n)
    assert covering_monomial(1, False, scheme) == mono(1, 2, 3, 5, 6)
    assert covering_monomial(0, False, scheme) == mono(3)

    m = lambda k, p=False: covering_monomial(k, p, scheme)
    for n in range(2, 6):
        lhs = m(2 * n) * m(2 * n - 3)
        assert lhs == m(2 * n - 1) * m(2 * n - 2) * mono(1, 2, 3, 4, 5, 6)
        assert lhs == m(2 * n - 1, True) * m(2 * n - 2, True) * mono(1, 2, 2, 3, 3, 5)
        assert lhs == LaurentPoly.monomial(1, (
            2 * n * n - 3 * n + 3, 2 * n * n - 3 * n + 3, 2 * n * n - n + 2,
            2 * n * n - 3 * n + 2, 2 * n * n - 3 * n + 3, 2 * n * n - n + 1))
    for n in range(1, 6):
        lhs = m(2 * n + 1) * m(2 * n - 2)
        assert lhs == m(2 * n) * m(2 * n - 1) * mono(1, 3, 2, 6, 4, 5)
        assert lhs == m(2 * n, True) * m(2 * n - 1, True) * mono(1, 3, 2, 3, 2, 5)
        assert lhs == LaurentPoly.monomial(1, (
            2 * n * n - n + 2, 2 * n * n - n + 2, 2 * n * n + n + 2,
            2 * n * n - n + 1, 2 * n * n - n + 2, 2 * n * n + n + 1))
    _report("criterion-6 covering monomials",
            "f/h/m closed forms and both recursions, n <= 5, exact")


def test_criterion_7_oracle_equivalence(scheme):
    graphs = 0
    for n in range(1, 5):
        for primed in (False, True):
            g = build_diamond(n, primed, scheme)
            dp = weighted_pm_sum(g, "yx")
            assert dp == aggregate_enumeration(g), f"N={n} primed={primed}"
            assert dp == weighted_pm_sum(g, "xy")
            assert dp == weighted_pm_sum(g)
            assert count_pm(g, "yx") == count_pm(g, "xy") == count_pm(g)
            graphs += 1
    assert graphs == 8
    _report("criterion-7 oracle equivalence",
            "DP == enumeration on 8 graphs; DP independent of sweep order")


def test_criterion_8_calibration_soundness(scheme):
    fresh = calibrate()  # raises CalibrationError unless exactly one labeling survives
    assert fresh.labeling == scheme.labeling

    up, down = scheme.labeling.up, scheme.labeling.down
    perturbations = 0
    for slot in range(6):
        for new in range(1, 7):
            table = list(up) + list(down)
            if table[slot] == new:
                continue
            table[slot] = new
            assert perturbation_failures(tuple(table[:3]), tuple(table[3:])), \
                f"perturbed lambda slot {slot} -> {new} passes calibration"
            perturbations += 1
    assert perturbations == 30
    _report("criterion-8 calibration soundness",
            "unique survivor; all 30 single-entry perturbations break")


def test_criterion_9_positivity():
    for n in range(1, MAX_N + 1):
        y, yp = recurrence_y(n)
        assert y.min_coefficient() > 0, f"y_{n} has a nonpositive coefficient"
        assert yp.min_coefficient() > 0, f"y'_{n} has a nonpositive coefficient"
    _report("criterion-9 positivity", f"all coefficients of y_N, y'_N positive, N <= {MAX_N}")


def test_half_diamond_weight_pinned(scheme):
    # anchor identity behind criteria 1-2: the label-2 square's two matchings
    got = weighted_pm_sum(build_diamond(1, False, scheme))
    assert got == parse_poly("x2^-2 x3^-1 x5^-1 + x1^-1 x2^-2 x6^-1")
    _report("anchor w(D_1/2)", str(got))
