"""Recovery of the face labeling and block scheme from computable oracles.

The lattice geometry fixes everything about the tiling except three data
that the construction pins only combinatorially: which label each of the six
face classes carries, how the four block types group faces, and where the
anchor block T(0,0) sits.  calibrate() searches all 720 labelings, derives
the (forced) block shapes for each, and keeps those passing, in order:

  1. sigma-relabeling under the 180-degree rotation,
  2. the closed-form block grid agreeing with geometric block adjacency,
  3. opposite boundary edges of a label-2 square facing labels {3,5}/{1,6},
  4. perfect matching counts of the four smallest diamonds (2, 4, 16, 64),
  5. covering monomial closed forms for those diamonds,
  6. the cluster identity y_1 = w(D_1/2) m(D_1/2).

Check 1 accepts 48 labelings, exactly those in which no face touches its
antipodal label (each face class touches all classes but its rotation
image), so octahedral adjacency needs no check of its own; check 1 is the
only one that ties ``rotate180`` to sigma.  Exactly one assignment
survives; anything else raises.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .diamonds import build_diamond, covering_monomial, covering_monomial_closed, pm_count_closed
from .laurent import SIGMA
from .matchings import count_pm, matchings_route_y
from .quiver import recurrence_y
from .tiling import (
    BlockScheme,
    BlockSchemeError,
    Face,
    Labeling,
    face_adjacency,
    rotate180,
)


class CalibrationError(RuntimeError):
    """No labeling, or several, satisfy all oracles: the lattice model is broken."""


def _rho_sigma_ok(lab: Labeling) -> bool:
    for up in (True, False):
        for c in range(3):
            for a, b in ((0, 0), (2, -1)):
                f = Face(a, b, up, c)
                if lab.label(rotate180(f)) != SIGMA(lab.label(f)):
                    return False
    return True


def _grid_ok(scheme: BlockScheme) -> bool:
    """Whether the closed form T(i, j) of ``scheme.block`` is the block grid.

    The geometric N/S/E/W neighbours of each T(i, j), i in {0, 1} and j in
    {-1, 0, 1, 2}, must be the formula's T(i, j+1), T(i, j-1), T(i+1, j)
    and T(i-1, j).  That window proves the formula for every (i, j):
    lattice translation by (1, 0) maps T(i, j) to T(i+2, j), and by (0, 1)
    maps T(i, j) to T(i+1, j+1).  Both preserve labels, and both preserve
    ``block_at_face``'s row regime as long as the rows involved stay on one
    side of the b = 0/1 boundary.  So every block with j <= -1 or j >= 2
    translates onto the window together with its neighbours, and local
    agreement holds everywhere.  Walking block adjacency out from the anchor
    T(0, 0) = ([254], 0, 0) therefore reproduces the formula, so this check
    is at least as strict as checking a walked grid against the parity rule.
    Rows 1 and 2 each reject a scheme that row 0 accepts (a test moves the
    [214] blocks one unit east).  Row -1 rests on the translation argument
    alone: no scheme moved by 1 or 2 units in one block type fails it alone.
    """
    block = scheme.block
    try:
        for i in (0, 1):
            for j in (-1, 0, 1, 2):
                want = {"N": block(i, j + 1), "S": block(i, j - 1),
                        "E": block(i + 1, j), "W": block(i - 1, j)}
                if scheme._instance_neighbors(*block(i, j)) != want:
                    return False
        scheme.s2()
        scheme.s3()
    except BlockSchemeError:
        return False
    return True


def _opposite_pairs_ok(scheme: BlockScheme) -> bool:
    # Opposite boundary edges of the label-2 square must face {3,5} and {1,6}.
    lab = scheme.labeling
    s2 = scheme.s2()
    nbrs = [lab.label(g) for g in face_adjacency(s2)]
    pairs = {frozenset((nbrs[0], nbrs[2])), frozenset((nbrs[1], nbrs[3]))}
    return pairs == {frozenset((3, 5)), frozenset((1, 6))}


def _oracle_failures(scheme: BlockScheme) -> Iterator[str]:
    """The oracles' failures in order, each computed only when asked for."""
    for n in range(1, 5):
        got = count_pm(build_diamond(n, False, scheme))
        want = pm_count_closed(n)
        if got != want:
            yield f"|PM(D_{n}/2)| = {got}, expected {want}"
    for n in range(1, 5):
        got = covering_monomial(n, False, scheme)
        want = covering_monomial_closed(n)
        if got != want:
            yield f"m(D_{n}/2) = {got}, expected {want}"
    y1 = recurrence_y(1)[0]
    got = matchings_route_y(1, False, scheme)
    if got != y1:
        yield f"w(D_1/2) m(D_1/2) = {got} != y_1 = {y1}"


def labeling_failures(lab: Labeling) -> list[str]:
    """The first reason a labeling fails calibration, as a one-element
    list; empty means it passes.  The checks run in the order of the module
    docstring and stop at the first that fails, oracles included.  Used
    both by the search and by the perturbation tests."""
    if not _rho_sigma_ok(lab):
        return ["180-degree rotation does not relabel by sigma"]
    try:
        scheme = BlockScheme.from_labeling(lab)
    except BlockSchemeError as e:
        return [f"no block scheme: {e}"]
    if not _grid_ok(scheme):
        return ["block grid disagrees with geometric block adjacency"]
    if not _opposite_pairs_ok(scheme):
        return ["label-2 square opposite neighbors are not {3,5}/{1,6}"]
    return list(itertools.islice(_oracle_failures(scheme), 1))


def calibrate() -> BlockScheme:
    """Exhaustively search the labelings and return the unique survivor."""
    survivors = []
    for perm in itertools.permutations(range(1, 7)):
        lab = Labeling(up=perm[:3], down=perm[3:])
        if not labeling_failures(lab):
            survivors.append(lab)
    if not survivors:
        raise CalibrationError("no labeling satisfies the calibration oracles")
    if len(survivors) > 1:
        raise CalibrationError(
            f"{len(survivors)} labelings survive calibration: {survivors}")
    return BlockScheme.from_labeling(survivors[0])


@functools.cache
def default_scheme() -> BlockScheme:
    """The calibrated scheme, computed once per process."""
    return calibrate()

