"""Seeded inputs for the three workloads.

Each workload draws from its own `random.Random` stream, keyed by the
workload name and the seed, so equal seeds give equal inputs on every
platform.  Inputs are chosen by their shape (wavevector norm, region,
distance to the cut), never by whether the program gets them right.
Every unit is plain JSON data so that a run can be replayed from its
result file; complex numbers are stored as [re, im].
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction

from eulerhill.evans import RootSearchConfig
from eulerhill.lattice import RegionTag, classify_rational
from eulerhill.monodromy import integrate_monodromy

#: Base wavevector norms p^2 of count_sweep (criterion-8 range).
COUNT_SWEEP_P_SQ = (5, 10, 13, 17, 25)
#: Norms p^2 <= 13 of root_refine's spectrum (p^2 = 1 has no classes).
ROOT_REFINE_P_SQ = (2, 5, 10, 13)
#: Norms of oracle_check's Jacobi wavevector.
ORACLE_P_SQ = tuple(range(25, 42))

#: Criterion-2 grid of the determinant-vs-monodromy comparison.
GRID_C = (2.0, 0.2j, 1j / math.sqrt(2.0), 0.1 + 0.2j, 0.5 + 0.7j)
GRID_MU = (0.0, 0.09, 0.25, 0.5, 1.0)
#: Near-cut points where the default half-width is known to be inaccurate.
ROADMAP_CUT = ((0.9 + 0.01j, 0.36), (0.95 + 0.005j, 0.16))
#: Seeded near-cut points per oracle_check round, and their box: x, y = Im c, mu.
SEEDED_CUT_POINTS = 40
CUT_BOX = ((0.8, 0.95), (0.005, 0.02), (0.1, 0.5))

MIN_CUT_DISTANCE = inspect.signature(integrate_monodromy).parameters["min_cut_distance"].default
#: Least distance of an off-lattice draw from the three unit circles.  A
#: root pair is born at c = 0 on a circle and moves inward about twice as
#: fast as (theta, d) does, so draws nearer than eps_cut / 2 put roots
#: inside the search box's cut margin, where find_roots does not look.
CIRCLE_MARGIN = 5 * RootSearchConfig().eps_cut


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"eulerhill-bench/{workload}/{seed}")


def coprime_vectors(p_sq: int) -> list:
    """Coprime (p1, p2) with p1, p2 >= 1 and p1^2 + p2^2 = p_sq."""
    out = []
    for p1 in range(1, math.isqrt(p_sq) + 1):
        p2 = math.isqrt(p_sq - p1 * p1)
        if p2 >= 1 and p1 * p1 + p2 * p2 == p_sq and math.gcd(p1, p2) == 1:
            out.append((p1, p2))
    return out


def _checked_pair(p1: int, p2: int) -> list:
    if math.gcd(p1, p2) != 1:
        raise ValueError(f"generated wavevector ({p1}, {p2}) is not coprime")
    return [p1, p2]


def count_sweep_units(seed: int):
    """Endless stream of {"base", "partner"} wavevector pairs.

    The partner is the mirror (p2, p1) or the sign flip (p1, -p2) of the
    base; either has exactly the base's class data, so half the classes
    of every pair repeat.  Norms are drawn without replacement in blocks
    of five, so pairs within a block never share classes.
    """
    rng = _rng("count_sweep", seed)
    while True:
        norms = list(COUNT_SWEEP_P_SQ)
        rng.shuffle(norms)
        for p_sq in norms:
            p1, p2 = rng.choice(coprime_vectors(p_sq))
            partner = (p2, p1) if rng.random() < 0.5 else (p1, -p2)
            yield {"base": _checked_pair(p1, p2), "partner": _checked_pair(*partner)}


def _region_draw(rng: random.Random, region: RegionTag) -> dict:
    """(theta, d) in `region`, theta in [0, 1/2], d in [0.3, 0.9], off the circles."""
    while True:
        theta = rng.uniform(0.0, 0.5)
        d = rng.uniform(0.3, 0.9)
        gap = min(abs(math.hypot(theta + l, d) - 1.0) for l in (-1, 0, 1))
        if gap >= CIRCLE_MARGIN and classify_rational(Fraction(theta), Fraction(d)) is region:
            return {"kind": "draw", "theta": theta, "d": d, "region": region.value,
                    "off_axis": False}


def root_refine_units(seed: int):
    """One spectrum of a small p, one off-axis quadruplet, then I/II draws."""
    rng = _rng("root_refine", seed)
    p1, p2 = rng.choice(coprime_vectors(rng.choice(ROOT_REFINE_P_SQ)))
    if rng.random() < 0.5:
        p2 = -p2
    yield {"kind": "spectrum", "p": _checked_pair(p1, p2)}
    # neighbourhood of criterion 6's (0.4, 0.6): four roots off both axes
    yield {"kind": "draw", "theta": rng.uniform(0.38, 0.42), "d": rng.uniform(0.58, 0.62),
           "region": RegionTag.REGION_II.value, "off_axis": True}
    while True:
        yield _region_draw(rng, RegionTag.REGION_I)
        yield _region_draw(rng, RegionTag.REGION_II)


def _near_cut_points(rng: random.Random, n: int) -> list:
    """`n` points x + iy, mu in a Latin hypercube over the near-cut box.

    Each coordinate's range is cut into n strata and every stratum gets
    one point, so each round covers the box evenly.  The RK4 step count
    depends on where a point lies; with independent uniform draws the
    RK4 work of a 40-point round varied by 5% (coefficient of
    variation), stratified by under 1%.
    """
    cols = []
    for lo, hi in CUT_BOX:
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([lo + (hi - lo) * (k + rng.random()) / n for k in strata])
    points = []
    for x, y, mu in zip(*cols):
        if y < MIN_CUT_DISTANCE:
            raise ValueError(f"near-cut point {complex(x, y)} is within {MIN_CUT_DISTANCE} of the cut")
        points.append([[x, y], mu])
    return points


def oracle_check_units(seed: int):
    """Endless stream of rounds: the 5x5 grid, near-cut points, one Jacobi p."""
    rng = _rng("oracle_check", seed)
    jacobi_ps = [p for p_sq in ORACLE_P_SQ for p in coprime_vectors(p_sq)]
    grid = [[[c.real, c.imag], mu] for c in map(complex, GRID_C) for mu in GRID_MU]
    roadmap = [[[c.real, c.imag], mu] for c, mu in ROADMAP_CUT]
    while True:
        cut = roadmap + _near_cut_points(rng, SEEDED_CUT_POINTS)
        p1, p2 = rng.choice(jacobi_ps)
        yield {"grid": grid, "cut": cut, "jacobi_p": _checked_pair(p1, p2)}


UNIT_STREAMS = {
    "count_sweep": count_sweep_units,
    "root_refine": root_refine_units,
    "oracle_check": oracle_check_units,
}
