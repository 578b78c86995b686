"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
all) and asserts both the stated tolerance and the stated runtime bound.
"""

import cmath
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from eulerhill import (
    DiscriminantConfig,
    ROOT_COUNT_BY_REGION,
    RegionTag,
    Wavevector,
    classify_rational,
    count_roots,
    find_roots,
    hill_determinant,
    report_to_json,
    s_at_origin,
    s_of_c,
    spectrum_report,
)
from eulerhill import checks
from eulerhill.evans import evans

DATA = Path(__file__).parent / "data"
N16 = DiscriminantConfig(half_width=16)


class Criterion:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.t0 = time.time()

    def finish(self, ok, detail):
        elapsed = time.time() - self.t0
        status = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({elapsed:6.1f}s / "
              f"limit {self.limit_s:g}s) {self.description}: {detail}")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.limit_s, (
            f"criterion {self.number}: runtime {elapsed:.1f}s over {self.limit_s}s"
        )


def test_criterion_01_closed_form_discriminant_at_origin():
    crit = Criterion(1, "closed-form discriminant at c=0", 5.0)
    crit.finish(*checks.closed_form_origin.run("full"))


def test_criterion_02_oracle_agreement():
    crit = Criterion(2, "determinant vs integration on the 5x5 grid", 30.0)
    crit.finish(*checks.oracle_agreement.run("full"))


def test_criterion_03_slope_formula():
    crit = Criterion(3, "slope of the discriminant at mu = 0", 10.0)
    crit.finish(*checks.slope_formula.run("full"))


def test_criterion_04_three_by_three_truncation():
    crit = Criterion(4, "3x3 truncation closed form", 1.0)
    cfg1 = DiscriminantConfig(half_width=1)
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 50:
        s = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if not 0.05 < abs(s) < 0.92:
            continue
        kappa = -(1.0 + s * s) / (1.0 - s * s)
        c = (s + 1.0 / s) / 2.0
        sp = s_of_c(c)
        if abs(sp.s - s) > 1e-12:
            continue
        d2 = rng.uniform(0.05, 1.3)
        lam = 1.0 + kappa - d2
        if min(abs(lam), abs(lam - 1.0)) < 1e-3:
            continue
        D = hill_determinant(sp, lam, cfg1)
        expected = (
            d2 * ((2.0 + d2) * kappa - d2) * (3.0 * kappa**2 - d2 * kappa - 1.0 + d2)
        ) / ((1.0 + kappa - d2) * (d2 - kappa) ** 2 * (1.0 - kappa) ** 2)
        worst = max(worst, abs(D - expected) / max(1.0, abs(expected)))
        checked += 1
    # endpoint roots of the last factor: (d, kappa) = (1, 0) and (0, -1/sqrt3)
    f = lambda d2, kap: 3.0 * kap**2 - d2 * kap - 1.0 + d2
    endpoints = (
        abs(f(1.0, s_at_origin().kappa)) < 1e-14
        and abs(f(0.0, s_of_c(1j / math.sqrt(2.0)).kappa)) < 1e-12
    )
    crit.finish(worst <= 1e-12 and endpoints,
                f"worst relative {worst:.2e}, endpoint roots reproduced: {endpoints}")


def test_criterion_05_evans_asymptotics():
    crit = Criterion(5, "Evans limit at |c| = 1e3", 5.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(0.0, 0.5)
        d = rng.uniform(0.05, 0.95)
        c = 1e3 * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        lim = 2.0 * math.cos(2 * math.pi * theta) - 2.0 * math.cosh(2 * math.pi * d)
        worst = max(worst, abs(evans(c, theta, d, N16) - lim))
    crit.finish(worst <= 1e-3, f"worst deviation {worst:.2e}")


def test_criterion_06_root_phenomenology():
    crit = Criterion(6, "root patterns at d = 0.6", 60.0)
    rs1 = find_roots(0.1, 0.6)
    ok1 = rs1.count == 2 and all(c.real == 0.0 for c, _ in rs1.roots)
    rs2 = find_roots(0.22, 0.6)
    ok2 = rs2.count == 4 and all(c.real == 0.0 for c, _ in rs2.roots)
    rs3 = find_roots(0.4, 0.6)
    ok3 = rs3.count == 4 and all(
        abs(c.real) > 1e-3 and abs(c.imag) > 1e-3 for c, _ in rs3.roots
    ) and len(rs3.roots) == 4
    crit.finish(ok1 and ok2 and ok3,
                f"counts {rs1.count}/{rs2.count}/{rs3.count}, "
                f"axis roots {len(rs1.roots)}/{len(rs2.roots)}, quadruplet off-axis: {ok3}")


def _rational_points_for_criterion_7():
    """30 frozen rational points: 8 region 0, 10 region I, 10 region II,
    2 on the I-II boundary, classified exactly."""
    pts = []
    seen = {RegionTag.REGION_0: 0, RegionTag.REGION_I: 0, RegionTag.REGION_II: 0}
    want = {RegionTag.REGION_0: 8, RegionTag.REGION_I: 10, RegionTag.REGION_II: 10}
    for a in range(0, 6):          # theta = a/10 in [0, 1/2]
        for b in range(1, 11):     # d = b/10
            th, dd = Fraction(a, 10), Fraction(b, 10)
            tag = classify_rational(th, dd)
            if tag in seen and seen[tag] < want[tag]:
                pts.append((th, dd, tag))
                seen[tag] += 1
    for th, dd in ((Fraction(9, 20), Fraction(19, 20)), (Fraction(7, 20), Fraction(19, 20))):
        assert classify_rational(th, dd) is RegionTag.REGION_0
        pts.append((th, dd, RegionTag.REGION_0))
    pts.append((Fraction(-1, 5), Fraction(3, 5), RegionTag.BOUNDARY_I_II))
    pts.append((Fraction(-2, 5), Fraction(4, 5), RegionTag.BOUNDARY_I_II))
    assert len(pts) == 30
    return pts


def test_criterion_07_region_count_law():
    crit = Criterion(7, "count law over 30 rational points", 300.0)
    failures = []
    for th, dd, tag in _rational_points_for_criterion_7():
        n = count_roots(float(th), float(dd), expected_region=tag)
        if n != ROOT_COUNT_BY_REGION[tag]:
            failures.append((th, dd, tag, n))
    crit.finish(not failures, f"all 30 points match ({failures})")


def test_criterion_08_sharpness_small_p():
    crit = Criterion(8, "sharpness for all coprime p with p^2 <= 25", 600.0)
    crit.finish(*checks.sharpness.run("full"))


def test_criterion_09_flagship_example():
    crit = Criterion(9, "p = (4,5) count-only report", 600.0)
    report = spectrum_report(Wavevector(4, 5), count_only=True)
    tallies = report.tallies
    # the output of `eulerhill --format json spectrum --p 4,5 --count-only`
    same_json = report_to_json(report) + "\n" == (
        DATA / "spectrum_4_5_count_only.json").read_text()
    ok = (
        report.distinct_count == 128
        and report.lattice_count == 128
        and report.sharp
        and tallies["I"] == 11
        and tallies["II"] == 26
        and tallies["boundary_I_II"] == 1
        and tallies["boundary_0_I"] == 1
        and tallies["0"] == 1
        and same_json
    )
    crit.finish(ok, f"distinct {report.distinct_count}, lattice "
                    f"{report.lattice_count}, tallies {tallies}, "
                    f"JSON as committed: {same_json}")


def test_criterion_10_jacobi_oracle_triangle():
    crit = Criterion(10, "operator/Evans pairing for p=(1,1),(1,2)", 300.0)
    crit.finish(*checks.jacobi_pairing.run("full"))


def test_criterion_11_symmetry_suite():
    crit = Criterion(11, "symmetry suite", 30.0)
    crit.finish(*checks.symmetries.run("full"))


def test_criterion_12_no_roots_beyond_the_square():
    crit = Criterion(12, "exterior of the square of half-side 2 root-free for p^2 <= 25", 60.0)
    crit.finish(*checks.beyond_the_square.run("full"))
