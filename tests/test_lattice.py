"""Exact lattice geometry tests; every expected value is hand- or brute-checkable."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eulerhill import (
    CoprimalityError,
    RegionTag,
    TrivialClassError,
    Wavevector,
    class_line_count,
    class_point,
    classify_rational,
    companion_basis,
    lattice_points_in_disk,
    representative,
)
from eulerhill.lattice import _region


def coprime_pairs(limit_sq):
    r = math.isqrt(limit_sq)
    for p1 in range(-r, r + 1):
        for p2 in range(-r, r + 1):
            if (p1, p2) == (0, 0):
                continue
            if p1 * p1 + p2 * p2 > limit_sq:
                continue
            if math.gcd(p1, p2) == 1:
                yield Wavevector(p1, p2)


def test_wavevector_validation():
    with pytest.raises(CoprimalityError):
        Wavevector(2, 4)
    with pytest.raises(CoprimalityError):
        Wavevector(0, 0)
    assert Wavevector(0, 1).p_sq == 1
    assert Wavevector(-3, 4).p_sq == 25


def test_companion_basis_examples():
    q = companion_basis(Wavevector(4, 5))
    assert (q.q1, q.q2, q.dot_pq) == (1, 1, 9)
    q = companion_basis(Wavevector(0, 1))
    assert (q.q1, q.q2, q.dot_pq) == (1, 0, 0)
    q = companion_basis(Wavevector(1, 2))
    assert (q.q1, q.q2, q.dot_pq) == (0, -1, -2)


def test_companion_basis_tie_break_positive():
    # p=(1,1): both q=(1,0) (dot=1) and q=(0,-1) (dot=-1) are minimal
    q = companion_basis(Wavevector(1, 1))
    assert q.dot_pq == 1


def test_companion_basis_invariants():
    for p in coprime_pairs(100):
        q = companion_basis(p)
        assert p.p2 * q.q1 - p.p1 * q.q2 == 1
        assert 2 * abs(q.dot_pq) <= p.p_sq
        assert q.dot_pq == p.p1 * q.q1 + p.p2 * q.q2


def test_class_point_examples():
    p = Wavevector(4, 5)
    q = companion_basis(p)
    cp = class_point(p, q, 9)
    assert (cp.theta_num, cp.p_sq) == (-1, 41)
    assert Fraction(cp.k, cp.p_sq) == Fraction(9, 41)
    cp = class_point(p, q, 1)
    assert (cp.theta_num, cp.p_sq) == (9, 41)
    p = Wavevector(1, 2)
    q = companion_basis(p)
    cp = class_point(p, q, 3)
    assert Fraction(cp.theta_num, cp.p_sq) == Fraction(-1, 5)
    assert cp.l == 1


def test_class_point_k_zero():
    p = Wavevector(1, 2)
    q = companion_basis(p)
    with pytest.raises(TrivialClassError):
        class_point(p, q, 0)


def test_classify_examples():
    p = Wavevector(4, 5)
    q = companion_basis(p)
    assert class_point(p, q, 9).region is RegionTag.BOUNDARY_I_II
    assert class_point(p, q, 40).region is RegionTag.BOUNDARY_0_I
    assert class_point(p, q, 39).region is RegionTag.REGION_0
    p = Wavevector(1, 2)
    q = companion_basis(p)
    assert class_point(p, q, 1).region is RegionTag.REGION_II


def test_classify_rational():
    assert classify_rational(Fraction(-1, 5), Fraction(3, 5)) is RegionTag.BOUNDARY_I_II
    assert classify_rational(Fraction(9, 20), Fraction(19, 20)) is RegionTag.REGION_0
    assert classify_rational(Fraction(1, 10), Fraction(3, 5)) is RegionTag.REGION_I
    assert classify_rational(Fraction(2, 5), Fraction(3, 5)) is RegionTag.REGION_II
    # reduction mod 1 and sign of d
    assert classify_rational(Fraction(6, 5), Fraction(-3, 5)) == classify_rational(
        Fraction(1, 5), Fraction(3, 5)
    )


def brute_disk_count(p: Wavevector) -> int:
    P = p.p_sq
    count = 0
    for a1 in range(-P, P + 1):
        for a2 in range(-P, P + 1):
            n = a1 * a1 + a2 * a2
            if 0 < n < P and a1 * p.p2 - a2 * p.p1 != 0:
                count += 1
    return count


def test_lattice_points_in_disk_examples():
    count, pts = lattice_points_in_disk(Wavevector(4, 5))
    assert count == 128
    assert len(pts) == len(set(pts)) == 128
    count, pts = lattice_points_in_disk(Wavevector(0, 1))
    assert count == 0 and pts == []
    count, pts = lattice_points_in_disk(Wavevector(1, 2))
    assert count == 12
    expected = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1),
                (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)}
    assert set(pts) == expected


def test_lattice_points_vs_brute_force():
    for p in (Wavevector(1, 1), Wavevector(2, 3), Wavevector(1, 4), Wavevector(3, -2)):
        assert lattice_points_in_disk(p)[0] == brute_disk_count(p)


def test_class_line_count_examples():
    p = Wavevector(4, 5)
    q = companion_basis(p)
    assert class_line_count(p, q, 40) == 0
    p = Wavevector(1, 2)
    q = companion_basis(p)
    assert class_line_count(p, q, 1) == 2


def test_class_line_count_closed_form_matches_enumeration():
    # every point k*q + m*p of the disk has |m| <= P + 1, so enumerating
    # that range counts them all; k runs past +-P, where the count is 0
    n = 0
    for p in coprime_pairs(200):
        q = companion_basis(p)
        P = p.p_sq
        ks = np.array([k for k in range(-P - 2, P + 3) if k != 0])
        m = np.arange(-P - 1, P + 2)
        a1 = ks[:, None] * q.q1 + m * p.p1
        a2 = ks[:, None] * q.q2 + m * p.p2
        norm = a1 * a1 + a2 * a2
        want = ((0 < norm) & (norm < P)).sum(axis=1)
        assert [class_line_count(p, q, int(k)) for k in ks] == want.tolist(), p
        n += ks.size
    assert n == 81336


def test_region_count_equivalence():
    """Exact circle classification predicts the interior-point count per line."""
    prediction = {
        RegionTag.REGION_0: 0,
        RegionTag.BOUNDARY_0_I: 0,
        RegionTag.REGION_I: 1,
        RegionTag.BOUNDARY_I_II: 1,
        RegionTag.REGION_II: 2,
    }
    for p in coprime_pairs(100):
        q = companion_basis(p)
        for k in range(1, p.p_sq):
            cp = class_point(p, q, k)
            assert class_line_count(p, q, k) == prediction[cp.region], (
                p, k, cp.region)


def test_global_count_doubling():
    for p in coprime_pairs(100):
        q = companion_basis(p)
        total = sum(class_line_count(p, q, k) for k in range(1, p.p_sq))
        assert 2 * total == lattice_points_in_disk(p)[0], (p.p1, p.p2)


def test_translation_invariance_of_memberships():
    # shifting theta by whole periods shifts each circle index by as many;
    # reduced exactly into (-1/2, 1/2], the point is in the region that
    # the circles l = -1, 0, 1 give the unshifted one
    for (tn, k, P) in ((-1, 9, 41), (3, 7, 25), (2, 1, 5)):
        for shift in (-1, 1, 7):
            assert classify_rational(Fraction(tn + shift * P, P), Fraction(k, P)) is _region(
                tn, k, P)


def test_representative_lies_on_class_line():
    p = Wavevector(4, 5)
    q = companion_basis(p)
    for k in (1, 9, 40):
        cp = class_point(p, q, k)
        a = representative(p, q, cp)
        # a . p / p^2 = theta, a . p_perp / p^2 = d  (p_perp = (p2, -p1))
        assert a[0] * p.p1 + a[1] * p.p2 == cp.theta_num
        assert a[0] * p.p2 - a[1] * p.p1 == cp.k
