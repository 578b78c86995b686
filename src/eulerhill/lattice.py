"""Integer lattice geometry for the shear-flow stability problem.

Everything here is exact integer (or Fraction) arithmetic: circle
membership for class points is decided by comparing integers, never
floats, so boundary cases are classified correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from .errors import CoprimalityError, TrivialClassError


class RegionTag(Enum):
    REGION_0 = "0"
    REGION_I = "I"
    REGION_II = "II"
    BOUNDARY_0_I = "boundary_0_I"
    BOUNDARY_I_II = "boundary_I_II"
    CORNER = "corner"


#: Number of eigenvalues with nonzero real part predicted for a class
#: whose representative falls in the given region.
ROOT_COUNT_BY_REGION = {
    RegionTag.REGION_0: 0,
    RegionTag.BOUNDARY_0_I: 0,
    RegionTag.REGION_I: 2,
    RegionTag.BOUNDARY_I_II: 2,
    RegionTag.REGION_II: 4,
    RegionTag.CORNER: 0,
}


@dataclass(frozen=True)
class Wavevector:
    """Coprime integer pair fixing the equilibrium cos(p1*x + p2*y)."""

    p1: int
    p2: int

    def __post_init__(self):
        if (self.p1, self.p2) == (0, 0):
            raise CoprimalityError("wavevector must be nonzero")
        if gcd(self.p1, self.p2) != 1:
            raise CoprimalityError(
                f"components of {( self.p1, self.p2)} are not coprime"
            )

    @property
    def p_sq(self) -> int:
        return self.p1 * self.p1 + self.p2 * self.p2


@dataclass(frozen=True)
class CompanionBasis:
    """Second basis vector q with p2*q1 - p1*q2 = 1 and minimal |p.q|."""

    q1: int
    q2: int
    dot_pq: int


@dataclass(frozen=True)
class ClassPoint:
    """Representative (theta, d) of the class with wave number k.

    theta is stored exactly as theta_num / p_sq with the numerator
    reduced so theta lies in (-1/2, 1/2]; l is the integer shift that
    achieved the reduction, so the class representative lattice point
    is a0 = k*q + l*p.
    """

    k: int
    theta_num: int
    p_sq: int
    l: int
    region: RegionTag

    @property
    def theta(self) -> float:
        return self.theta_num / self.p_sq

    @property
    def d(self) -> float:
        return self.k / self.p_sq


def _egcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def companion_basis(p: Wavevector) -> CompanionBasis:
    """Unimodular companion q of p with |p.q| minimal.

    Ties at 2|p.q| = p^2 are broken toward positive p.q so output is
    deterministic; the spectrum does not depend on the choice.
    """
    # p2*q1 - p1*q2 = 1  <=>  p2*q1 + (-p1)*q2 = 1
    g, x, y = _egcd(p.p2, -p.p1)
    if g < 0:
        g, x, y = -g, -x, -y
    if g != 1:
        raise CoprimalityError(f"gcd of {(p.p1, p.p2)} is {g}, expected 1")
    q1, q2 = x, y
    P = p.p_sq
    dot = p.p1 * q1 + p.p2 * q2
    # Reduce q by multiples of p to minimise |p.q|; p.q changes by P per step.
    m = round(dot / P)
    q1 -= m * p.p1
    q2 -= m * p.p2
    dot -= m * P
    if 2 * dot == -P:  # tie: prefer the positive representative
        q1 += p.p1
        q2 += p.p2
        dot += P
    assert p.p2 * q1 - p.p1 * q2 == 1
    assert 2 * abs(dot) <= P
    return CompanionBasis(q1=q1, q2=q2, dot_pq=dot)


def _region(num: int, k: int, den: int) -> RegionTag:
    """Region of the point (num/den, k/den), by exact integer comparisons.

    Circle l has equation (theta + l)^2 + d^2 = 1, i.e. in cleared form
    (num + l*den)^2 + k^2 = den^2; the tag follows from how many of the
    circles l = -1, 0, 1 hold the point inside and how many pass through it.
    """
    n_in = n_on = 0
    rhs = den * den
    for l in (-1, 0, 1):
        lhs = (num + l * den) ** 2 + k * k
        n_in += lhs < rhs
        n_on += lhs == rhs
    if k == 0 or n_on >= 2:
        return RegionTag.CORNER
    if n_on == 1:
        return RegionTag.BOUNDARY_I_II if n_in == 1 else RegionTag.BOUNDARY_0_I
    return (RegionTag.REGION_0, RegionTag.REGION_I, RegionTag.REGION_II)[n_in]


def classify_rational(theta: Fraction, d: Fraction) -> RegionTag:
    """Exact region classification of an arbitrary rational point.

    theta is reduced mod 1 into (-1/2, 1/2]; d is taken by absolute value.
    """
    theta = Fraction(theta)
    d = abs(Fraction(d))
    theta = theta - theta.__floor__()  # in [0, 1)
    if 2 * theta > 1:
        theta -= 1
    den = theta.denominator * d.denominator // gcd(theta.denominator, d.denominator)
    tn = int(theta * den)
    dn = int(d * den)
    return _region(tn, dn, den)


def class_point(p: Wavevector, q: CompanionBasis, k: int) -> ClassPoint:
    """Class parameters (theta, d) for wave number k, reduced exactly."""
    if k == 0:
        raise TrivialClassError("k = 0 has only the constant periodic solution")
    P = p.p_sq
    t = (k * q.dot_pq) % P
    if 2 * t > P:
        t -= P
    l = (t - k * q.dot_pq) // P
    return ClassPoint(k=k, theta_num=t, p_sq=P, l=l, region=_region(t, k, P))


def representative(p: Wavevector, q: CompanionBasis, cp: ClassPoint):
    """Lattice point a0 = k*q + l*p of the reduced class representative."""
    return (
        cp.k * q.q1 + cp.l * p.p1,
        cp.k * q.q2 + cp.l * p.p2,
    )


def lattice_points_in_disk(p: Wavevector):
    """All nonzero lattice points strictly inside the disk of radius |p|.

    Integer multiples of p are excluded (for coprime p only the origin
    qualifies anyway).  Returns (count, sorted list of points).
    """
    P = p.p_sq
    pts = []
    r = isqrt(P)
    for a1 in range(-r, r + 1):
        rem = P - a1 * a1
        if rem <= 0:
            continue
        b = isqrt(rem)
        if b * b == rem:
            b -= 1  # strict inequality
        for a2 in range(-b, b + 1):
            if a1 == 0 and a2 == 0:
                continue
            if a1 * p.p2 - a2 * p.p1 == 0:
                continue  # multiple of p
            pts.append((a1, a2))
    pts.sort()
    return len(pts), pts


def class_line_count(p: Wavevector, q: CompanionBasis, k: int) -> int:
    """Number of lattice points k*q + m*p strictly inside the unstable disk.

    With P = p^2, Lagrange's identity P |q|^2 - (p.q)^2 = 1 gives
    P |k q + m p|^2 = (P m + b)^2 + k^2 with b = k p.q, so the points are
    the m with |P m + b| <= r = isqrt(P^2 - k^2 - 1), none when |k| >= P.
    """
    if k == 0:
        raise TrivialClassError("k = 0 is the line through the origin")
    P = p.p_sq
    if abs(k) >= P:
        return 0
    r = isqrt(P * P - k * k - 1)
    b = k * q.dot_pq
    return (r - b) // P + (r + b) // P + 1
