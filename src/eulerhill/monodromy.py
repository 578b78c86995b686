"""Direct integration oracle for Hill's equation g'' + Q g = mu g.

Fully independent of the determinant machinery: classic fixed-step RK4
on the 2x2 first-order system over one period, with the step count
doubled until two successive traces agree.  The base point of the
period is offset from 0 so that no integration node lands exactly on
the zeros of sin(eta), where the potential has a boundary layer for c
close to the cut; the trace is invariant under base-point shifts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .conformal import cut_distance
from .errors import ConvergenceError, SingularPotentialError

__all__ = ["MonodromyResult", "integrate_monodromy"]

TWO_PI = 2.0 * math.pi
# irrational-ish base-point offset, fixed so every ladder rung integrates
# the same interval
_TAU = TWO_PI * 1e-3 * 0.6180339887498949

#: integrate_monodromy's default tolerance on successive traces
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class MonodromyResult:
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    trace: complex
    multipliers: tuple
    est_error: float
    steps: int

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


def _integrate(c: complex, mu: complex, n: int):
    """RK4 with n steps over [tau, tau + 2 pi]; returns the 2x2 monodromy."""
    h = TWO_PI / n
    eta = _TAU + 0.5 * h * np.arange(2 * n + 1)
    sn = np.sin(eta)
    w = mu - sn / (c + sn)  # g'' = w g
    u1, u2 = 1.0 + 0.0j, 0.0 + 0.0j  # first row of the fundamental matrix
    v1, v2 = 0.0 + 0.0j, 1.0 + 0.0j  # second row (derivatives)
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(n):
        w0 = w[2 * i]
        wh = w[2 * i + 1]
        w1 = w[2 * i + 2]
        a1u1 = v1; a1v1 = w0 * u1
        a1u2 = v2; a1v2 = w0 * u2
        b1 = u1 + h2 * a1u1; bv1 = v1 + h2 * a1v1
        b2 = u2 + h2 * a1u2; bv2 = v2 + h2 * a1v2
        a2u1 = bv1; a2v1 = wh * b1
        a2u2 = bv2; a2v2 = wh * b2
        c1 = u1 + h2 * a2u1; cv1 = v1 + h2 * a2v1
        c2 = u2 + h2 * a2u2; cv2 = v2 + h2 * a2v2
        a3u1 = cv1; a3v1 = wh * c1
        a3u2 = cv2; a3v2 = wh * c2
        d1 = u1 + h * a3u1; dv1 = v1 + h * a3v1
        d2 = u2 + h * a3u2; dv2 = v2 + h * a3v2
        a4u1 = dv1; a4v1 = w1 * d1
        a4u2 = dv2; a4v2 = w1 * d2
        u1 += h6 * (a1u1 + 2.0 * a2u1 + 2.0 * a3u1 + a4u1)
        v1 += h6 * (a1v1 + 2.0 * a2v1 + 2.0 * a3v1 + a4v1)
        u2 += h6 * (a1u2 + 2.0 * a2u2 + 2.0 * a3u2 + a4u2)
        v2 += h6 * (a1v2 + 2.0 * a2v2 + 2.0 * a3v2 + a4v2)
    return u1, u2, v1, v2


def integrate_monodromy(
    c: complex,
    mu: complex,
    tol: float = DEFAULT_TOL,
    min_cut_distance: float = 1e-3,
    start_steps: int = 64,
    max_steps: int = 2**21,
) -> MonodromyResult:
    """Monodromy matrix of g'' + Q g = mu g over one period.

    Step count doubles until successive traces differ by less than tol;
    est_error is the last difference.
    """
    c = complex(c)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cut_distance(c) < min_cut_distance:
        raise SingularPotentialError(
            f"c = {c} is within {min_cut_distance} of the cut [-1, 1]; "
            "lower min_cut_distance explicitly to integrate anyway"
        )
    prev = None
    n = start_steps
    while n <= max_steps:
        m11, m12, m21, m22 = _integrate(c, mu, n)
        tr = m11 + m22
        if prev is not None:
            diff = abs(tr - prev)
            if diff < tol:
                disc = cmath.sqrt(tr * tr - 4.0)
                rho = ((tr + disc) / 2.0, (tr - disc) / 2.0)
                return MonodromyResult(
                    m11=m11, m12=m12, m21=m21, m22=m22,
                    trace=tr, multipliers=rho, est_error=diff, steps=n,
                )
        prev = tr
        n *= 2
    raise ConvergenceError(
        f"monodromy trace did not converge to {tol} within {max_steps} steps"
    )

