"""Direct integration oracle for Hill's equation g'' + Q g = mu g.

Fully independent of the determinant machinery: classic fixed-step RK4
on the first-order system (g, g')' = [[0, 1], [w, 0]] (g, g'), with
w = mu - Q, over one period, with the step count doubled until two
successive traces agree.

The system is linear, so one RK4 step is a 2x2 matrix S whose entries
are closed-form in h and in w at the step's two ends and midpoint, and
the monodromy is the ordered product S[n-1] ... S[1] S[0].  Each block
of _BLOCK steps is multiplied out as a pairwise tree of elementwise
products, and the blocks are folded together in order, so the
temporaries stay a few arrays of _BLOCK entries whatever n is.  The
matrices are carried as S - I: a product of near-identity steps then
rounds relative to h, not to 1, and the result stays within a few ulps
of exact RK4 arithmetic.

The base point of the period is offset from 0 so that no integration
node lands exactly on the zeros of sin(eta), where the potential has a
boundary layer for c close to the cut; the trace is invariant under
base-point shifts.
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
# the step counts of the ladder's first rung and of its last
_START_STEPS = 64
_MAX_STEPS = 2**21
# steps per block of the step-matrix product: bounds its temporaries to a
# few arrays of this length, whatever the step count
_BLOCK = 1024


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


def _mul(later, earlier):
    """later @ earlier - I, matrix by matrix, for stacks of 2x2 matrices
    given as S - I with shape (2, 2, m)."""
    return later + earlier + (later[:, :, None] * earlier[None]).sum(axis=1)


def _ordered_product(e):
    """S[m-1] ... S[1] S[0] - I for the m matrices of e, as a pairwise tree."""
    while e.shape[2] > 1:
        k = e.shape[2] - e.shape[2] % 2
        pair = _mul(e[:, :, 1:k:2], e[:, :, :k:2])
        if k < e.shape[2]:  # the odd last matrix moves up a level unpaired
            pair = np.concatenate((pair, e[:, :, k:]), axis=2)
        e = pair
    return e


def _integrate(c: complex, mu: complex, n: int):
    """RK4 with n steps over [tau, tau + 2 pi]; returns the 2x2 monodromy
    (m11, m12, m21, m22) of the state (g, g')."""
    h = TWO_PI / n
    hh = h * h
    total = np.zeros((2, 2, 1), complex)  # S - I of the empty product
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        sn = np.sin(_TAU + 0.5 * h * np.arange(2 * i0, 2 * i1 + 1))
        w = mu - sn / (c + sn)  # g'' = w g at the step ends and midpoints
        w0, wh, w1 = w[:-1:2], w[1::2], w[2::2]
        s = w0 + w1
        e = np.empty((2, 2, i1 - i0), complex)  # S - I of each step, closed form
        e[0, 0] = hh * (w0 + 2.0 * wh) / 6.0 + hh * hh * w0 * wh / 24.0
        e[0, 1] = h * (1.0 + hh * wh / 6.0)
        e[1, 0] = h * (2.0 * s + 8.0 * wh + hh * wh * s) / 12.0
        e[1, 1] = hh * (w1 + 2.0 * wh) / 6.0 + hh * hh * w1 * wh / 24.0
        total = _mul(_ordered_product(e), total)
    (m11, m12), (m21, m22) = total[:, :, 0]
    return 1.0 + m11, m12, m21, 1.0 + m22


def integrate_monodromy(
    c: complex,
    mu: complex,
    tol: float = DEFAULT_TOL,
    min_cut_distance: float = 1e-3,
) -> MonodromyResult:
    """Monodromy matrix of g'' + Q g = mu g over one period.

    Step count doubles from _START_STEPS until successive traces differ
    by less than tol, or ConvergenceError past _MAX_STEPS; est_error is
    the last difference.
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
    n = _START_STEPS
    while n <= _MAX_STEPS:
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
        f"monodromy trace did not converge to {tol} within {_MAX_STEPS} steps"
    )

