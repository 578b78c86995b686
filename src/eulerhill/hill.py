"""Truncated Hill determinant and pole-free evaluation of the discriminant.

The discriminant is computed from the cleared-denominator determinant
K(Lambda) so that no spectral-plane poles appear:

    Delta(mu) = 2 - 4 pi^2 * [K(Lambda) prod_{n<=N} n^-4]
                  * prod_{n>N} (1 - Lambda/n^2)^2,   Lambda = g0 - mu.

Plain truncation of K converges only polynomially in the half-width N
(the discarded modes couple through 1/(Lambda - n^2) tails), so the
evaluation eliminates the discarded modes to second order:

* a rank-2 update of the retained block (Schur complement of the
  discarded modes through one and two off-diagonal hops), and
* a scalar factor exp(-T2/2 + T3/3) for the determinant of the
  discarded block itself.  With r = s^2 and f_n = 1/(Lambda - n^2) for
  the modes n = N+1..M, the lag sums are one pair of geometric scans,
  pre_m = sum_{a<m} r^(m-a) f_a and suf_m = sum_{b>m} r^(b-m) f_b:

      T2 = 4 kappa^2 (sum f suf + integral remainder beyond M),
      T3 = 12 kappa^3 sum f pre suf   (all a < m < b).

With the default half-width 16 this agrees with direct monodromy
integration to 1.2e-8 on the standard parameter grid.  Close to the
cut, where |s| -> 1, the error grows: relative 1.2e-4 at
c = 0.95+0.005j, and several percent within 0.003 of c = +-1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .conformal import I_POW, SpectralParam, s_of_c
from .errors import PoleProximityError

__all__ = [
    "DiscriminantConfig",
    "hill_determinant",
    "discriminant",
    "discriminant_slope_at_zero",
]


@dataclass(frozen=True)
class DiscriminantConfig:
    """Truncation parameters for determinant-based evaluations."""

    half_width: int = 16
    pole_guard: float = 1e-8

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1")


DEFAULT_CONFIG = DiscriminantConfig()


@lru_cache(maxsize=32)
def _mode_data(N: int):
    nn = np.arange(-N, N + 1)
    offs = np.arange(-2 * N, 2 * N + 1)
    ipow_offs = np.array([I_POW[o % 4] for o in offs])
    idx = nn[:, None] - nn[None, :] + 2 * N
    ipn = np.array([I_POW[x % 4] for x in nn])
    ipm = np.array([I_POW[(-x) % 4] for x in nn])
    row_scale = np.where(nn == 0, 1.0, nn.astype(float) ** 2)
    return nn, offs, ipow_offs, idx, ipn, ipm, row_scale


def _gtilde(sp: SpectralParam, N: int) -> np.ndarray:
    """g~ on offsets -2N..2N (g~_0 = 0)."""
    _, offs, ipow_offs, _, _, _, _ = _mode_data(N)
    g = sp.kappa * ipow_offs * sp.s ** np.abs(offs)
    g[2 * N] = 0.0
    return g


def _cleared_array(sp: SpectralParam, lam: complex, N: int) -> np.ndarray:
    """Cleared-denominator truncation B_nm = (Lambda - n^2) d_nm + g~_{n-m}."""
    nn, _, _, idx, _, _, _ = _mode_data(N)
    B = _gtilde(sp, N)[idx].astype(complex)
    dd = np.arange(2 * N + 1)
    B[dd, dd] += lam - nn.astype(float) ** 2
    return B


def hill_determinant(sp: SpectralParam, lam: complex, cfg: DiscriminantConfig | None = None) -> complex:
    """Normalized determinant D(Lambda) of the plain truncation.

    D = K(Lambda) / (Lambda * prod_{n=1..N} (Lambda - n^2)^2); raises
    PoleProximityError within pole_guard of a pole.  Use discriminant()
    for the pole-free combination.
    """
    cfg = cfg or DEFAULT_CONFIG
    N = cfg.half_width
    lam = complex(lam)
    for n in range(0, N + 1):
        if abs(lam - n * n) < cfg.pole_guard:
            raise PoleProximityError(f"Lambda = {lam} within pole_guard of n^2 = {n * n}")
    nn, _, _, _, _, _, rs = _mode_data(N)
    B = _cleared_array(sp, lam, N)
    K4 = np.linalg.det(B / rs[:, None])
    ns = np.arange(1, N + 1, dtype=float)
    return K4 / (lam * np.prod((lam / ns**2 - 1.0) ** 2))


def _tail_product_sq(lam: complex, N: int, ntail: int) -> complex:
    """prod_{n>N} (1 - Lambda/n^2)^2, exact to ~1e-15.

    Finite part up to ntail, then the log of the remainder summed as
    -sum_j Lambda^j zeta(2j, ntail+1) / j (Hurwitz zeta tails).
    """
    ntail = max(ntail, int(math.ceil(math.sqrt(2.0 * abs(lam)))) + 1)
    ns = np.arange(N + 1, ntail + 1, dtype=float)
    finite = complex(np.prod(1.0 - lam / ns**2))
    log_rem = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(1, 80):
        term *= lam
        add = term * zeta(2 * j, ntail + 1) / j
        log_rem -= add
        if abs(add) < 1e-18 * max(1.0, abs(log_rem)):
            break
    t = finite * cmath.exp(log_rem)
    return t * t


def _geom_tail(w: complex, g0: complex, g1: complex, g2: complex, g3: complex) -> complex:
    """Remainder sum_{z >= a} w^(z-a) g(z) via three-term summation by parts."""
    r = w / (1.0 - w)
    d1 = g1 - g0
    d2 = g2 - 2.0 * g1 + g0
    d3 = g3 - 3.0 * g2 + 3.0 * g1 - g0
    return (g0 + r * d1 + r * r * d2 + r**3 * d3) / (1.0 - w)


def _geom_scan(x: np.ndarray, r: complex) -> np.ndarray:
    """y_i = sum_{j<=i} r^(i-j) x_j in ceil(log2 len(x)) doubling steps."""
    y = x.astype(complex)
    d = 1
    while d < len(y):
        y[d:] += r**d * y[:-d]
        d *= 2
    return y


def _geom_lag_sums(f: np.ndarray, r: complex) -> tuple[complex, complex]:
    """(sum_{a<b} r^(b-a) f_a f_b, sum_{a<m<b} r^(b-a) f_a f_m f_b).

    These are sum f suf and sum f pre suf.  pre and suf are taken as the
    shifted scans r fwd_{m-1} and r bwd_{m+1}, not as scan - f, which
    would lose all relative accuracy to cancellation when |r| is tiny.
    """
    fwd = _geom_scan(f, r)
    bwd = _geom_scan(f[::-1], r)[::-1]
    pair = r * np.dot(f[:-1], bwd[1:])
    triple = r * r * np.sum(fwd[:-2] * f[1:-1] * bwd[2:])
    return complex(pair), complex(triple)


def _corrected_scaled_det(sp: SpectralParam, lam: complex, N: int) -> complex:
    """K(Lambda) * prod n^-4 with the discarded modes eliminated to 2nd order.

    Returns det(rowscaled(B_eff)) * exp(-T2/2 + T3/3); see module docstring.
    """
    nn, _, _, _, ipn, ipm, rs = _mode_data(N)
    B = _cleared_array(sp, lam, N)
    s, kappa = sp.s, sp.kappa
    s2 = s * s
    corr = 1.0 + 0.0j
    if (
        kappa != 0
        and abs(kappa) * abs(s2) > 1e-18
        and abs(lam) < 0.5 * (N + 1) ** 2
        and abs(1.0 - s2) > 1e-3
    ):
        # rank-2 Schur update; powers of s kept >= 0 throughout so that
        # tiny |s| cannot overflow the outer-product factors.
        J = 360
        z = np.arange(N + 1, N + 1 + J + 4)
        fz = 1.0 / (lam - z.astype(float) ** 2)
        s2zs = s2 ** (z - N)
        W1 = np.sum(s2zs[:J] * fz[:J]) + s2zs[J] * _geom_tail(s2, *fz[J : J + 4])
        G = np.concatenate(([0.0 + 0.0j], np.cumsum(fz)[:-1]))
        h = fz * G
        W2 = 2.0 * (np.sum(s2zs[:J] * h[:J]) + s2zs[J] * _geom_tail(s2, *h[J : J + 4]))
        wtot = kappa**2 * W1 - kappa**3 * W2
        sa = s ** (N - nn).astype(float)
        sb = s ** (N + nn).astype(float)
        B -= wtot * (np.outer(ipn * sa, ipm * sa) + np.outer(ipn * sb, ipm * sb))

        # determinant of the discarded block: log = -T2/2 + T3/3
        M = max(240, 5 * N)
        narr = np.arange(N + 1, M + 1)
        fn = 1.0 / (lam - narr.astype(float) ** 2)
        pair, triple = _geom_lag_sums(fn, s2)
        ks = np.arange(1, M - N)
        Y = M + 0.5 - 0.5 * ks
        rem = 1.0 / (3.0 * Y**3) + (0.5 * ks * ks + 2.0 * lam) / (5.0 * Y**5)
        T2 = 4.0 * kappa**2 * (pair + np.sum((s2**ks) * rem))
        T3 = 12.0 * kappa**3 * triple
        corr = cmath.exp(-0.5 * T2 + T3 / 3.0)

    K4 = np.linalg.det(B / rs[:, None])
    return K4 * corr


def discriminant(sp: SpectralParam, mu: complex, cfg: DiscriminantConfig | None = None) -> complex:
    """Hill discriminant Delta(mu; c), entire in mu and pole-free.

    Accepts complex mu; for real c with |c| > 1 or purely imaginary c the
    result is real for real mu.  Near the cut endpoints c = +-1 the
    Fourier coefficients blow up (|kappa| ~ |1 - s^2|^-1) and with them
    |Lambda|; the half-width is widened there so the resonant modes stay
    inside the retained block.
    """
    cfg = cfg or DEFAULT_CONFIG
    N = cfg.half_width
    lam = complex(sp.g0 - mu)
    bump = int(math.ceil(math.sqrt(2.5 * abs(lam)))) + 8
    if bump > N:
        N = bump
    K4c = _corrected_scaled_det(sp, lam, N)
    return 2.0 - 4.0 * math.pi**2 * K4c * _tail_product_sq(lam, N, 10 * N)


def discriminant_slope_at_zero(c: complex) -> complex:
    """Closed form d Delta/d mu at mu = 0: 2 pi^2 c (1 + 2c^2) / (c^2-1)^(3/2).

    The 3/2 power uses the branch continuous off [-1, 1]; it is obtained
    from the disk variable via sqrt(c^2 - 1) = (1/s - s)/2, which is
    positive real for real c > 1.
    """
    sp = s_of_c(c)  # raises on the cut
    root = (1.0 / sp.s - sp.s) / 2.0
    return 2.0 * math.pi**2 * c * (1.0 + 2.0 * c * c) / root**3

