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
  discarded block itself.  With r = s^2 and f_a = 1/(Lambda - n^2) for
  the one range of modes n = N+1+a up to M = max(240, 5N), all four
  sums come from one pair of geometric scans,
  pre_m = sum_{a<m} r^(m-a) f_a and suf_m = sum_{b>m} r^(b-m) f_b:

      W1 = sum r^(a+1) f,  W2 = 2 sum r^(a+1) f suf  (+ their tails past M),
      T2 = 4 kappa^2 (sum f suf + integral remainder beyond M),
      T3 = 12 kappa^3 sum f pre suf   (all a < m < b).

The infinite product over n > N is a finite product over the same modes
up to M times exp(-sum_j Lambda^j zeta(2j, M+1) / j), summed by
Horner's rule from Hurwitz zeta values cached per N.

The retained block is centrosymmetric after the similarity diag(i^n),
because the potential sin eta / (c + sin eta) is even about eta = pi/2.
So its determinant is det E * det O, over an even block E (modes
0..N, side N+1) and an odd block O (modes 1..N, side N); see
_block_det() for their entries.  The rank-2 update enters each block
as an elementwise outer product.

Evaluation is batched.  discriminant_batch() groups the points by their
half-width N (see DiscriminantConfig) and runs one kernel per chunk
of at most _CHUNK points.  Per-point sequences carry the points on
their last axis: the power tables of s (up to s^2N) and s^2 (running
products, one cumprod call each, in place of complex array powers),
the two geometric scans and the tail product.  The blocks of all points
go through one stacked det.  Every sum over a sequence is accumulated
in order, so a point's value is bitwise the same in any batch of up to
_CHUNK points; discriminant() is the batch of one.

With the default half-width 16 this agrees with direct monodromy
integration to 1.2e-8 on the standard parameter grid.  Close to the
cut, where |s| -> 1, the error grows: relative 1.2e-4 at
c = 0.95+0.005j; at mu = 0.36 and Im c = 1e-3, relative 0.062 with a
phase error of 0.015 rad at Re c = 0.998, 0.12 and 0.069 rad at 0.999,
and 0.16 and 0.156 rad at 0.9995.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .conformal import SpectralParam, s_of_c
from .errors import PoleProximityError

__all__ = [
    "DiscriminantConfig",
    "hill_determinant",
    "discriminant",
    "discriminant_batch",
    "discriminant_slope_at_zero",
]

#: points per kernel call; bounds the (n, 2, N+1, N+1) temporaries.  At
#: 16 no value measured differs from its batch-of-one value; at 64, 112
#: of 5760 mixed box and cut-end points differed in their last digits,
#: through the Schur sum W2.
_CHUNK = 16

#: hill_determinant() refuses Lambda this close to a pole n^2
_POLE_GUARD = 1e-8

#: Hurwitz terms of the tail product.  The half-width bump keeps
#: |Lambda| <= (N-8)^2 / 2.5 and M+1 >= 5N+1, so x = |Lambda|/(M+1)^2 < 1/62.5,
#: term j <= 10 is below 1.1 (M+1) x^j / (j (2j-1)), and the first omitted
#: one below 1e-17 for N up to 400 and 3e-15 for N up to 1e5.
_ZETA_TERMS = 9

#: the largest half-width, set or widened, that an evaluation accepts:
#: the largest for which the bound above holds the tail product to 1e-17
_MAX_HALF_WIDTH = 400

#: Summation by parts to third differences: sum_{z>=a} w^(z-a) g(z) =
#: sum_k c_k g(a+k) with c_k = sum_j r^j _TAIL_WEIGHTS[j, k] / (1 - w),
#: r = w / (1 - w).
_TAIL_WEIGHTS = np.array(
    [[1.0, 0.0, 0.0, 0.0],
     [-1.0, 1.0, 0.0, 0.0],
     [1.0, -2.0, 1.0, 0.0],
     [-1.0, 3.0, -3.0, 1.0]]
)


@dataclass(frozen=True)
class DiscriminantConfig:
    """Truncation parameters for determinant-based evaluations.

    half_width is a floor: discriminant_batch() uses N = max(half_width,
    ceil(sqrt(2.5 |Lambda|)) + 8), 9 or more wherever Lambda != 0, so
    half_widths 1 to 9 give the same Delta; hill_determinant() alone
    truncates at half_width itself.
    """

    half_width: int = 16

    def __post_init__(self):
        if not 1 <= self.half_width <= _MAX_HALF_WIDTH:
            raise ValueError(f"half_width must lie in [1, {_MAX_HALF_WIDTH}], "
                             f"got {self.half_width}")


DEFAULT_CONFIG = DiscriminantConfig()


@dataclass(frozen=True)
class _Modes:
    """The parts of the kernel that depend on the half-width N alone."""

    n2: np.ndarray             # k^2 of the modes k = 0..N
    toe: np.ndarray            # (2, N+1, N+1): |k-l| into the block table, per block
    han: np.ndarray            # (2, N+1, N+1): k+l, odd block offset into the negated half
    ab_idx: np.ndarray         # (2, N+1): N - k and N + k
    col0_half: np.ndarray      # 1/2 at l = 0, 1 elsewhere
    inv_row_scale: np.ndarray  # (N+1, 1): k^-2, 1 at k = 0
    z2: np.ndarray             # z^2 for the discarded modes z = N+1..M
    rem: np.ndarray            # (M-N-1, 2): T2 remainder beyond M is rem[:, 0] + Lambda rem[:, 1]
    zeta_j: np.ndarray         # zeta(2j, M+1) / j, j = 1.._ZETA_TERMS


@lru_cache(maxsize=32)
def _modes(N: int) -> _Modes:
    k = np.arange(N + 1)
    zero = 2 * N + 1  # the block table's 0 entry
    toe = np.abs(k[:, None] - k)
    toe[k, k] = zero
    toe = np.stack((toe, toe))
    han = np.stack((k[:, None] + k, k[:, None] + k + zero + 1))
    han[0, :, 0] = zero  # the even block's column 0 holds s^k once
    toe[1, 0, :] = toe[1, :, 0] = han[1, 0, :] = han[1, :, 0] = zero  # odd block's padding
    M = max(240, 5 * N)
    ks = np.arange(1, M - N, dtype=float)
    Y = M + 0.5 - 0.5 * ks
    j = np.arange(1, _ZETA_TERMS + 1)
    return _Modes(
        n2=k.astype(float) ** 2,
        toe=toe,
        han=han,
        ab_idx=np.stack((N - k, N + k)),
        col0_half=np.where(k == 0, 0.5, 1.0),
        inv_row_scale=1.0 / np.maximum(k, 1).astype(float)[:, None] ** 2,
        z2=np.arange(N + 1, M + 1, dtype=float) ** 2,
        rem=np.stack((1.0 / (3.0 * Y**3) + 0.5 * ks * ks / (5.0 * Y**5), 2.0 / (5.0 * Y**5)), axis=-1),
        zeta_j=zeta(2.0 * j, M + 1) / j,
    )


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """Power table x[None, :] ** arange(n)[:, None] as a running product.

    One cumprod call.  For k < 365 and 0.06 <= |x| <= 0.9999 its relative
    error stayed below 2.3e-15, against up to 7e-14 for numpy's complex
    power x ** k.
    """
    P = np.empty((n, len(x)), dtype=complex)
    P[0] = 1.0
    P[1:] = x
    return np.cumprod(P, axis=0, out=P)


def _colsum(x: np.ndarray) -> np.ndarray:
    """Sums down the first axis, added in order.

    numpy reduces several columns row by row, in order, but sums a lone
    contiguous column pairwise; a single point takes the in-order
    cumsum instead, so its value does not depend on the batch it is
    evaluated in.
    """
    if x.shape[-1] > 1:
        return np.add.reduce(x, axis=0)
    return np.cumsum(x, axis=0)[-1]


def _block_det(s, kappa, lam, N: int, wtot=None) -> np.ndarray:
    """det E * det O of the row-scaled cleared truncation, per point of the arrays.

    The truncation B_nm = (Lambda - n^2) d_nm + kappa i^(n-m) s^|n-m| (n != m),
    n, m = -N..N, less wtot i^(n-m) (s^(2N-n-m) + s^(2N+n+m)) where wtot is
    given, is centrosymmetric after the similarity diag(i^n).  So it
    splits into its even block E (modes 0..N) and odd block O (modes
    1..N), each row k scaled by k^-2 (1 at k = 0).  With a_k = s^(N-k)
    and b_k = s^(N+k):

        E_kl = (Lambda - k^2) d_kl + kappa (s^|k-l| [k != l] + s^(k+l))
               - wtot (a_k + b_k)(a_l + b_l)   (l >= 1),
        E_k0 = Lambda d_k0 + kappa s^k [k != 0] - wtot (a_k + b_k) s^N,
        O_kl = (Lambda - k^2) d_kl + kappa (s^|k-l| [k != l] - s^(k+l))
               - wtot (a_k - b_k)(a_l - b_l).

    No exponent of s is negative, so tiny |s| cannot overflow the update.
    O is padded to side N+1 with a 1 at [0, 0], which changes neither its
    determinant nor its LU, so both blocks go through one stacked det.
    """
    md = _modes(N)
    n, m = len(s), N + 1
    spow = _powers(s, 2 * N + 1).T  # s^0..s^2N, one row per point
    tab = np.zeros((n, 2, 2 * N + 2), dtype=complex)  # kappa s^j and -kappa s^j, then 0
    np.multiply(spow, kappa[:, None], out=tab[:, 0, :-1])
    np.negative(tab[:, 0], out=tab[:, 1])
    tab = tab.reshape(n, -1)
    B = np.take(tab, md.toe, axis=1)  # (n, block, m, m)
    tmp = np.take(tab, md.han, axis=1)
    B += tmp
    B.reshape(n, 2, m * m)[:, :, :: m + 1] += (lam[:, None] - md.n2)[:, None]
    if wtot is not None:
        a, b = np.take(spow, md.ab_idx, axis=1).transpose(1, 0, 2)
        u = np.stack((a + b, a - b), axis=1)  # (n, block, m)
        v = u * (wtot[:, None, None] * md.col0_half)
        B -= np.multiply(u[..., :, None], v[..., None, :], out=tmp)
    B *= md.inv_row_scale
    B[:, 1, 0, 0] = 1.0
    d = np.linalg.det(B)
    return d[:, 0] * d[:, 1]


def hill_determinant(sp: SpectralParam, lam: complex, cfg: DiscriminantConfig | None = None) -> complex:
    """Normalized determinant D(Lambda) of the plain truncation.

    D = K(Lambda) / (Lambda * prod_{n=1..N} (Lambda - n^2)^2); raises
    PoleProximityError within _POLE_GUARD of a pole.  Use discriminant()
    for the pole-free combination.
    """
    cfg = cfg or DEFAULT_CONFIG
    N = cfg.half_width
    lam = complex(lam)
    for n in range(0, N + 1):
        if abs(lam - n * n) < _POLE_GUARD:
            raise PoleProximityError(f"Lambda = {lam} within {_POLE_GUARD} of n^2 = {n * n}")
    K4 = _block_det(np.array([sp.s]), np.array([sp.kappa]), np.array([lam]), N)[0]
    ns = np.arange(1, N + 1, dtype=float)
    return K4 / (lam * np.prod((lam / ns**2 - 1.0) ** 2))


def _tail_product_sq(lam: np.ndarray, N: int) -> np.ndarray:
    """prod_{n>N} (1 - Lambda/n^2)^2, exact to ~1e-15.

    Finite part up to M, then the log of the remainder summed as
    -sum_j Lambda^j zeta(2j, M+1) / j (Hurwitz zeta tails).
    """
    md = _modes(N)
    finite = np.cumprod(1.0 - lam / md.z2[:, None], axis=0)[-1]
    acc = md.zeta_j[-1]
    for zj in md.zeta_j[-2::-1]:  # Horner's rule in Lambda
        acc = acc * lam + zj
    t = finite * np.exp(-lam * acc)
    return t * t


def _geom_scan(y: np.ndarray, rpow: np.ndarray) -> np.ndarray:
    """y_i <- sum_{j<=i} r^(i-j) y_j along the first axis, in place.

    ceil(log2 L) doubling steps; rpow is the power table of r, at least
    up to r^(L-1), and each of its rows broadcasts against y[0].
    Returns y.
    """
    d = 1
    while d < len(y):
        y[d:] += rpow[d] * y[:-d]
        d *= 2
    return y


def _geom_lag_sums(f: np.ndarray, rpow: np.ndarray):
    """(W1, W2, sum f suf, sum f pre suf) for each column of f.

    W1 = sum_a r^(a+1) f_a and W2 = 2 sum_{a<b} r^(b+1) f_a f_b.  rpow is
    the power table of r as in _geom_scan, here up to r^L, L = len(f).
    pre and suf are taken as the shifted scans r fwd_{m-1} and
    r bwd_{m+1}, not as scan - f, which would lose all relative accuracy
    to cancellation when |r| is tiny.  Both scans run as one over f
    stacked with reversed f.
    """
    y = np.empty((len(f), 2) + f.shape[1:], dtype=complex)
    y[:, 0] = f
    y[:, 1] = f[::-1]
    fwd, bwd = _geom_scan(y, rpow[:, None])[:, 0], y[::-1, 1]
    fb = f[:-1] * bwd[1:]  # f_m bwd_{m+1}
    W1 = rpow[1] * bwd[0]
    W2 = 2.0 * _colsum(rpow[2 : len(f) + 1] * fb)
    pair = rpow[1] * _colsum(fb)
    triple = rpow[2] * _colsum(fwd[:-2] * fb[1:])
    return W1, W2, pair, triple


def _corrected_scaled_det(s, kappa, lam, N: int) -> np.ndarray:
    """K(Lambda) * prod n^-4 with the discarded modes eliminated to 2nd order.

    Returns det E * det O of the row-scaled B_eff times exp(-T2/2 + T3/3)
    for each point of the arrays s, kappa, lam; see module docstring.
    Lambda must satisfy |Lambda| < (N+1)^2 / 2, which the half-width bump
    guarantees.
    """
    md = _modes(N)
    L = len(md.z2)
    s2 = s * s
    # the corrections are skipped where kappa vanishes or underflows, and
    # next to the cut ends, where the geometric sums do not converge
    active = (np.abs(kappa * s2) > 1e-18) & (np.abs(1.0 - s2) > 1e-3)
    wtot, logcorr = None, 0.0
    if active.any():
        kc = kappa * active  # a zero kappa zeroes both corrections exactly
        k2, k3 = kc**2, kc**3
        s2pow = _powers(s2, L + 1)
        fz = 1.0 / (lam - md.z2[:, None])
        W1, W2, pair, triple = _geom_lag_sums(fz, s2pow)

        # rank-2 Schur update.  W1 and W2 sum r^(a+1) g_a, g = f and
        # g = 2 f sum_{b<a} f_b; summation by parts at the last four modes
        # adds their tails past M by turning r^(a+1) into r^(L-3) c_k there.
        inv = 1.0 / (1.0 - s2)
        r, tw = s2 * inv, _TAIL_WEIGHTS[:, :, None]
        dw = s2pow[L - 3] * inv * (((tw[3] * r + tw[2]) * r + tw[1]) * r + tw[0]) - s2pow[L - 3 :]
        dwf = dw * fz[-4:]
        W1 = W1 + _colsum(dwf)
        W2 = W2 + 2.0 * _colsum(dwf * np.cumsum(fz[:-1], axis=0)[-4:])
        wtot = k2 * W1 - k3 * W2

        # determinant of the discarded block: log = -T2/2 + T3/3
        R = _colsum(md.rem[:, :, None] * s2pow[1:L, None])
        T2 = 4.0 * k2 * (pair + R[0] + lam * R[1])
        T3 = 12.0 * k3 * triple
        logcorr = -0.5 * T2 + T3 / 3.0

    return _block_det(s, kappa, lam, N, wtot) * np.exp(logcorr)


def discriminant_batch(
    sps: Sequence[SpectralParam], mu: complex, cfg: DiscriminantConfig | None = None
) -> np.ndarray:
    """discriminant() at each point of sps, as one complex array.

    Points are grouped by their (possibly widened) half-width and run
    through the kernel in chunks of at most _CHUNK points; each value is
    bitwise the one discriminant() returns for its point alone.  Raises
    ValueError, before building anything, at a point whose Lambda is not
    finite or needs a half-width above _MAX_HALF_WIDTH.
    """
    cfg = cfg or DEFAULT_CONFIG
    lams = [sp.g0 - mu for sp in sps]
    Ns = [max(cfg.half_width, math.ceil(math.sqrt(2.5 * abs(lam))) + 8)
          if 2.5 * abs(lam) < math.inf else math.inf for lam in lams]  # inf for a nan too
    for sp, lam, N in zip(sps, lams, Ns):
        if N > _MAX_HALF_WIDTH:
            raise ValueError(f"c = {sp.c}, mu = {mu}: Lambda = {lam} needs a half-width of "
                             f"{N:.6g}, above the cap {_MAX_HALF_WIDTH}")
    out = np.empty(len(lams), dtype=complex)
    for N in sorted(set(Ns)):
        rows = [i for i, n in enumerate(Ns) if n == N]
        for i in range(0, len(rows), _CHUNK):
            r = rows[i : i + _CHUNK]
            s = np.array([sps[j].s for j in r], dtype=complex)
            kappa = np.array([sps[j].kappa for j in r], dtype=complex)
            lam = np.array([lams[j] for j in r], dtype=complex)
            K4c = _corrected_scaled_det(s, kappa, lam, N)
            out[r] = 2.0 - 4.0 * math.pi**2 * K4c * _tail_product_sq(lam, N)
    return out


def discriminant(sp: SpectralParam, mu: complex, cfg: DiscriminantConfig | None = None) -> complex:
    """Hill discriminant Delta(mu; c), entire in mu and pole-free.

    Accepts complex mu; for real c with |c| > 1 or purely imaginary c the
    result is real for real mu.  The half-width, at least 9 wherever
    Lambda != 0 (DiscriminantConfig), widens with |Lambda| so the
    resonant modes stay inside the retained block, as near the cut
    endpoints c = +-1, where the Fourier coefficients blow up
    (|kappa| ~ |1 - s^2|^-1) and with them |Lambda|.
    """
    return discriminant_batch((sp,), mu, cfg)[0]


def discriminant_slope_at_zero(c: complex) -> complex:
    """Closed form d Delta/d mu at mu = 0: 2 pi^2 c (1 + 2c^2) / (c^2-1)^(3/2).

    The 3/2 power uses the branch continuous off [-1, 1]; it is obtained
    from the disk variable via sqrt(c^2 - 1) = (1/s - s)/2, which is
    positive real for real c > 1.  evans places the cut-end root of a
    small-d class with it, and the `slope formula` check tests it.
    """
    sp = s_of_c(c)  # raises on the cut
    root = (1.0 / sp.s - sp.s) / 2.0
    return 2.0 * math.pi**2 * c * (1.0 + 2.0 * c * c) / root**3

