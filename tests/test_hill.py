"""Hill matrix, determinant, discriminant and discarded-mode sum tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerhill import (
    BranchCutError,
    DiscriminantConfig,
    PoleProximityError,
    discriminant,
    discriminant_batch,
    discriminant_slope_at_zero,
    hill_determinant,
    integrate_monodromy,
    s_at_origin,
    s_of_c,
)
from eulerhill.hill import _block_det, _geom_lag_sums, _geom_scan, _tail_product_sq

N16 = DiscriminantConfig(half_width=16)


def test_hill_matrix_diagonal_at_origin(hill_matrix):
    sp = s_at_origin()
    B = hill_matrix(sp, 0.3 + 0.1j, 16)
    off = B - np.diag(np.diag(B))
    assert np.max(np.abs(off)) == 0.0
    nn = np.arange(-16, 17)
    assert np.allclose(np.diag(B), (0.3 + 0.1j) - nn.astype(float) ** 2)


def test_hill_matrix_three_by_three(hill_matrix):
    sp = s_of_c(0.3 + 0.4j)
    lam, wtot = 0.7 - 0.2j, 0.3 - 0.2j
    B = hill_matrix(sp, lam, 1, wtot)
    s, k = sp.s, sp.kappa
    t1, t2 = s + s**3, 2.0 * s * s
    expected = np.array(
        [
            [lam - 1.0 - wtot * (1.0 + s**4), -1j * (k * s - wtot * t1), -k * s * s + wtot * t2],
            [1j * (k * s - wtot * t1), lam - wtot * t2, -1j * (k * s - wtot * t1)],
            [-k * s * s + wtot * t2, 1j * (k * s - wtot * t1), lam - 1.0 - wtot * (1.0 + s**4)],
        ]
    )
    assert np.max(np.abs(B - expected)) < 1e-15


def test_hill_matrix_toeplitz_off_diagonal(hill_matrix):
    sp = s_of_c(0.2j)
    lam = 0.4
    B = hill_matrix(sp, lam, 6)
    nn = np.arange(-6, 7)
    off = B - np.diag(lam - nn.astype(float) ** 2)
    for i in range(12):
        for j in range(12):
            assert abs(off[i, j] - off[i + 1, j + 1]) < 1e-15


@pytest.mark.parametrize("N", [1, 2, 6, 16])
@pytest.mark.parametrize("c", [
    0.3 + 0.4j, -1.5 + 3.0j, 2.0 + 0.001j, 0.2j, -0.9 + 0.05j,  # box points
    1.0 + 1e-3 * cmath.exp(0.5j), -1.0 + 1e-4j, 0.998 + 0.001j,  # next to the cut ends
])
def test_even_odd_split_is_exact(hill_matrix, c, N):
    # det E * det O of the kernel against the determinant of the full
    # row-scaled truncation, with and without the rank-2 update
    sp = s_of_c(c)
    lam = sp.g0 - 0.36
    nn = np.abs(np.arange(-N, N + 1))
    row_scale = np.where(nn == 0, 1.0, nn.astype(float) ** 2)
    for wtot in (None, 0.3 - 0.2j):
        B = hill_matrix(sp, lam, N, 0.0 if wtot is None else wtot)
        ref = np.linalg.det(B / row_scale[:, None])
        got = _block_det(np.array([sp.s]), np.array([sp.kappa]), np.array([lam]), N,
                         None if wtot is None else np.array([wtot]))[0]
        assert abs(got - ref) <= 1e-12 * abs(ref), (c, N, wtot, got, ref)


def test_hill_determinant_is_one_at_origin():
    sp = s_at_origin()
    for lam in (0.3, 2.5 + 0.7j, -4.2):
        assert abs(hill_determinant(sp, lam, N16) - 1.0) < 1e-12


def test_hill_determinant_vanishes_at_g0():
    for c in (2.0, 0.3 + 0.4j, 0.5j):
        sp = s_of_c(c)
        assert abs(hill_determinant(sp, sp.g0, N16)) < 1e-8


def test_hill_determinant_pole_guard():
    sp = s_of_c(2.0)
    with pytest.raises(PoleProximityError):
        hill_determinant(sp, 1.0 + 1e-12, N16)
    with pytest.raises(PoleProximityError):
        hill_determinant(sp, 1e-10j, N16)


def test_discriminant_closed_form_at_origin():
    sp = s_at_origin()
    for d in np.linspace(0.0, 1.0, 41):
        ref = 2.0 * math.cos(2.0 * math.pi * math.sqrt(1.0 - d * d))
        assert abs(discriminant(sp, d * d, N16) - ref) < 1e-12


def test_discriminant_is_two_at_mu_zero():
    for c in (2.0, -3.5, 0.2j, 0.1 + 0.2j, 0.5 + 0.7j):
        assert abs(discriminant(s_of_c(c), 0.0, N16) - 2.0) < 1e-12


def test_discriminant_exceeds_two_for_real_c():
    sp = s_of_c(2.0)
    for mu in (0.5, 1.0, 2.0):
        val = discriminant(sp, mu, N16)
        assert abs(val.imag) < 1e-10
        assert val.real > 2.0


def test_pole_freeness_at_integer_squares():
    c = 0.3 + 0.4j
    sp = s_of_c(c)
    for n2 in (0, 1, 4, 9):
        mu0 = sp.g0 - n2  # Lambda = n2 exactly
        v0 = discriminant(sp, mu0, N16)
        v1 = discriminant(sp, mu0 + 1e-9, N16)
        assert np.isfinite(v0.real) and np.isfinite(v0.imag)
        assert abs(v0 - v1) < 1e-6  # limit from nearby mu


def test_realness_imaginary_c():
    for beta in (0.2, 0.5, 0.9):
        sp = s_of_c(1j * beta)
        for mu in (0.04, 0.3, 0.8, 1.4):
            assert abs(discriminant(sp, mu, N16).imag) < 1e-10


def test_realness_real_c():
    for c in (1.5, 3.0, -2.2):
        sp = s_of_c(c)
        for mu in (0.1, 0.6, 1.1):
            assert abs(discriminant(sp, mu, N16).imag) < 1e-10


def test_truncation_stability():
    """Half-width stability on the standard grid.

    The corrected evaluation is stable to ~1e-9 from N = 32 on; at the
    default N = 16 the worst drift (largest |Delta|, real c) is below 1e-6.
    """
    grid = [(c, mu) for c in (0.2j, 0.5j, 0.1 + 0.2j, 2.0)
            for mu in (0.0, 0.5, 1.0, 1.5)]
    for c, mu in grid:
        sp = s_of_c(c)
        d32 = abs(
            discriminant(sp, mu, DiscriminantConfig(half_width=32))
            - discriminant(sp, mu, DiscriminantConfig(half_width=37))
        )
        assert d32 <= 1e-9, (c, mu, d32)
        d16 = abs(
            discriminant(sp, mu, N16)
            - discriminant(sp, mu, DiscriminantConfig(half_width=21))
        )
        assert d16 <= 1e-6, (c, mu, d16)


def test_half_width_is_a_floor_of_nine():
    # N = max(half_width, ceil(sqrt(2.5 |Lambda|)) + 8) is 9 at this point,
    # so half-widths 1 and 9 evaluate the same truncation
    sp = s_of_c(0.3 + 0.4j)
    one, nine, ten = (discriminant(sp, 0.36, DiscriminantConfig(half_width=h)) for h in (1, 9, 10))
    assert one == nine != ten


def test_slope_closed_form_values():
    assert abs(discriminant_slope_at_zero(2.0) - 12.0 * math.pi**2 / math.sqrt(3.0)) < 1e-12
    assert abs(discriminant_slope_at_zero(1j / math.sqrt(2.0))) < 1e-12
    for beta in (0.1, 0.3, 0.6):
        val = discriminant_slope_at_zero(1j * beta)
        assert abs(val.imag) < 1e-12
        assert val.real < 0.0
    for beta in (0.8, 1.5):
        assert discriminant_slope_at_zero(1j * beta).real > 0.0
    with pytest.raises(BranchCutError):
        discriminant_slope_at_zero(0.3)


def test_slope_matches_finite_differences():
    h = 1e-5
    for c in (2.0, 3j, 0.5 + 0.7j):
        sp = s_of_c(c)
        fd = (discriminant(sp, h, N16) - discriminant(sp, -h, N16)) / (2.0 * h)
        cl = discriminant_slope_at_zero(c)
        assert abs(fd - cl) <= 1e-5 * abs(cl), (c, fd, cl)


@pytest.mark.parametrize("r", [0.3 + 0.4j, 0.999 * cmath.exp(0.3j), 1e-6 * cmath.exp(1.1j)])
def test_geom_scan_and_lag_sums_match_brute_force(r):
    rng = np.random.default_rng(3)
    x = rng.normal(size=12) + 1j * rng.normal(size=12)
    L = len(x)

    def close(got, terms):
        # rounding is bounded by the sum of the term magnitudes
        return abs(got - sum(terms)) <= 1e-13 * sum(abs(t) for t in terms)

    rpow = np.array([[r**k] for k in range(L + 1)])  # the sums read r^d from this table
    y = _geom_scan(x[:, None].copy(), rpow)[:, 0]
    for i in range(L):
        assert close(y[i], [r ** (i - j) * x[j] for j in range(i + 1)])
    w1 = [r ** (a + 1) * x[a] for a in range(L)]
    w2 = [2.0 * r ** (b + 1) * x[a] * x[b] for a in range(L) for b in range(a + 1, L)]
    pair = [r ** (b - a) * x[a] * x[b] for a in range(L) for b in range(a + 1, L)]
    triple = [
        r ** (b - a) * x[a] * x[m] * x[b]
        for a in range(L) for m in range(a + 1, L) for b in range(m + 1, L)
    ]
    got = _geom_lag_sums(x[:, None], rpow)
    for g, terms in zip(got, (w1, w2, pair, triple)):
        assert close(g[0], terms)


@pytest.mark.parametrize("N", [16, 48, 141])
def test_tail_product_matches_mpmath(N):
    """prod_{n>N} (1 - Lambda/n^2)^2 at the largest |Lambda| the half-width bump allows."""
    mpmath = pytest.importorskip("mpmath")
    lams = (N - 8) ** 2 / 2.5 * np.exp(1j * np.array([0.0, 2.0, math.pi]))
    got = _tail_product_sq(lams, N)
    with mpmath.workdps(30):
        for g, lam in zip(got, lams):
            lam = mpmath.mpc(lam)
            finite = mpmath.fprod(1 - lam / n**2 for n in range(N + 1, 4001))
            rest = -mpmath.fsum(lam**j * mpmath.zeta(2 * j, 4001) / j for j in range(1, 13))
            want = complex((finite * mpmath.exp(rest)) ** 2)
            assert abs(g - want) <= 1e-13 * abs(want), (lam, g, want)


def test_near_cut_agrees_with_monodromy():
    # the default half-width loses accuracy near the cut; measured relative
    # errors at the first two points are 1.7e-5 and 1.2e-4.  At the last
    # two |s| ~ 1, so the rank-2 Schur sums have tails past M that matter:
    # 1.3e-7 and 3.0e-7, and 1.7e-6 and 4.1e-6 with the tails left out
    for c, mu, tol in ((0.9 + 0.01j, 0.36, 2e-4), (0.95 + 0.005j, 0.16, 2e-4),
                       (0.2 + 0.002j, 0.5, 1e-6), (0.3 + 0.001j, 0.5, 1e-6)):
        val = discriminant(s_of_c(c), mu)
        tr = integrate_monodromy(c, mu, tol=1e-11 * max(1.0, abs(val))).trace
        assert abs(val - tr) <= tol * abs(tr), (c, mu, val, tr)


# c in the count boxes, and c within 1e-3 of a cut end, where the
# half-width is widened (to N = 32 at |c - 1| = 1e-5)
_box_c = st.builds(complex, st.floats(-2.2, 2.2), st.floats(1e-3, 8.0))
_end_c = st.builds(
    lambda end, rho, phi: end + rho * cmath.exp(1j * phi),
    st.sampled_from([-1.0, 1.0]),
    st.floats(1e-6, 1e-3),
    st.floats(0.1, math.pi - 0.1),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cs=st.lists(st.one_of(_box_c, _end_c), max_size=40), mu=st.floats(0.0, 1.0))
def test_batch_matches_one_point(cs, mu):
    sps = [s_of_c(c) for c in cs]
    batch = discriminant_batch(sps, mu)
    assert batch.shape == (len(cs),)
    for c, sp, val in zip(cs, sps, batch):
        one = discriminant(sp, mu)
        assert val == one, (c, mu, val, one)


def test_batch_mixed_half_widths_empty_and_repeated():
    # 3e9j and 1 + 1e-8j skip the discarded-mode corrections: |kappa s^2|
    # underflows at the first, |1 - s^2| < 1e-3 at the second
    far = [s_of_c(c) for c in (0.3 + 0.4j, 2.0 + 0.001j, -1.5 + 3.0j, 3e9j)]
    near = [s_of_c(c) for c in (1.0 + 1e-5 * cmath.exp(1j), -1.0 + 1e-4j, 1.0 + 1e-8j)]
    sps = [far[0], near[0], far[1], near[1], far[2], far[3], near[2], far[0]]
    batch = discriminant_batch(sps, 0.36)
    for sp, val in zip(sps, batch):
        assert abs(val - discriminant(sp, 0.36)) <= 1e-12 * abs(val)
    assert batch[0] == batch[-1]
    empty = discriminant_batch([], 0.36)
    assert empty.shape == (0,) and empty.dtype == complex


def test_phase_margin_at_the_cut_ends():
    for c, mu, phase, rel in (
        # count_roots samples x = 1 -+ 0.002 next to the cut ends; the
        # winding needs only the phase (measured 0.015 and 0.016 rad;
        # relative errors 0.062 and 0.017)
        (0.998 + 0.001j, 0.36, 0.05, 0.1),
        (1.002 + 0.001j, 0.16, 0.05, 0.1),
        # closer to the cut end, where the walk's refinement midpoints
        # reach, the error grows (measured 0.069 and 0.156 rad; relative
        # 0.118 and 0.160)
        (0.999 + 0.001j, 0.36, 0.2, 0.2),
        (0.9995 + 0.001j, 0.36, 0.2, 0.2),
    ):
        val = discriminant_batch([s_of_c(c)], mu)[0]
        tr = integrate_monodromy(c, mu, tol=1e-11 * max(1.0, abs(val))).trace
        assert abs(cmath.phase(val / tr)) <= phase, (c, mu, val, tr)
        assert abs(val - tr) <= rel * abs(tr), (c, mu, val, tr)
