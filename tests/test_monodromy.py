"""Integration oracle tests and its agreement with the determinant route."""

import math

import numpy as np
import pytest

from eulerhill import (
    ConvergenceError,
    DiscriminantConfig,
    SingularPotentialError,
    discriminant,
    integrate_monodromy,
    s_of_c,
)
import eulerhill.monodromy as monodromy_mod
from eulerhill.monodromy import _BLOCK, _TAU, TWO_PI, _integrate

N16 = DiscriminantConfig(half_width=16)


def test_free_equation_limit():
    # |c| -> infinity kills the potential: trace -> 2 cosh(2 pi sqrt(mu))
    res = integrate_monodromy(1e6, 0.25, tol=1e-10)
    assert abs(res.trace - 2.0 * math.cosh(math.pi)) < 1e-4


def test_periodic_solution_at_mu_zero():
    res = integrate_monodromy(2.0, 0.0, tol=1e-10)
    assert abs(res.trace - 2.0) < 1e-9


def test_trace_real_for_imaginary_c():
    for mu in (0.05, 0.2, 0.6, 0.9):
        res = integrate_monodromy(0.2j, mu, tol=1e-9)
        assert abs(res.trace.imag) < 1e-8
    # spectrum exists for small mu > 0: the trace dips below 2
    vals = [integrate_monodromy(0.2j, mu, tol=1e-8).trace.real
            for mu in np.linspace(0.02, 0.9, 12)]
    assert min(vals) < 2.0


def test_multipliers_satisfy_characteristic_equation():
    res = integrate_monodromy(0.3 + 0.4j, 0.5, tol=1e-9)
    for rho in res.multipliers:
        assert abs(rho * rho - res.trace * rho + 1.0) < 1e-8


def test_trace_symmetries():
    for c, mu in ((0.3 + 0.4j, 0.5), (1.5 + 0.2j, 0.25)):
        t = integrate_monodromy(c, mu, tol=1e-10).trace
        t_neg = integrate_monodromy(-c, mu, tol=1e-10).trace
        t_conj = integrate_monodromy(c.conjugate(), mu, tol=1e-10).trace
        assert abs(t - t_neg) < 1e-8
        assert abs(t.conjugate() - t_conj) < 1e-8


def _residual(c, mu, theta, **kwargs):
    """trace(M) - 2 cos(2 pi theta); zero iff (mu, theta) is in the spectrum."""
    return integrate_monodromy(c, mu, **kwargs).trace - 2.0 * math.cos(2.0 * math.pi * theta)


def test_residual_circle_limit(monkeypatch):
    theta = 0.3
    mu = 1.0 - theta * theta
    monkeypatch.setattr(monodromy_mod, "_START_STEPS", 256)
    r = _residual(1e-8j, mu, theta, tol=1e-7, min_cut_distance=0.0)
    assert abs(r) <= 1e-5


def test_residual_periodic_case():
    assert abs(_residual(2.0, 0.0, 0.0, tol=1e-10)) < 1e-9


def test_residual_nonzero_for_positive_mu():
    assert abs(_residual(2.0, 1.0, 0.25, tol=1e-9)) > 1.0


def test_cut_guard_and_budget(monkeypatch):
    with pytest.raises(SingularPotentialError):
        integrate_monodromy(0.5 + 1e-5j, 0.3)
    monkeypatch.setattr(monodromy_mod, "_MAX_STEPS", 256)
    with pytest.raises(ConvergenceError, match="within 256 steps"):
        integrate_monodromy(2.0, 0.3, tol=1e-16)


def test_complex_mu_accepted():
    c, mu = 0.3 + 0.4j, 0.2 - 0.35j
    tr = integrate_monodromy(c, mu, tol=1e-10).trace
    det = discriminant(s_of_c(c), mu, N16)
    assert abs(tr - det) < 1e-7


def _rk4_loop(c, mu, n):
    """Reference RK4: the scalar step-by-step loop over the same nodes."""
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


_KERNEL_POINTS = ((0.3 + 0.4j, 0.5), (0.95 + 0.005j, 0.16), (0.2j, 0.8), (0.3 + 0.4j, 0.2 - 0.35j))


@pytest.mark.parametrize("n", [1, 2, 3, 64, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, 16384])
def test_step_matrix_product_matches_scalar_rk4(n):
    for c, mu in _KERNEL_POINTS:
        for got, ref in zip(_integrate(c, mu, n), _rk4_loop(c, mu, n)):
            assert abs(got - ref) <= 1e-12 * abs(ref), (n, c, mu, got, ref)


def test_step_matrix_product_is_exact_rk4_to_round_off():
    # the same steps multiplied out in 34-digit arithmetic; carrying S - I
    # keeps the product within 1e-15 of it (the loop reads 5.6e-16 here,
    # products of S itself 5e-15)
    mpmath = pytest.importorskip("mpmath")
    c, mu, n = 0.3 + 0.4j, 0.5, 2048
    h = TWO_PI / n
    sn = np.sin(_TAU + 0.5 * h * np.arange(2 * n + 1))
    with mpmath.workdps(34):
        w = [mpmath.mpc(x) for x in mu - sn / (c + sn)]
        h = mpmath.mpf(h)
        hh = h * h
        m = [mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)]
        for i in range(n):
            w0, wh, w1 = w[2 * i], w[2 * i + 1], w[2 * i + 2]
            s = w0 + w1
            a = 1 + hh * (w0 + 2 * wh) / 6 + hh * hh * w0 * wh / 24
            b = h * (1 + hh * wh / 6)
            g = h * (2 * s + 8 * wh + hh * wh * s) / 12
            d = 1 + hh * (w1 + 2 * wh) / 6 + hh * hh * w1 * wh / 24
            m = [a * m[0] + b * m[2], a * m[1] + b * m[3], g * m[0] + d * m[2], g * m[1] + d * m[3]]
        ref = [complex(x) for x in m]
    scale = max(map(abs, ref))
    assert max(abs(x - y) for x, y in zip(_integrate(c, mu, n), ref)) <= 1e-15 * scale


# the rung each ladder stopped on before the step-matrix product replaced
# the scalar loop
_GRID_C = (2.0, 0.2j, 1j / math.sqrt(2.0), 0.1 + 0.2j, 0.5 + 0.7j)
_GRID_MU = (0.0, 0.09, 0.25, 0.5, 1.0)
_GRID_RUNGS = (1024, 2048, 2048, 4096, 8192,
               2048, 2048, 1024, 1024, 512,
               2048, 2048, 2048, 1024, 2048,
               2048, 2048, 1024, 1024, 512,
               2048, 2048, 2048, 2048, 4096)
_CUT_RUNGS = (((0.9 + 0.01j, 0.36), 8192), ((0.95 + 0.005j, 0.16), 16384))


def test_ladder_stops_on_the_same_rungs():
    grid = [(c, mu) for c in _GRID_C for mu in _GRID_MU]
    assert [integrate_monodromy(c, mu, tol=1e-9).steps for c, mu in grid] == list(_GRID_RUNGS)
    for (c, mu), rung in _CUT_RUNGS:
        tol = 1e-11 * max(1.0, abs(discriminant(s_of_c(c), mu)))
        assert integrate_monodromy(c, mu, tol=tol).steps == rung, (c, mu)
