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


def test_unit_wronskian():
    for c, mu in ((2.0, 0.3), (0.2j, 0.5), (0.4 + 0.6j, 0.8)):
        res = integrate_monodromy(c, mu, tol=1e-9)
        assert abs(res.det - 1.0) <= 10 * 1e-9


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


def test_residual_circle_limit():
    theta = 0.3
    mu = 1.0 - theta * theta
    r = _residual(1e-8j, mu, theta, tol=1e-7, min_cut_distance=0.0, start_steps=256)
    assert abs(r) <= 1e-5


def test_residual_periodic_case():
    assert abs(_residual(2.0, 0.0, 0.0, tol=1e-10)) < 1e-9


def test_residual_nonzero_for_positive_mu():
    assert abs(_residual(2.0, 1.0, 0.25, tol=1e-9)) > 1.0


def test_cut_guard_and_budget():
    with pytest.raises(SingularPotentialError):
        integrate_monodromy(0.5 + 1e-5j, 0.3)
    with pytest.raises(ConvergenceError):
        integrate_monodromy(2.0, 0.3, tol=1e-16, max_steps=256)


def test_oracle_agreement_spot_checks():
    # the full 5x5 grid runs in the acceptance suite; spot check here
    for c, mu in ((2.0, 0.25), (0.2j, 0.5), (0.5 + 0.7j, 0.09)):
        tr = integrate_monodromy(c, mu, tol=1e-9).trace
        det = discriminant(s_of_c(c), mu, N16)
        assert abs(tr - det) < 1e-6, (c, mu)


def test_complex_mu_accepted():
    c, mu = 0.3 + 0.4j, 0.2 - 0.35j
    tr = integrate_monodromy(c, mu, tol=1e-10).trace
    det = discriminant(s_of_c(c), mu, N16)
    assert abs(tr - det) < 1e-7
