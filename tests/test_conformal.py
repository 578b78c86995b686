"""Joukowski map, its limit at c = 0, and the potential's Fourier coefficients
as the Hill matrix holds them."""

import cmath
import math

import numpy as np
import pytest

from eulerhill import (
    BranchCutError,
    SingularPotentialError,
    cut_distance,
    s_at_origin,
    s_of_c,
)


def test_s_of_c_real_example():
    sp = s_of_c(2.0)
    assert abs(sp.s - (2.0 - math.sqrt(3.0))) < 1e-15
    assert abs(sp.s) < 1.0


def test_s_of_c_imaginary_example():
    sp = s_of_c(1j / math.sqrt(2.0))
    expected = 1j * (1.0 / math.sqrt(2.0) - math.sqrt(1.5))
    assert abs(sp.s - expected) < 1e-14
    assert abs(sp.kappa - (-1.0 / math.sqrt(3.0))) < 1e-14


def test_s_of_c_large_c():
    sp = s_of_c(10.0)
    assert abs(sp.s) < 0.06
    assert abs((sp.s + 1.0 / sp.s) / 2.0 - 10.0) < 1e-12


def test_s_of_c_cut_errors():
    with pytest.raises(BranchCutError):
        s_of_c(0.5)
    with pytest.raises(BranchCutError):
        s_of_c(-0.999)
    with pytest.raises(SingularPotentialError):
        s_of_c(1.0)
    with pytest.raises(SingularPotentialError):
        s_of_c(-1.0)
    # just off the cut is fine
    assert abs(s_of_c(0.5 + 1e-10j).s) < 1.0


def test_s_at_origin():
    sp = s_at_origin()
    assert sp.s == -1j
    assert sp.kappa == 0
    assert sp.g0 == 1.0
    # the limit from above, as s_of_c just off the cut gives it; from
    # below s tends to +i, with kappa -> 0 all the same
    assert abs(s_of_c(1e-6j).s - sp.s) < 2e-6
    assert abs(s_of_c(-1e-6j).s - 1j) < 2e-6
    assert abs(s_of_c(-1e-6j).kappa) < 2e-6


def test_branch_symmetries():
    rng = np.random.default_rng(3)
    n = 0
    while n < 100:
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if cut_distance(c) < 1e-3:
            continue
        n += 1
        assert abs(s_of_c(-c).s + s_of_c(c).s) < 1e-13
        assert abs(s_of_c(c.conjugate()).s - s_of_c(c).s.conjugate()) < 1e-13
        assert abs(s_of_c(c).s) < 1.0
        assert s_of_c(c).kappa.real < 0.0


def test_modulus_near_cut():
    for x in (-0.9, -0.3, 0.2, 0.7):
        s = s_of_c(complex(x, 1e-3)).s
        assert 1.0 - 5e-3 < abs(s) < 1.0


def test_pure_imaginary_c_gives_real_kappa():
    for beta in (0.1, 0.5, 2.0):
        sp = s_of_c(1j * beta)
        assert abs(sp.s.real) < 1e-15
        assert abs(sp.kappa.imag) < 1e-15
        assert -1.0 < sp.kappa.real <= 0.0


def _coefficients(hill_matrix, c, N):
    """g_k, k = -N..N, of sin(eta)/(c + sin(eta)) as the Hill matrix holds them:
    B_nm = g_{n-m} off its diagonal.  The diagonal holds Lambda - n^2, with
    g_0 = 1 + kappa folded into Lambda, so g_0 is taken from sp."""
    sp = s_of_c(c)
    g = hill_matrix(sp, 0.0, N)[:, N]
    g[N] = sp.g0
    return g


def test_fourier_coeff_against_fft(hill_matrix):
    M = 512
    eta = 2.0 * math.pi * np.arange(M) / M
    for c in (2.0, 0.2j, 0.1 + 0.2j):
        Q = np.sin(eta) / (c + np.sin(eta))
        coef = np.fft.fft(Q) / M
        g = _coefficients(hill_matrix, c, 8)
        for k in range(-8, 9):
            assert abs(coef[k % M] - g[k + 8]) < 1e-12, (c, k)


def test_fourier_series_convergence(hill_matrix):
    """Partial sums converge to the potential at the geometric rate |s|^K."""
    K = 30
    eta = 2.0 * math.pi * np.arange(64) / 64
    for c in (2.0, 0.2j, 0.1 + 0.2j):
        sp = s_of_c(c)
        modes = np.exp(1j * np.outer(np.arange(-K, K + 1), eta))
        partial = _coefficients(hill_matrix, c, K) @ modes
        err = np.max(np.abs(partial - np.sin(eta) / (c + np.sin(eta))))
        a = abs(sp.s)
        bound = 2.0 * abs(sp.kappa) * a ** (K + 1) / (1.0 - a)
        assert err <= 1.5 * bound + 1e-15, (c, err, bound)
        if abs(c) > 1.5:
            assert err <= 1e-8


def test_conjugate_coefficient_relation(hill_matrix):
    # g_k at conj(c) is the conjugate of g_{-k} at c, so for real Lambda
    # the Hill matrix at conj(c) is the conjugate transpose of the one at c
    c, lam = 0.3 + 0.4j, 0.7
    B = hill_matrix(s_of_c(c), lam, 4)
    Bc = hill_matrix(s_of_c(c.conjugate()), lam, 4)
    assert np.max(np.abs(Bc - B.conj().T)) < 1e-14


def test_cut_distance():
    assert cut_distance(0.5 + 0.25j) == 0.25
    assert abs(cut_distance(2.0) - 1.0) < 1e-15
    assert abs(cut_distance(-1.0 - 1.0j) - 1.0) < 1e-15
