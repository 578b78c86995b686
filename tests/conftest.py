"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _hill_matrix(sp, lam, N, wtot=0.0):
    """The (2N+1)-square cleared truncation, written out from its definition.

    B_nm = (Lambda - n^2) d_nm + kappa i^(n-m) s^|n-m| (n != m)
           - wtot i^(n-m) (s^(2N-n-m) + s^(2N+n+m)),   n, m = -N..N,

    the last term being the rank-2 elimination of the discarded modes.
    """
    s, kappa = sp.s, sp.kappa
    B = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    for i, n in enumerate(range(-N, N + 1)):
        for j, m in enumerate(range(-N, N + 1)):
            phase = 1j ** ((n - m) % 4)
            B[i, j] = -wtot * phase * (s ** (2 * N - n - m) + s ** (2 * N + n + m))
            if n == m:
                B[i, j] += lam - n * n
            else:
                B[i, j] += kappa * phase * s ** abs(n - m)
    return B


@pytest.fixture
def hill_matrix():
    """_hill_matrix(sp, lam, N, wtot=0): the full truncation, built in the test."""
    return _hill_matrix
