"""Truncated class-operator oracle: structure, spectra, cross-validation."""

import math

import numpy as np
import pytest

from eulerhill import (
    ClassRangeError,
    EigenError,
    Wavevector,
    class_point,
    companion_basis,
    cross_validate,
    jacobi_matrix,
    jacobi_spectrum,
    representative,
)
from eulerhill import checks
import eulerhill.jacobi as jacobi_mod


def _dense_spectrum(p, k, M, q, tol=1e-6, residual_tol=1e-8):
    """Reference: the kept eigenvalues of one dense eig of the full
    (2M+1)-square recursion matrix, under the same cut and contract."""
    L = jacobi_matrix(p, k, M, q=q)
    vals, vecs = np.linalg.eig(L)
    scale = 0.5 * k * p.p_sq
    keep = np.abs(vals.real) * scale > tol
    for idx in np.nonzero(keep)[0]:
        v = vecs[:, idx]
        assert np.linalg.norm(L @ v - vals[idx] * v) <= residual_tol * np.linalg.norm(v)
    lams = scale * vals[keep]
    return lams[np.lexsort((lams.imag, lams.real))]


def test_matrix_structure_and_R_signs():
    p = Wavevector(1, 2)
    M = 30
    L = jacobi_matrix(p, 1, M=M)
    q = companion_basis(p)
    jj = np.arange(-M, M + 1)
    a0 = representative(p, q, class_point(p, q, 1))
    norms = (a0[0] + jj * p.p1) ** 2 + (a0[1] + jj * p.p2) ** 2
    R = 1.0 / p.p_sq - 1.0 / norms
    # superdiagonal +R(j), subdiagonal -R(j); all else zero
    for i in range(2 * M):
        assert L[i, i + 1] == R[i]
        assert L[i + 1, i] == -R[i + 1]
    assert np.count_nonzero(L) == np.count_nonzero(np.diag(R[:-1], 1)) + np.count_nonzero(
        np.diag(-R[1:], -1)
    )
    # R -> 1/p^2 at the ends and is negative exactly at interior points
    assert abs(R[0] - 1.0 / p.p_sq) < 1.0 / (M * p.p_sq) ** 0.5
    inside = norms < p.p_sq
    assert np.all((R < 0) == inside)
    on_disk = norms == p.p_sq
    assert np.all((R == 0) == on_disk)


def test_spectrum_counts_examples():
    assert len(jacobi_spectrum(Wavevector(1, 1), 1, M=40)) == 4
    assert len(jacobi_spectrum(Wavevector(1, 2), 1, M=40)) == 4
    assert len(jacobi_spectrum(Wavevector(4, 5), 40, M=170)) == 0


@pytest.mark.parametrize("pp, M", [((1, 2), None), ((2, 3), None), ((3, 4), None),
                                   ((5, 4), 100), ((4, -5), 100)], ids=str)
def test_half_size_spectrum_matches_dense_reference(pp, M):
    """The even/odd reduction keeps the counts and values of the dense route."""
    p = Wavevector(*pp)
    q = companion_basis(p)
    for k in range(1, p.p_sq):
        ref = _dense_spectrum(p, k, M, q)
        got = jacobi_spectrum(p, k, M, q=q)
        assert len(got) == len(ref), (pp, k)
        if len(ref):
            assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(ref))) <= 1e-10, (pp, k)


def test_residual_contract_checks_the_lifted_pairs(monkeypatch):
    """Each lifted eigenpair is checked against the full matrix: a zero
    residual budget fails, the default one passes."""
    p = Wavevector(1, 2)
    assert len(jacobi_spectrum(p, 1, M=40)) == 4
    monkeypatch.setattr(jacobi_mod, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(EigenError):
        jacobi_spectrum(p, 1, M=40)


def test_range_errors():
    p = Wavevector(1, 2)
    with pytest.raises(ClassRangeError):
        jacobi_matrix(p, 0)
    with pytest.raises(ClassRangeError):
        jacobi_matrix(p, 5)
    with pytest.raises(ClassRangeError):
        jacobi_matrix(p, 1, M=3)


def test_truncation_stability():
    """Spectra converge exponentially in M; the rate is set by the distance
    of the eigenvalue from the essential spectrum, so the near-axis class
    k=4 of p=(1,2) needs a wider window than the others."""
    p = Wavevector(1, 2)
    for k, M in ((1, 25), (2, 25), (3, 25), (4, 75)):
        a = np.sort_complex(jacobi_spectrum(p, k, M=M))
        b = np.sort_complex(jacobi_spectrum(p, k, M=M + 10))
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) < 1e-6
    # and the ladder is monotone decreasing for a fast class
    diffs = []
    for M in (15, 25, 35):
        a = np.sort_complex(jacobi_spectrum(p, 1, M=M))
        b = np.sort_complex(jacobi_spectrum(p, 1, M=M + 10))
        diffs.append(np.max(np.abs(a - b)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_hamiltonian_symmetry_of_spectrum():
    for p, k in ((Wavevector(1, 1), 1), (Wavevector(1, 2), 2), (Wavevector(2, 3), 5)):
        lams = jacobi_spectrum(p, k, M=60)
        for lam in lams:
            assert min(abs(lams + lam)) < 1e-8  # -lam present
            assert min(abs(lams - lam.conjugate())) < 1e-8  # conj present


def test_counts_match_lattice_for_all_small_p():
    """Operator count equals twice the interior lattice points per class."""
    ok, detail = checks.jacobi_counts.run("full")
    assert ok, detail


def test_cross_validate_examples():
    rep = cross_validate(Wavevector(1, 1), 1, M=60)
    assert rep["count"] == 4
    assert rep["max_pairing_distance"] <= 1e-4

    rep = cross_validate(Wavevector(1, 2), 3, M=60)
    assert rep["count"] == 2
    assert rep["max_pairing_distance"] <= 1e-4

    rep = cross_validate(Wavevector(4, 5), 9, M=170)
    assert rep["count"] == 2
    assert rep["max_pairing_distance"] <= 1e-4
