"""Independent Fourier-space oracle: the truncated class operator.

The class led by a0 = k*q + l*p obeys the three-term recursion
R(j) (a_{j+1} - a_{j-1}) = lambda~ a_j with R(j) = p^-2 - |a0 + j*p|^-2.
The temporal eigenvalue of the linearised flow carries the advection
prefactor (p^a0) p^2 / 2 = -k p^2 / 2 on top of this recursion, so the
spectrum returned here is scaled by k p^2 / 2 (the sign is immaterial:
the spectrum is symmetric under lambda -> -lambda).  The scale is fixed
by deriving the class block of the vorticity equation in Fourier space
and is confirmed numerically by the Evans-function and monodromy routes.

The recursion matrix L is tridiagonal with a zero diagonal, so it is
2-cyclic: with the modes split into even and odd positions,
L = [[0, B], [C, 0]], B = L[0::2, 1::2] and C = L[1::2, 0::2].  If
C B u = nu u, then lambda = +-sqrt(nu) are eigenvalues of L with the
eigenvector v = [B u / lambda ; u] (even entries B u / lambda, odd
entries u); the remaining eigenvalue of L is 0.  The spectrum is thus
the eigenvalues of one matrix of side M instead of 2M + 1, with an
eigenvector u only for each kept nu, by one inverse-iteration solve, and
every lifted pair is still checked against L itself.  A real nu comes
back with imaginary part exactly 0, so a negative nu gives a lambda
with real part exactly 0 and never passes the |Re lambda| > tol cut.
"""

from __future__ import annotations

import numpy as np

from .errors import ClassRangeError, EigenError, OracleMismatchError
from .evans import RootSearchConfig, find_roots
from .lattice import CompanionBasis, Wavevector, class_point, companion_basis, representative

__all__ = ["jacobi_matrix", "jacobi_spectrum", "cross_validate"]

# jacobi_spectrum keeps the eigenvalues with |Re| above _TOL and needs
# every lifted eigenpair to meet ||L v - lam v|| <= _RESIDUAL_TOL ||v||;
# cross_validate pairs each operator eigenvalue with an Evans one
# within _PAIR_TOL
_TOL = 1e-6
_RESIDUAL_TOL = 1e-8
_PAIR_TOL = 1e-4


def _check_range(p: Wavevector, k: int):
    if not 0 < k < p.p_sq:
        raise ClassRangeError(f"need 0 < k < p^2 = {p.p_sq}, got k = {k}")


def jacobi_matrix(p: Wavevector, k: int, M: int | None = None,
                  q: CompanionBasis | None = None) -> np.ndarray:
    """Truncated class recursion on modes a0 + j*p, |j| <= M (by default
    4 p^2), with a0 the class representative: real, of side 2M + 1."""
    _check_range(p, k)
    q = q or companion_basis(p)
    M = M if M is not None else 4 * p.p_sq
    if M < p.p_sq:
        raise ClassRangeError(f"half-width M = {M} below p^2 = {p.p_sq}")
    cp = class_point(p, q, k)
    a0 = representative(p, q, cp)
    jj = np.arange(-M, M + 1)
    norms = (a0[0] + jj * p.p1) ** 2 + (a0[1] + jj * p.p2) ** 2
    if np.any(norms == 0):
        raise ClassRangeError("class line passes through the origin")
    R = 1.0 / p.p_sq - 1.0 / norms
    L = np.zeros((2 * M + 1, 2 * M + 1))
    i = np.arange(2 * M)
    L[i, i + 1] = R[:-1]
    L[i + 1, i] = -R[1:]
    return L


def jacobi_spectrum(p: Wavevector, k: int, M: int | None = None,
                    q: CompanionBasis | None = None) -> np.ndarray:
    """Temporal eigenvalues of the truncated class operator, |Re| > _TOL.

    Solved on the even/odd half C B (module docstring); each lifted
    eigenpair must satisfy the residual contract
    ||L v - lam v|| <= _RESIDUAL_TOL ||v|| for the full matrix L.  The
    returned values carry the k p^2 / 2 advection scale.
    """
    L = jacobi_matrix(p, k, M, q=q)
    B, C = L[0::2, 1::2], L[1::2, 0::2]
    CB = C @ B
    n = CB.shape[0]
    scale = 0.5 * k * p.p_sq
    try:
        nus = np.linalg.eigvals(CB).astype(complex)
        roots = np.sqrt(nus)
        keep = np.abs(roots.real) * scale > _TOL
        # one inverse-iteration solve per kept nu, started from a ramp:
        # the rows of L sum to zero away from the ends, so ones is nearly
        # orthogonal to every left eigenvector and would be a poor start
        shifted = CB - nus[keep, None, None] * np.eye(n)
        ramp = np.broadcast_to(np.arange(1.0, n + 1)[:, None], (len(shifted), n, 1))
        us = np.linalg.solve(shifted, ramp)[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise EigenError("eigensolver failed") from exc
    vals = np.concatenate([roots[keep], -roots[keep]])
    u = np.tile(us, 2)
    v = np.empty((L.shape[0], vals.size), dtype=complex)
    v[0::2] = B @ u / vals
    v[1::2] = u
    res = np.linalg.norm(L @ v - vals * v, axis=0) / np.linalg.norm(v, axis=0)
    if np.any(res > _RESIDUAL_TOL):
        raise EigenError(f"eigenpair residual {res.max():.2e} breaks the contract")
    lams = scale * vals
    return lams[np.lexsort((lams.imag, lams.real))]


def _nearest_distances(a, b) -> list:
    """Distance from each value of a, in order, to its nearest unused value
    of b; b must be at least as long as a."""
    unused = list(b)
    dists = []
    for x in a:
        i = min(range(len(unused)), key=lambda i: abs(x - unused[i]))
        dists.append(abs(x - unused.pop(i)))
    return dists


def cross_validate(p: Wavevector, k: int, M: int,
                   cfg: RootSearchConfig | None = None) -> dict:
    """Match truncated-operator eigenvalues at half-width M against Evans roots.

    Each Evans root c of the class (theta(k), d(k)) corresponds to the
    temporal eigenvalue lambda = -i*k*c.  Raises OracleMismatchError
    when counts differ or some eigenvalue has no partner within
    _PAIR_TOL.
    """
    q = companion_basis(p)
    cp = class_point(p, q, k)
    lams_j = list(jacobi_spectrum(p, k, M, q=q))
    rs = find_roots(cp.theta, cp.d, cfg, expected_region=cp.region)
    lams_e = []
    for c, m in rs.roots:
        lams_e.extend([-1j * k * c] * m)
    if len(lams_j) != len(lams_e):
        raise OracleMismatchError(
            f"class k={k} of p=({p.p1},{p.p2}): operator gives {len(lams_j)} "
            f"unstable eigenvalues, Evans function gives {len(lams_e)}"
        )
    dists = _nearest_distances(lams_j, lams_e)
    for lj, dist in zip(lams_j, dists):
        if dist > _PAIR_TOL:
            raise OracleMismatchError(
                f"eigenvalue {lj} unmatched within {_PAIR_TOL} (nearest {dist})"
            )
    return {
        "p": (p.p1, p.p2),
        "k": k,
        "count": len(lams_j),
        "lambdas_operator": lams_j,
        "lambdas_evans": lams_e,
        "max_pairing_distance": max(dists, default=0.0),
    }
