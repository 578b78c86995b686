"""Joukowski change of spectral variable c -> s and its limit at c = 0.

The temporal parameter c and the disk variable s are linked by
2c = s + 1/s; of the two roots we always keep the one inside the unit
disk, which makes s(c) holomorphic off the real segment [-1, 1].
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import BranchCutError, SingularPotentialError

#: |Im c| below this is treated as exactly real for cut detection.
CUT_IMAG_TOL = 1e-14


@dataclass(frozen=True)
class SpectralParam:
    c: complex
    s: complex
    kappa: complex

    @property
    def g0(self) -> complex:
        return 1.0 + self.kappa


def cut_distance(c: complex) -> float:
    """Distance from c to the segment [-1, 1] on the real axis."""
    c = complex(c)
    if abs(c.real) <= 1.0:
        return abs(c.imag)
    return min(abs(c - 1.0), abs(c + 1.0))


def s_of_c(c: complex) -> SpectralParam:
    """Map c to the root s of s^2 - 2cs + 1 = 0 inside the unit disk.

    Root selection is by modulus comparison (the two roots multiply to 1)
    rather than a fixed square-root branch, and the small root is formed
    as 1/(large root) to avoid cancellation for large |c|.
    """
    c = complex(c)
    if abs(c.imag) < CUT_IMAG_TOL:
        if abs(abs(c.real) - 1.0) < CUT_IMAG_TOL:
            raise SingularPotentialError(f"c = {c} is a cut endpoint (|s| = 1)")
        if abs(c.real) < 1.0:
            raise BranchCutError(
                f"c = {c} lies on the branch cut (-1, 1); "
                "use s_at_origin for the c = 0 limit"
            )
    r = cmath.sqrt(c * c - 1.0)
    big = c + r if abs(c + r) >= abs(c - r) else c - r
    s = 1.0 / big
    kappa = -(1.0 + s * s) / (1.0 - s * s)
    return SpectralParam(c=c, s=s, kappa=kappa)


def s_at_origin() -> SpectralParam:
    """Limit of s(c) as c -> 0 from above the cut: s = -i.

    The limit from below is s = +i; in both kappa = 0 exactly, so the
    potential's Fourier series collapses to the constant 1 and the
    discriminant, the Hill determinant and the Evans function take the
    same value from either side.
    """
    return SpectralParam(c=0.0 + 0.0j, s=-1j, kappa=0.0 + 0.0j)
