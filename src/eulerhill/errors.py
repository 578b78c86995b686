"""Exception hierarchy for the eulerhill package."""


class EulerHillError(Exception):
    """Base class for all package errors."""


class CoprimalityError(EulerHillError):
    """Wavevector components are not coprime (or both zero)."""


class TrivialClassError(EulerHillError):
    """k = 0 carries no non-constant periodic solutions."""


class ClassRangeError(EulerHillError):
    """Wave number k outside the admissible range for the operation."""


class BranchCutError(EulerHillError):
    """Spectral parameter c lies on the branch cut (-1, 1)."""


class SingularPotentialError(EulerHillError):
    """Potential is singular for this c (c = +-1 or too close to the cut)."""


class PoleProximityError(EulerHillError):
    """Direct Hill determinant evaluated too close to a pole Lambda = n^2."""


class ConvergenceError(EulerHillError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class ContourThroughRootError(EulerHillError):
    """A winding contour passes through, or indistinguishably near, a zero."""


class EigenError(EulerHillError):
    """Dense eigenvalue routine failed or violated its residual contract."""


class OracleMismatchError(EulerHillError):
    """Independent computations of the same quantity disagree."""
