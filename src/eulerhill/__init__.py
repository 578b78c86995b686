"""Point spectrum of 2D ideal flow linearised about a cosine shear.

The library separates the linearised equations into classes of Fourier
modes, reduces each class to a complex Hill equation, and evaluates an
Evans function through a pole-free Hill determinant.  Two independent
oracles (direct monodromy integration and a truncated Fourier-space
class operator) cross-check every spectral result.
"""

from .conformal import SpectralParam, cut_distance, s_at_origin, s_of_c
from .errors import (
    BranchCutError,
    ClassRangeError,
    ContourThroughRootError,
    ConvergenceError,
    CoprimalityError,
    EigenError,
    EulerHillError,
    OracleMismatchError,
    PoleProximityError,
    SingularPotentialError,
    TrivialClassError,
)
from .euler import (
    ClassSpectrum,
    SpectrumReport,
    full_evans,
    report_to_dict,
    report_to_json,
    spectrum_report,
)
from .evans import EvansRootSet, RootSearchConfig, count_roots, find_roots
from .hill import (
    DiscriminantConfig,
    discriminant,
    discriminant_batch,
    discriminant_slope_at_zero,
    hill_determinant,
)
from .jacobi import cross_validate, jacobi_matrix, jacobi_spectrum
from .lattice import (
    ROOT_COUNT_BY_REGION,
    ClassPoint,
    CompanionBasis,
    RegionTag,
    Wavevector,
    class_line_count,
    class_point,
    classify_rational,
    companion_basis,
    lattice_points_in_disk,
    representative,
)
from .monodromy import MonodromyResult, integrate_monodromy

__version__ = "0.1.0"

__all__ = [
    "BranchCutError",
    "ClassPoint",
    "ClassRangeError",
    "ClassSpectrum",
    "CompanionBasis",
    "ContourThroughRootError",
    "ConvergenceError",
    "CoprimalityError",
    "DiscriminantConfig",
    "EigenError",
    "EulerHillError",
    "EvansRootSet",
    "MonodromyResult",
    "OracleMismatchError",
    "PoleProximityError",
    "ROOT_COUNT_BY_REGION",
    "RegionTag",
    "RootSearchConfig",
    "SingularPotentialError",
    "SpectralParam",
    "SpectrumReport",
    "TrivialClassError",
    "Wavevector",
    "class_line_count",
    "class_point",
    "classify_rational",
    "companion_basis",
    "count_roots",
    "cross_validate",
    "cut_distance",
    "discriminant",
    "discriminant_batch",
    "discriminant_slope_at_zero",
    "find_roots",
    "full_evans",
    "hill_determinant",
    "integrate_monodromy",
    "jacobi_matrix",
    "jacobi_spectrum",
    "lattice_points_in_disk",
    "report_to_dict",
    "report_to_json",
    "representative",
    "s_at_origin",
    "s_of_c",
    "spectrum_report",
]
