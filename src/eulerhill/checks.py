"""Oracle checks of the paper's claims, shared by `eulerhill verify` and the tests.

Each check compares independent routes to the same quantity over one
input set per level, "quick" or "full", against a fixed bound, and
returns (ok, detail).  A check without an input set for a level does
not run at that level.  The full inputs are those of the acceptance
criteria.  The package root does not import this module.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .conformal import s_at_origin, s_of_c
from .euler import spectrum_report
from .evans import DEFAULT_SEARCH, RootSearchConfig, _evans_batch, _quarter_walk, evans
from .hill import discriminant, discriminant_slope_at_zero
from .jacobi import cross_validate, jacobi_spectrum
from .lattice import Wavevector, class_line_count, class_point, companion_basis
from .monodromy import DEFAULT_TOL, integrate_monodromy

LEVELS = ("quick", "full")

#: the coprime wavevectors with p^2 <= 25, up to symmetry
SMALL_P = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3),
           (3, 2), (1, 4), (4, 1), (3, 4), (4, 3), (1, -2))


@dataclass(frozen=True)
class Check:
    name: str
    inputs: dict  # level -> keyword arguments of fn
    fn: Callable  # fn(search, **inputs) -> (ok, detail)

    def run(self, level: str, search: RootSearchConfig = DEFAULT_SEARCH) -> tuple:
        """(ok, detail) on the level's inputs."""
        return self.fn(search, **self.inputs[level])


def _check(name: str, **inputs):
    return lambda fn: Check(name, inputs, fn)


@_check("closed form at c=0", quick=dict(n=50), full=dict(n=200))
def closed_form_origin(search, n):
    sp = s_at_origin()
    worst = 0.0
    for d in np.linspace(0.0, 1.0, n):
        ref = 2.0 * math.cos(2.0 * math.pi * math.sqrt(1.0 - d * d))
        worst = max(worst, abs(discriminant(sp, d * d, search.disc) - ref))
    return worst <= 1e-9, f"max |Delta - 2cos(2 pi sqrt(1-d^2))| = {worst:.2e}"


@_check("determinant vs monodromy",
        quick=dict(points=((2.0, 0.25), (0.2j, 0.5), (0.1 + 0.2j, 0.25), (0.5 + 0.7j, 0.09))),
        full=dict(points=tuple((c, mu)
                               for c in (2.0, 0.2j, 1j / math.sqrt(2.0), 0.1 + 0.2j, 0.5 + 0.7j)
                               for mu in (0.0, 0.09, 0.25, 0.5, 1.0))))
def oracle_agreement(search, points):
    worst = 0.0
    for c, mu in points:
        tr = integrate_monodromy(c, mu).trace
        worst = max(worst, abs(discriminant(s_of_c(c), mu, search.disc) - tr))
    return worst <= 1e-6, f"worst |Delta_det - trace| = {worst:.2e}"


@_check("slope formula",
        quick=dict(cs=(2.0, 3j, 0.5 + 0.7j), flat=()),
        full=dict(cs=(2.0, 3j, 0.5 + 0.7j), flat=(1j / math.sqrt(2.0),)))
def slope_formula(search, cs, flat):
    """Centred differences of Delta at mu = 0 against the closed form,
    relative; at the points of flat the slope itself must vanish."""
    h = 1e-5

    def fd(c):
        sp = s_of_c(c)
        return (discriminant(sp, h, search.disc) - discriminant(sp, -h, search.disc)) / (2.0 * h)

    worst = 0.0
    for c in cs:
        cl = discriminant_slope_at_zero(c)
        worst = max(worst, abs(fd(c) - cl) / abs(cl))
    detail = f"worst relative deviation {worst:.2e}"
    zero = max((abs(fd(c)) for c in flat), default=0.0)
    if flat:
        detail += f", worst |slope| where it vanishes {zero:.2e}"
    return worst <= 1e-5 and zero <= 1e-7, detail


@_check("operator vs lattice counts", quick=dict(ps=((1, 2),)), full=dict(ps=SMALL_P))
def jacobi_counts(search, ps):
    """Operator eigenvalue count equals twice the interior lattice points per class."""
    for pp in ps:
        p = Wavevector(*pp)
        q = companion_basis(p)
        for k in range(1, p.p_sq):
            n_ops = len(jacobi_spectrum(p, k, q=q))
            n_lat = 2 * class_line_count(p, q, k)
            if n_ops != n_lat:
                return False, f"p={pp} k={k}: operator {n_ops} vs lattice {n_lat}"
    return True, "operator counts match lattice counts"


@_check("evans symmetries",
        quick=dict(seed=7, n=20, im_min=0.2, theta=0.3, d=0.4),
        full=dict(seed=23, n=50, im_min=0.1, theta=0.27, d=0.61,
                  axis_class=(0.3, 0.5),
                  axis=tuple(1j * np.linspace(0.1, 1.5, 8)) + tuple(np.linspace(1.1, 4.0, 8)),
                  wronskian=((2.0, 0.3), (0.2j, 0.5), (0.4 + 0.6j, 0.8))))
def symmetries(search, seed, n, im_min, theta, d, axis_class=None, axis=(), wronskian=()):
    """E(conj c) = conj E(c) and E(-c) = E(c), on which the root count
    rests, at n random c of the class (theta, d), E real at the axis
    points of axis_class, and unit determinant of the RK4 monodromy at
    the (c, mu) of wronskian."""
    rng = np.random.default_rng(seed)
    conj = even = 0.0
    for _ in range(n):
        c = complex(rng.uniform(-2, 2), rng.uniform(im_min, 2))
        a = evans(c, theta, d, search.disc)
        b = evans(c.conjugate(), theta, d, search.disc)
        conj = max(conj, abs(a.conjugate() - b))
        even = max(even, abs(evans(-c, theta, d, search.disc) - a))
    detail = f"worst conjugation defect {conj:.1e}, evenness defect {even:.1e}"
    real = max((abs(evans(c, *axis_class, search.disc).imag) for c in axis), default=0.0)
    if axis:
        detail += f", axis reality {real:.1e}"
    det = max((abs(integrate_monodromy(c, mu).det - 1.0) for c, mu in wronskian), default=0.0)
    if wronskian:
        detail += f", Wronskian {det:.1e}"
    return max(conj, even) <= 1e-10 and real <= 1e-9 and det <= 10 * DEFAULT_TOL, detail


@_check("sharpness at small p", full=dict(ps=SMALL_P, totals={(1, 1): 8, (1, 2): 24}))
def sharpness(search, ps, totals):
    """Count-only spectra are sharp, with the stated totals."""
    found = {pp: spectrum_report(Wavevector(*pp), search, count_only=True) for pp in ps}
    ok = all(r.sharp for r in found.values()) and all(
        found[pp].total_count == n for pp, n in totals.items())
    return ok, "; ".join(f"{pp}:{r.total_count}{'' if r.sharp else ' not sharp'}"
                         for pp, r in found.items())


@_check("operator vs evans pairing", full=dict(cases=(((1, 1), 60), ((1, 2), 75))))
def jacobi_pairing(search, cases):
    """Operator eigenvalues pair with Evans roots, per class, at half-width M."""
    worst = 0.0
    for pp, M in cases:
        p = Wavevector(*pp)
        for k in range(1, p.p_sq):
            worst = max(worst, cross_validate(p, k, M=M, cfg=search)["max_pairing_distance"])
    return worst <= 1e-4, f"worst pairing distance {worst:.2e}"


@_check("no roots beyond the square of half-side 2", full=dict(ps=SMALL_P, half_side=2.0))
def beyond_the_square(search, ps, half_side):
    """Count 0 outside the square (-half_side, half_side)^2, per class: the
    root count's quarter walk, on i a -> a + i a -> a with a = half_side,
    covers everything outside the square out to infinity.  Howard's bound
    |c| <= 1 (evans module docstring), on which the count does not rest,
    checked by the walk itself."""
    n = 0
    for pp in ps:
        p = Wavevector(*pp)
        q = companion_basis(p)
        for k in range(1, p.p_sq):
            cp = class_point(p, q, k)
            count, _ = _quarter_walk(lambda cs: _evans_batch(cs, cp.theta, cp.d, search.disc),
                                     half_side, half_side)
            if count:
                return False, f"p={pp} k={k}: {count} roots outside the square"
            n += 1
    return True, f"no root outside the square of half-side {half_side:g} for all {n} classes"


#: every check, in the order `eulerhill verify` prints them
CHECKS = (closed_form_origin, oracle_agreement, slope_formula, jacobi_counts,
          symmetries, sharpness, jacobi_pairing, beyond_the_square)
