"""Per-class Evans function and complex root counting / refinement.

E(c; theta, d) = 2 cos(2 pi theta) - Delta(d^2; c) vanishes exactly at
the isolated eigenvalues c of the class with parameters (theta, d).
E is analytic on the plane less the cut [-1, 1], and at c = infinity
too, where the potential sin(eta) / (c + sin(eta)) vanishes and E
tends to 2 cos(2 pi theta) - 2 cosh(2 pi d), nonzero for d > 0.  So
the argument principle on the exterior of the thin rectangle
R = [-X, X] x [-eps_cut, eps_cut] counts every root outside R by the
winding of E along the boundary of R, walked clockwise; no search box
is needed.  E(-c) = E(c), because eta -> eta + pi maps the potential
of c onto that of -c, and E(conj c) = conj E(c), because theta and d
are real.  So the four quarters of that boundary contribute alike,
and the count is (2 / pi) times the argument change of E along the
quarter path i eps_cut -> X + i eps_cut -> X, a multiple of pi since
E is real at both ends.

Root positions come from the same walk.  With t = s(c)^2, G(t) = E(c)
is analytic in the unit disk with real Taylor coefficients, and the
contour moments S_k = (1/pi) Im integral of t^k dlog G along the
quarter path's image are the sums of the k-th powers of the zeros of G
that the walk encloses (Delves and Lyness 1967; Kravanja and Van Barel,
LNM 1727, 2000).  Their estimates seed damped Newton iteration at no
extra evaluation, each seed's deflated by the roots reached before it.

Sampling: the cut [-1, 1] is avoided by keeping Im c >= eps_cut; the
walk's top edge is sampled graded because roots of small-d classes
approach the real axis and a coarse walk can alias away their phase
winding.  Each zone has a grid at its own step, kept where no finer
zone covers it: fine next to the imaginary axis, at the cut end and in
a window around the root next to c = 1 that the small-mu model
E ~ 2 cos(2 pi theta) - 2 - d^2 S(c) predicts, S being the slope of
Delta at mu = 0, and coarse elsewhere.

Every root off the real axis lies in the closed unit disk (Howard,
J. Fluid Mech. 10, 1961, 509-512).  The class equation
g'' + sin(eta) / (c + sin(eta)) g = d^2 g is Rayleigh's equation for
the shear U = -sin(eta) with wave number alpha = d.  For Im c != 0 put
g = (U - c) F; then ((U - c)^2 F')' = alpha^2 (U - c)^2 F.  Multiply
by conj(F) and integrate over one period.  The solution is
theta-quasi-periodic, g(eta + 2 pi) = exp(2 pi i theta) g(eta), and so
is F, because U is periodic; with theta real the boundary term
conj(F) (U - c)^2 F' is then periodic and cancels, leaving the
integral of (U - c)^2 Q = 0 with Q = |F'|^2 + alpha^2 |F|^2 >= 0.  Its
imaginary and real parts give the integrals of U Q and U^2 Q as Re c
and |c|^2 times that of Q, and 0 >= integral of (U + 1)(U - 1) Q turns
into |c|^2 <= 1.  The count does not rest on this bound, which
`eulerhill verify --level full` checks with the same quarter walk
around the square of half-side 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .conformal import CUT_IMAG_TOL, s_at_origin, s_of_c
from .errors import ContourThroughRootError, ConvergenceError, OracleMismatchError
from .hill import DiscriminantConfig, discriminant, discriminant_batch, discriminant_slope_at_zero
from .lattice import ROOT_COUNT_BY_REGION, RegionTag, classify_rational

__all__ = [
    "RootSearchConfig",
    "EvansRootSet",
    "evans",
    "find_roots",
    "count_roots",
]

TWO_PI = 2.0 * math.pi


# Fixed search settings: the half-length X of the rectangle around the
# cut whose exterior the count covers, the axis snap tolerance, the
# Newton steps per root and the |E| that ends them, and the samples a
# walk may take.
_X = 1.1
_SNAP_TOL = 2e-8
_NEWTON_STEPS = 80
_ROOT_TOL = 1e-10
_MAX_PTS = 20000

# Top-edge sampling (_edge_points), at a twelfth of the edge but in
# three kinds of fine zone:
# - _CUT_ZONE, the half-width of the fine zone at the cut end; without
#   it the moment seeds of the classes of (4,5), (5,4), (2,5), (3,5),
#   (7,8) and (10,11) lie a median 3.0e-2 from the nearest root, not
#   1.2e-2;
# - _AXIS_ZONE, the width of the fine zone next to the axis, where
#   root pairs are born at c = 0; without it the one moment seed of
#   (0.4843535685261879, 0.8581726231610757) lies at 0.0031i, not next
#   to its root 0.0155i, and Newton from it stalls near c = 0;
# - _WINDOW_STEP and _WINDOW_WIDTH, the step and half-width of the window
#   around the cut-end root that _cut_end_root predicts, in units of the
#   root's height above the edge: the root's phase swing of pi is taken
#   in increments of at most 2 atan(1/8), and atan(1/2) of it lies
#   beyond either end.  Without the window 48, not 44, of 120 draws with
#   d in (1e-4, 0.32) miscount.
_CUT_ZONE = 0.02
_AXIS_ZONE = 0.1
_WINDOW_STEP = 0.25
_WINDOW_WIDTH = 2.0


@dataclass(frozen=True)
class RootSearchConfig:
    """The settable part of the root search: the margin eps_cut above the cut.

    The count covers the exterior of [-_X, _X] x [-eps_cut, eps_cut]
    (module docstring), so only eps_cut bounds where roots are found.
    Every root off the real axis has Im c <= |c| <= 1 (Howard's bound,
    in the module docstring), so an eps_cut of 1 or more could only
    count 0; `eulerhill verify --level full` checks that bound.  Roots
    are seeded from the contour moments of the count's walk, not
    isolated by subdividing it, so there is no depth limit.  Fixed, not
    settable: _X, _SNAP_TOL, _NEWTON_STEPS, _ROOT_TOL and _MAX_PTS.
    """

    eps_cut: float = 1e-3
    disc: DiscriminantConfig = field(default_factory=DiscriminantConfig)

    def __post_init__(self):
        if not 0.0 < self.eps_cut < 1.0:
            raise ValueError(f"eps_cut must lie in (0, 1), below Howard's bound Im c <= 1 "
                             f"on every root, got {self.eps_cut}")


DEFAULT_SEARCH = RootSearchConfig()


def _two_cos(theta: float) -> float:
    """2 cos(2 pi theta) of theta reduced exactly: math.remainder(theta, 1)
    is theta - round(theta), and every |theta| <= 1/2 passes unchanged."""
    return 2.0 * math.cos(TWO_PI * math.remainder(theta, 1.0))


def evans(c, theta: float, d: float, cfg: DiscriminantConfig | None = None) -> complex:
    """Evans function of the class with parameters (theta, d).

    At c = 0 it is the value at s_at_origin, which is the same from
    either side of the cut; elsewhere on the cut s_of_c raises.
    """
    c = complex(c)
    sp = s_at_origin() if c == 0 else s_of_c(c)
    return _two_cos(theta) - discriminant(sp, d * d, cfg)


def _evans_batch(cs, theta: float, d: float, cfg: DiscriminantConfig | None = None) -> np.ndarray:
    """evans() at many points off the cut, through one discriminant_batch call."""
    sps = [s_of_c(c) for c in cs]
    return _two_cos(theta) - discriminant_batch(sps, d * d, cfg)


def _edge_points(level: float, end: float, root: complex | None = None):
    """Samples of the top edge i level -> end + i level, excluding its end.

    The samples are x = 0 and each zone's grid point in (0, end) that no
    zone with a finer step covers; a zone's grid is the odd multiples of
    half its step from one step before the zone to one after.  With
    h = max(2 level, 0.004) the zones (from, to, step) are the base zone
    (-end, end, end/12), |x| <= _AXIS_ZONE and |x - 1| <= _CUT_ZONE at
    step h, and the window of _WINDOW_WIDTH heights of root above the
    edge either side of Re root at _WINDOW_STEP heights (root is the
    class's predicted cut-end root, or None).  So no step exceeds
    end/12, and with no window the samples next to the cut end sit at
    x = 1 -+ h/2, not on x = 1.
    """
    h = max(2.0 * level, 0.004)
    zones = [(-end, end, end / 12.0), (-_AXIS_ZONE, _AXIS_ZONE, h),
             (1.0 - _CUT_ZONE, 1.0 + _CUT_ZONE, h)]
    if root is not None and root.imag != level:
        height = abs(root.imag - level)
        zones.append((root.real - _WINDOW_WIDTH * height, root.real + _WINDOW_WIDTH * height,
                      _WINDOW_STEP * height))
    lo, hi, steps = np.array(zones).T
    grids = [(np.arange(math.ceil(max(0.0, z0 - s) / s - 0.5),
                        math.floor(min(end, z1 + s) / s - 0.5) + 1, dtype=float) + 0.5) * s
             for z0, z1, s in zones]
    t = np.concatenate(grids)
    step = np.repeat(steps, [g.size for g in grids])
    finer = (lo <= t[:, None]) & (t[:, None] <= hi) & (steps < step[:, None])
    keep = (t < end) & ~finer.any(axis=1)  # each grid starts at s/2 > 0 or later
    return (np.unique(np.append(t[keep], 0.0)) + 1j * level).tolist()


def _quarter_walk(f, x, y, root=None):
    """Count of the zeros of f outside [-x, x] x [-y, y], by its quarter path.

    f maps a list of points to an array of values.  Like E (module
    docstring) it must be analytic outside the rectangle, and at
    infinity, where it must not vanish, with f(-c) = f(c) and
    f(conj c) = conj f(c).  The count is (2 / pi) times f's argument
    change along i y -> x + i y -> x.  The samples are those of
    _edge_points on the top edge, with its window around root, and on
    the drop to x evenly spaced points no farther apart than x/12, the
    top edge's coarsest step (just its two ends when y is eps_cut); they
    are evaluated in one call, then the midpoints of each refinement
    pass in one more, until every argument increment is below pi/2.  A
    pass that would take the walk past _MAX_PTS samples raises
    ConvergenceError.  A sample where |f| < 1e-13, on or next to a zero,
    raises ContourThroughRootError at once: the path is the caller's and
    is not moved.  Returns the count and the final walk (points, values).
    """
    def F(zs):
        vals = list(f(zs))
        for z, v in zip(zs, vals):
            if abs(v) < 1e-13:
                raise ContourThroughRootError(f"walk sample c = {z} lies on a zero: "
                                              f"|E| = {abs(v):.1e} < 1e-13")
        return vals

    n = math.ceil(12.0 * y / x)
    pts = _edge_points(y, x, root) + [complex(x, y * (1.0 - i / n)) for i in range(n + 1)]
    vals = F(pts)
    while True:
        split = [i for i in range(1, len(pts))
                 if abs(cmath.phase(vals[i] / vals[i - 1])) >= math.pi / 2]
        if not split:
            break
        if len(pts) + len(split) > _MAX_PTS:
            raise ConvergenceError(
                f"walk {complex(0.0, y)} -> {complex(x, y)} -> {x} unresolved at {len(pts)} "
                f"samples: {len(split)} argument increments still reach pi/2"
            )
        mids = [0.5 * (pts[i - 1] + pts[i]) for i in split]
        for i, z, v in reversed(list(zip(split, mids, F(mids)))):
            pts.insert(i, z)
            vals.insert(i, v)

    change = sum(cmath.phase(vals[i] / vals[i - 1]) for i in range(1, len(vals)))
    return int(round(2.0 * change / math.pi)), (pts, vals)


def _newton(fs, z0):
    """Damped Newton from z0 on the list evaluator fs: one point per value,
    both points of the centred derivative in one call.  Its evaluations,
    at most 1 + _NEWTON_STEPS (2 + 30), are bounded here, not by the
    walk's _MAX_PTS."""
    z = complex(z0)
    fz = fs([z])[0]
    h = 1e-7 * max(1.0, abs(z))
    for _ in range(_NEWTON_STEPS):
        if abs(fz) < _ROOT_TOL:
            return z, abs(fz)
        fp, fm = fs([z + h, z - h])
        df = (fp - fm) / (2.0 * h)
        if df == 0:
            break
        step = -fz / df
        lam = 1.0
        for _ in range(30):
            zn = z + lam * step
            fn = fs([zn])[0]
            if abs(fn) < abs(fz):
                z, fz = zn, fn
                break
            lam *= 0.5
        else:
            break
    return z, abs(fz)


@dataclass(frozen=True)
class EvansRootSet:
    theta: float
    d: float
    roots: tuple  # ((c, multiplicity), ...) closed under c -> -c, conj
    region_predicted: RegionTag | None
    count: int  # total root count with multiplicity over all four quadrants


def _check_class(theta: float, d: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not (math.isfinite(d) and d >= 0.0):
        raise ValueError(f"d must be finite and nonnegative, got {d}")


def _where(theta, d, cfg) -> str:
    """The class, mu and eps_cut, as every search error names them."""
    return f"(theta={theta}, d={d}, mu={d * d}) with eps_cut={cfg.eps_cut}"


def _cut_end_root(theta: float, d: float) -> complex | None:
    """The first-quadrant root next to c = 1 of the small-mu model of E.

    Delta(0; c) = 2 for every c, so for small mu = d^2
    E(c) ~ a - d^2 S(c), a = 2 cos(2 pi theta) - 2, with S the slope
    discriminant_slope_at_zero.  Squared, a - d^2 S = 0 is the cubic
    a^2 (u - 1)^3 = 4 pi^4 d^4 u (1 + 2u)^2 in u = c^2.  Over a^2 and in
    v = u - 1 it reads (1 - 16 q) v^3 = q (64 v^2 + 84 v + 36) with
    q = (pi^2 d^2 / a)^2, whose roots, unlike those in u, do not cluster
    at one point for small d.  Of its roots, the one with c = sqrt(u) in
    the open first quadrant that solves the unsquared equation is
    returned; None when there is none, at d = 0 or a = 0, or where the
    model is not finite.
    """
    a = _two_cos(theta) - 2.0
    if a == 0.0 or d == 0.0:
        return None
    r = math.pi**2 * d * d / a
    q = r * r  # inf, where a power would raise OverflowError
    coeffs = [1.0 - 16.0 * q, -64.0 * q, -84.0 * q, -36.0 * q]
    if not all(map(math.isfinite, coeffs)):
        return None
    for v in np.roots(coeffs):
        c = cmath.sqrt(1.0 + complex(v))
        if (c.real > 0.0 and c.imag > CUT_IMAG_TOL
                and abs(a - d * d * discriminant_slope_at_zero(c)) <= 1e-6 * abs(a)):
            return c
    return None


def _count_class(theta, d, cfg, region):
    """The count step of find_roots and count_roots, walked once at cfg.

    The walk's top edge is sampled finely around the cut-end root that
    _cut_end_root predicts.  Unless region is None, the count must be
    the one it predicts, or OracleMismatchError names the class, mu and
    eps_cut, and, when a region II count falls short and the predicted
    root lies under eps_cut, that root.  A walk that samples a zero or
    stays unresolved raises its error with the class, mu and eps_cut in
    front.  Returns (count, the final walk, the list evaluator) for
    Newton to go on from.
    """
    _check_class(theta, d)
    root = _cut_end_root(theta, d)
    fs = lambda cs: _evans_batch(cs, theta, d, cfg.disc)
    try:
        total, walk = _quarter_walk(fs, _X, cfg.eps_cut, root)
    except (ContourThroughRootError, ConvergenceError) as exc:
        raise type(exc)(f"{_where(theta, d, cfg)}: {exc}") from exc
    if region is not None and total != ROOT_COUNT_BY_REGION[region]:
        want = ROOT_COUNT_BY_REGION[region]
        under = ""
        if (region == RegionTag.REGION_II and total < want and root is not None
                and root.imag < cfg.eps_cut):
            under = f"; the small-mu model puts a root at {root:.8f}, under eps_cut"
        raise OracleMismatchError(
            f"{total} eigenvalues counted at {_where(theta, d, cfg)}, "
            f"but region {region.value} predicts {want}{under}"
        )
    return total, walk, fs


def _moment_seeds(ts, vals, w):
    """Estimates of the w zeros of G that an open walk and its conjugate enclose.

    The walk runs from one real t to another and G has real Taylor
    coefficients, so the walk followed by its conjugate, reversed, is
    closed.  Over it the moments (1/2 pi i) oint t^k G'/G dt are the sums
    of the k-th powers of the zeros inside (Delves and Lyness, Math.
    Comp. 21, 1967), and with I_k the integral of t^k dlog G along the
    walk they are S_k = (1/pi) Im I_k.  With log G unwrapped along the
    walk, integration by parts gives I_k = [t^k log G] at its two ends
    less k times the integral of t^(k-1) log G dt, taken here by the
    trapezoid rule on the walk's own samples, so no new evaluation is
    needed.  Newton's identities turn S_1 .. S_w into the polynomial,
    with real coefficients, whose roots are the estimates.
    """
    t = np.array(ts)
    v = np.array(vals)
    logs = np.log(v[0]) + np.concatenate(([0.0], np.cumsum(np.log(v[1:] / v[:-1]))))
    dt = np.diff(t)
    e = [1.0]
    s = []
    for k in range(1, w + 1):
        g = t ** (k - 1) * logs
        ends = t[-1] ** k * logs[-1] - t[0] ** k * logs[0]
        s.append((ends - k * np.dot(0.5 * (g[1:] + g[:-1]), dt)).imag / math.pi)
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)) / k)
    return [complex(r) for r in np.roots([(-1) ** k * ek for k, ek in enumerate(e)])]


def _images(roots):
    """The roots with their images under c -> -c and c -> conj(c)."""
    return {w for z in roots for w in (z, -z, z.conjugate(), -z.conjugate())}


def _tally(roots):
    """Eigenvalues that the folded roots account for: each root on the
    imaginary axis stands for 2, each other one for 4."""
    return sum(2 if z.real == 0 else 4 for z in roots)


def find_roots(theta: float, d: float, cfg: RootSearchConfig | None = None,
               expected_region: RegionTag | None = None) -> EvansRootSet:
    """All roots of E above eps_cut, from the first quadrant by symmetry.

    The count must be that of expected_region (the exact tag of
    rational class data; by default the exact region of the float data),
    or OracleMismatchError is raised before any Newton step.  The zeros
    t of G(t) = E(c), t = s(c)^2, that the count's walk encloses are
    estimated by _moment_seeds; each estimate, mapped back to
    c = (s + 1/s) / 2 with s^2 = t in the closed first quadrant, seeds
    damped Newton, one seed after another, each on E divided by c - r
    for every image r, under c -> -c and c -> conj(c), of the roots
    reached before it (deflation), so that the seeds of a close pair
    cannot settle on one root.  Each converged root is folded into the
    closed first quadrant and snapped onto the imaginary axis within
    snap tolerance; seeds left once the roots reached account for the
    count are not used.  If they do not account for it,
    ConvergenceError.  The returned tuple is the full four-quadrant set.
    """
    cfg = cfg or DEFAULT_SEARCH
    if expected_region is None:
        _check_class(theta, d)  # before Fraction() meets a nan or an inf
    region = expected_region or classify_rational(Fraction(theta), Fraction(d))
    total, (pts, vals), fs = _count_class(theta, d, cfg, region)

    seeds = []
    for t in _moment_seeds([s_of_c(c).s ** 2 for c in pts], vals, total // 2):
        s = cmath.sqrt(t)
        c = 0.5 * (s + 1.0 / s)
        seeds.append(complex(abs(c.real), abs(c.imag)))

    found: list = []
    for seed in seeds:
        if _tally(found) >= total:
            break

        def deflated(cs, done=_images(found)):
            return fs(cs) / np.array([np.prod([c - r for r in done]) for c in cs])

        z, res = _newton(deflated, seed)
        if res > _ROOT_TOL:
            raise ConvergenceError(
                f"Newton stalled at a residual of {res:.2e} near {z:.4f} from the moment "
                f"seed {seed:.4f} at {_where(theta, d, cfg)}"
            )
        z = complex(abs(z.real) if abs(z.real) > _SNAP_TOL else 0.0, abs(z.imag))
        if all(abs(z - u) > _SNAP_TOL for u in found):
            found.append(z)

    if _tally(found) != total:
        raise ConvergenceError(
            f"Newton from the moment seeds {seeds} at {_where(theta, d, cfg)} reached "
            f"{found}, which account for {_tally(found)} eigenvalues, not the {total} counted"
        )

    roots = tuple((w, 1) for w in sorted(_images(found), key=lambda w: (-w.imag, w.real)))
    return EvansRootSet(
        theta=theta,
        d=d,
        roots=roots,
        region_predicted=region,
        count=total,
    )


def count_roots(
    theta: float,
    d: float,
    cfg: RootSearchConfig | None = None,
    expected_region: RegionTag | None = None,
) -> int:
    """Total root count with multiplicity over all four quadrants.

    The quarter walk only, no Newton: find_roots' count step, walked
    once at cfg.  When the exact region tag of rational class
    data is supplied, a disagreement raises OracleMismatchError; nothing
    is retried at other settings.
    """
    return _count_class(theta, d, cfg or DEFAULT_SEARCH, expected_region)[0]
