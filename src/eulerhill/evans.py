"""Per-class Evans function and complex root counting / refinement.

E(c; theta, d) = 2 cos(2 pi theta) - Delta(d^2; c) vanishes exactly at
the isolated eigenvalues c of the class with parameters (theta, d).
Roots in the closed first quadrant are counted by argument-principle
winding numbers over rectangles.  Their positions come from the contour
moments of the count's own walk around the search box (Delves and
Lyness 1967; Kravanja and Van Barel, LNM 1727, 2000), which seed damped
Newton iteration at no extra evaluation, each seed's deflated by the
roots reached before it; no rectangle is subdivided.

Contour geometry: the cut [-1, 1] is avoided by keeping Im c >= eps_cut;
boundary sampling is graded because roots of small-d classes approach
the real axis and a coarse boundary walk can alias away their phase
winding.  It is fine near the imaginary axis and at the cut ends; above
the rest of the cut it is coarse but for a window around the root next
to c = 1 that the small-mu model E ~ 2 cos(2 pi theta) - 2 - d^2 S(c)
predicts, S being the slope of Delta at mu = 0.  The samples of each
zone lie on a lattice fixed by the edge's line, so rectangles that
share an edge, or part of one, share those samples through the cache;
the right-of-axis box is counted as a difference of windings rather
than walked.  Since theta and d are real, E(-conj c) = conj E(c), so a
walk evaluates each sample left of the imaginary axis as the conjugate
of its mirror twin's value, and each mirror pair costs one evaluation.

No search beyond |c| = 1 is needed (Howard, J. Fluid Mech. 10, 1961,
509-512).  The class equation g'' + sin(eta) / (c + sin(eta)) g = d^2 g
is Rayleigh's equation for the shear U = -sin(eta) with wave number
alpha = d.  For Im c != 0 put g = (U - c) F; then
((U - c)^2 F')' = alpha^2 (U - c)^2 F.  Multiply by conj(F) and
integrate over one period.  The solution is theta-quasi-periodic,
g(eta + 2 pi) = exp(2 pi i theta) g(eta), and so is F, because U is
periodic; with theta real the boundary term conj(F) (U - c)^2 F' is
then periodic and cancels, leaving the integral of (U - c)^2 Q = 0
with Q = |F'|^2 + alpha^2 |F|^2 >= 0.  Its imaginary and real parts
give the integrals of U Q and U^2 Q as Re c and |c|^2 times that of Q,
and 0 >= integral of (U + 1)(U - 1) Q turns into |c|^2 <= 1.  Every
root off the real axis therefore lies in the closed unit disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .conformal import CUT_IMAG_TOL, Side, s_at_origin, s_of_c
from .errors import (
    BranchCutError,
    ContourThroughRootError,
    ConvergenceError,
    OracleMismatchError,
)
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


# Fixed search settings: the outer edge of the search box, past Howard's
# bound |c| <= 1, the half-width of the axis strip, the axis snap
# tolerance, the Newton steps per root and the |E| that ends them, the
# jittered retries of a contour that hits a zero and their rng seed, the
# distinct points the walks of one search may evaluate, and the samples
# at which a walk that is still unresolved raises.
_C_MAX = 2.0
_AXIS_PAD = 0.0342
_SNAP_TOL = 2e-8
_NEWTON_STEPS = 80
_ROOT_TOL = 1e-10
_RETRIES = 6
_SEED = 20250810
_MAX_EVALS = 60000
_MAX_PTS = 20000

# Bottom-edge sampling (_edge_points):
# - _COARSE_STEP, the step over |x| <= 1.1, where no root nears the edge
#   but next to the axis and the cut ends; 0.064 and 0.128 kept the
#   counts of (7,8), (10,11), (13,14), (20,21) and 420 draws, so 0.032
#   leaves margin for E's own variation;
# - _CUT_ZONE, the half-width of the fine zone at each cut end; without
#   it the moment seeds of the classes of (4,5), (5,4), (2,5), (3,5),
#   (7,8) and (10,11) lie a median 6.2e-3 from their roots, not 4.5e-3;
# - _AXIS_ZONE, the half-width of the fine zone about the axis, where
#   root pairs are born at c = 0; without it the roots +-0.0064+0.0064i
#   of (0.49977385339860314, 0.8586155048669204), 0.0054 above the edge,
#   are not counted;
# - _WINDOW_STEP and _WINDOW_WIDTH, the step and half-width of the window
#   around the cut-end root that _cut_end_root predicts, in units of the
#   root's height above the edge: the root's phase swing of pi is taken
#   in increments of at most 2 atan(1/8), and atan(1/2) of it lies
#   beyond either end.  Without the window 48, not 44, of 120 draws with
#   d in (1e-4, 0.32) miscount.
_COARSE_STEP = 0.032
_CUT_ZONE = 0.02
_AXIS_ZONE = 0.1
_WINDOW_STEP = 0.25
_WINDOW_WIDTH = 2.0


@dataclass(frozen=True)
class RootSearchConfig:
    """The settable parts of the winding-number search.

    The search box is (-_AXIS_PAD, _C_MAX) x (eps_cut, _C_MAX), fixed
    but for eps_cut.  Every root off the real axis has |c| <= 1 (Howard's
    semicircle theorem, in the module docstring), so no root lies beyond
    the box; `eulerhill verify --level full` walks the annulus out to
    4 _C_MAX to check that.  Roots are seeded from the contour moments
    of the search box's walk, not isolated by subdividing it, so there
    is no depth limit.  Fixed, not settable: _C_MAX, _AXIS_PAD,
    _SNAP_TOL, _NEWTON_STEPS, _ROOT_TOL, _RETRIES, _SEED, _MAX_EVALS and
    _MAX_PTS.
    """

    eps_cut: float = 1e-3
    disc: DiscriminantConfig = field(default_factory=DiscriminantConfig)

    def __post_init__(self):
        if not 0.0 < self.eps_cut < _C_MAX:
            raise ValueError(f"eps_cut must lie in (0, {_C_MAX}), got {self.eps_cut}")


DEFAULT_SEARCH = RootSearchConfig()


def evans(c, theta: float, d: float, cfg: DiscriminantConfig | None = None,
          side: Side | None = None) -> complex:
    """Evans function of the class with parameters (theta, d)."""
    c = complex(c)
    if c == 0:
        if side is None:
            raise BranchCutError("c = 0 needs an explicit branch side")
        sp = s_at_origin(side)
    else:
        sp = s_of_c(c)
    return 2.0 * math.cos(TWO_PI * theta) - discriminant(sp, d * d, cfg)


def _evans_batch(cs, theta: float, d: float, cfg: DiscriminantConfig | None = None) -> np.ndarray:
    """evans() at many points off the cut, through one discriminant_batch call."""
    sps = [s_of_c(c) for c in cs]
    return 2.0 * math.cos(TWO_PI * theta) - discriminant_batch(sps, d * d, cfg)


class _ContourHit(Exception):
    """Internal: contour passes through (or indistinguishably near) a zero."""


def _edge_points(a: complex, b: complex, root: complex | None = None):
    """Boundary samples on the axis-parallel segment a -> b (excluding b).

    Spacing is bounded by L/12 everywhere, and more finely in zones where
    zeros can hide close to the contour, with h = max(2|level|, 0.004):
    on vertical runs near the imaginary axis (|level| < 0.15), by h over
    |y| <= 1.3; on horizontal runs just above the cut (|level| <= 0.2),
    by max(h, _COARSE_STEP) over |x| <= 1.1, by h over |x| <= _AXIS_ZONE
    and in the cut-end shadows |x -+ 1| <= _CUT_ZONE, and by _WINDOW_STEP
    times the height of root above the run in a window of _WINDOW_WIDTH
    such heights either side of Re root (root is the class's predicted
    cut-end root, or None).  Each zone's samples are the odd multiples
    of half its step that no finer zone covers, taken one step beyond
    the zone, so they do not depend on the segment: the rectangles
    sharing an edge, or any part of one, share them, and with no window
    the samples next to the cut ends sit at x = +-(1 -+ h/2), not on
    x = +-1.  Between them the samples are evenly spaced.  The set is
    built in ascending order and reversed for a descending walk, so it
    does not depend on the direction.
    """
    horizontal = a.imag == b.imag
    if horizontal:
        level, ta, tb = a.imag, a.real, b.real
    else:
        level, ta, tb = a.real, a.imag, b.imag
    h = max(2.0 * abs(level), 0.004)
    zones = []  # (from, to, step)
    if not horizontal and abs(level) < 0.15:
        zones.append((-1.3, 1.3, h))
    elif horizontal and abs(level) <= 0.2:
        zones += [(-1.1, 1.1, max(h, _COARSE_STEP)), (-_AXIS_ZONE, _AXIS_ZONE, h),
                  (-1.0 - _CUT_ZONE, -1.0 + _CUT_ZONE, h), (1.0 - _CUT_ZONE, 1.0 + _CUT_ZONE, h)]
        if root is not None and root.imag != level:
            height = abs(root.imag - level)
            zones.append((root.real - _WINDOW_WIDTH * height, root.real + _WINDOW_WIDTH * height,
                          _WINDOW_STEP * height))

    def step(t):
        return min([s for z0, z1, s in zones if z0 <= t <= z1], default=math.inf)

    lo, hi = min(ta, tb), max(ta, tb)
    coarse = (hi - lo) / 12.0
    knots = {lo, hi}
    for z0, z1, s in zones:
        k0 = math.ceil(max(lo, z0 - s) / s - 0.5)
        k1 = math.floor(min(hi, z1 + s) / s - 0.5)
        knots.update(t for t in ((k + 0.5) * s for k in range(k0, k1 + 1))
                     if lo < t < hi and step(t) >= s)
    knots = sorted(knots)

    ts = []
    for p, q in zip(knots, knots[1:]):
        n = max(1, math.ceil((q - p) / min(coarse, step(p), step(q)) - 1e-9))
        ts += [p + (q - p) * (i / n) for i in range(n)]
    ts.append(hi)
    if ta > tb:
        ts.reverse()
    ts.pop()
    if horizontal:
        return [complex(t, level) for t in ts]
    return [complex(level, t) for t in ts]


def _winding(f, rect, cache, root=None):
    """Winding number of f over the rectangle boundary, counterclockwise.

    f maps a list of points to an array of values and obeys
    f(-conj z) = conj f(z), so a point left of the imaginary axis is
    evaluated as its mirror twin -conj z, cached under the twin.  The
    uncached twins of the boundary samples are evaluated in one call,
    then those of each refinement pass's midpoints in one more.  The
    cache is the budget: a call that would take it past _MAX_EVALS
    points raises ConvergenceError.  Argument increments are refined
    until each is below pi/2, and a walk that still has a larger one at
    _MAX_PTS samples raises ConvergenceError.  A sample falling on a
    zero raises _ContourHit so the caller can jitter the rectangle.
    The samples are those of _edge_points, with its window around root.
    Returns the winding and the final walk (points, values), closed by
    repeating its first point.
    """
    x0, x1, y0, y1 = rect

    def F(zs):
        twins = [-z.conjugate() if z.real < 0 else z for z in zs]
        new = [t for t in dict.fromkeys(twins) if t not in cache]
        if len(cache) + len(new) > _MAX_EVALS:
            raise ConvergenceError(f"evaluation budget {_MAX_EVALS} exhausted in {rect}")
        if new:
            cache.update(zip(new, f(new)))
        vals = [cache[t].conjugate() if z.real < 0 else cache[t] for z, t in zip(zs, twins)]
        for z, v in zip(zs, vals):
            if abs(v) < 1e-13:
                raise _ContourHit(z)
        return vals

    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    pts = []
    for i in range(4):
        pts.extend(_edge_points(corners[i], corners[(i + 1) % 4], root))
    pts.append(pts[0])
    vals = F(pts)

    while True:
        split = [i for i in range(1, len(pts))
                 if abs(cmath.phase(vals[i] / vals[i - 1])) >= math.pi / 2]
        if not split:
            break
        if len(pts) >= _MAX_PTS:
            raise ConvergenceError(
                f"walk of rectangle {rect} unresolved at {len(pts)} samples: "
                f"{len(split)} argument increments still reach pi/2"
            )
        mids = [0.5 * (pts[i - 1] + pts[i]) for i in split]
        for i, z, v in reversed(list(zip(split, mids, F(mids)))):
            pts.insert(i, z)
            vals.insert(i, v)

    # a closed walk's principal increments sum to 2 pi times an integer
    total = 0.0
    for i in range(1, len(vals)):
        total += cmath.phase(vals[i] / vals[i - 1])
    return int(round(total / TWO_PI)), (pts, vals)


def _winding_retry(f, rect, cache, rng, root=None):
    """Winding with outward jitter of the rectangle on contour hits.

    Returns (winding, walk, rectangle actually walked).
    """
    x0, x1, y0, y1 = rect
    last = None
    for attempt in range(_RETRIES + 1):
        try:
            return (*_winding(f, (x0, x1, y0, y1), cache, root), (x0, x1, y0, y1))
        except _ContourHit as hit:
            last = hit
            dx = (x1 - x0) * 1e-3 * (1.0 + rng.random())
            dy = (y1 - y0) * 1e-3 * (1.0 + rng.random())
            x0 -= dx
            x1 += dx
            y1 += dy
            y0 = max(y0 - dy, 0.5 * (rect[2]))  # never descend to the cut itself
    raise ContourThroughRootError(f"winding failed after jitter retries: {last}")


def _newton(fs, z0):
    """Damped Newton from z0 on the list evaluator fs: one point per value,
    both points of the centred derivative in one call.  Its evaluations,
    at most 1 + _NEWTON_STEPS (2 + 30), are bounded here, not by the
    walks' _MAX_EVALS."""
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
    box: tuple
    count: int  # total root count with multiplicity over all four quadrants


def _count_windings(f, cfg, cache, rng, root=None):
    """Windings of box A = (-pad, _C_MAX) x (eps_cut, _C_MAX) and of box B.

    Box A holds every root of the closed first quadrant above eps_cut:
    by Howard's semicircle theorem (module docstring) every root has
    |c| <= 1 < _C_MAX, so nothing beyond the box is walked.  Box B is
    the part of A right of x = pad, with pad = _AXIS_PAD.  It is not
    walked: S = A left of that line shares A's left edge and most of its
    bottom edge, and w_B = w_A - w_S.  S's right edge x = pad mirrors
    A's left edge, and A's bottom-edge samples on (-pad, 0) mirror those
    on (0, pad), so _winding evaluates each of those pairs once.  A
    contour hit on S moves only the dividing line, so S and B still
    partition A.  Both walks sample their bottom edges around root, the
    predicted cut-end root.  Returns (w_A, w_B, box A after any jitter,
    box A's final walk).
    """
    pad = _AXIS_PAD
    wa, walk, box_a = _winding_retry(f, (-pad, _C_MAX, cfg.eps_cut, _C_MAX), cache, rng, root)
    x0, _, y0, y1 = box_a
    for attempt in range(_RETRIES + 1):
        xm = pad if attempt == 0 else pad * (1.0 + (rng.random() - 0.5) * 0.2)
        try:
            ws, _ = _winding(f, (x0, xm, y0, y1), cache, root)
            break
        except _ContourHit as hit:
            last = hit
    else:
        raise ContourThroughRootError(f"strip winding failed after jitter retries: {last}")
    return wa, wa - ws, box_a, walk


def _check_class(theta: float, d: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not (math.isfinite(d) and d >= 0.0):
        raise ValueError(f"d must be finite and nonnegative, got {d}")


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
    a = 2.0 * math.cos(TWO_PI * theta) - 2.0
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

    Box A's bottom edge is sampled finely around the cut-end root that
    _cut_end_root predicts.  Unless region is None, the count
    2 (w_A + w_B) must be the one it predicts, or OracleMismatchError
    names the class, mu, eps_cut and box A, and, when a region II count
    falls short and the predicted root lies under eps_cut, that root.
    Box A and the strip share one twin cache, and with it the budget of
    _MAX_EVALS distinct points.  Returns (count, w_A, box A after any
    jitter, box A's final walk, the list evaluator) for Newton to go on
    from.
    """
    _check_class(theta, d)
    root = _cut_end_root(theta, d)
    fs = lambda cs: _evans_batch(cs, theta, d, cfg.disc)
    wa, wb, box_a, walk = _count_windings(fs, cfg, {}, np.random.default_rng(_SEED), root)
    total = 2 * (wa + wb)
    if region is not None and total != ROOT_COUNT_BY_REGION[region]:
        want = ROOT_COUNT_BY_REGION[region]
        under = ""
        if (region == RegionTag.REGION_II and total < want and root is not None
                and root.imag < cfg.eps_cut):
            under = f"; the small-mu model puts a root at {root:.8f}, under eps_cut"
        raise OracleMismatchError(
            f"{total} eigenvalues counted at (theta={theta}, d={d}, mu={d * d}) in box A "
            f"{box_a} with eps_cut={cfg.eps_cut}, but region {region.value} predicts "
            f"{want}{under}"
        )
    return total, wa, box_a, walk, fs


def _moment_seeds(pts, vals, w):
    """Estimates of the w zeros inside a closed walk, from its contour moments.

    The moments s_k = (1/2 pi i) oint z^k E'/E dz are sums of the k-th
    powers of the zeros (Delves and Lyness, Math. Comp. 21, 1967).  With
    log E unwrapped along the walk, integration by parts gives
    s_k = z0^k w - (k / 2 pi i) oint z^(k-1) log E dz, taken here by the
    trapezoid rule on the walk's own samples, so no new evaluation is
    needed.  Newton's identities turn s_1 .. s_w into the polynomial
    whose roots are the estimates: s_1 itself for one zero, and for two
    the roots of t^2 - s_1 t + (s_1^2 - s_2) / 2.
    """
    z = np.array(pts)
    v = np.array(vals)
    logs = np.log(v[0]) + np.concatenate(([0.0], np.cumsum(np.log(v[1:] / v[:-1]))))
    dz = np.diff(z)
    e = [1.0]
    s = []
    for k in range(1, w + 1):
        g = z ** (k - 1) * logs
        s.append(z[0] ** k * w - k * np.dot(0.5 * (g[1:] + g[:-1]), dz) / (2j * math.pi))
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)) / k)
    return [complex(t) for t in np.roots([(-1) ** k * ek for k, ek in enumerate(e)])]


def find_roots(theta: float, d: float, cfg: RootSearchConfig | None = None,
               expected_region: RegionTag | None = None) -> EvansRootSet:
    """All roots of E in the closed first quadrant, with symmetry closure.

    The windings must give the count of expected_region (the exact tag
    of rational class data; by default the exact region of the float
    data), or OracleMismatchError is raised before any Newton step.  The
    w_A roots in box A are then polished by Newton from the estimates of
    _moment_seeds on box A's final walk, one seed after another, each on
    E divided by c - r for every image r, under c -> -c and c -> conj(c),
    of the roots reached before it (deflation), so that the seeds of a
    close pair cannot settle on one root; seeds left once the roots
    reached hold w_A zeros are not used.  Each converged root is folded
    into the closed first quadrant, which the symmetries c -> -c and
    c -> conj(c) allow, and snapped onto the imaginary axis within snap
    tolerance.  The distinct folded roots must lie in box A and hold
    w_A zeros of it, a root with 0 < Re z < pad counting twice as its
    mirror -conj(z) is in box A too; otherwise ConvergenceError.
    The returned tuple is the full four-quadrant set.
    """
    cfg = cfg or DEFAULT_SEARCH
    if expected_region is None:
        _check_class(theta, d)  # before Fraction() meets a nan or an inf
    region = expected_region or classify_rational(Fraction(theta), Fraction(d))
    total, wa, box_a, walk, fs = _count_class(theta, d, cfg, region)

    seeds = _moment_seeds(*walk, wa)
    x0, x1, y0, y1 = box_a

    def held(zs):
        return sum(2 if 0.0 < z.real < -x0 else 1 for z in zs)

    found: list = []
    for seed in seeds:
        if held(found) >= wa:
            break  # a root inside the pad is two of box A's zeros
        images = tuple({w for u in found for w in (u, -u, u.conjugate(), -u.conjugate())})

        def deflated(cs, done=images):
            return fs(cs) / np.array([np.prod([c - r for r in done]) for c in cs])

        z, res = _newton(deflated, seed)
        if res > _ROOT_TOL:
            raise ConvergenceError(
                f"Newton stalled at a residual of {res:.2e} near {z:.4f} from the moment "
                f"seed {seed:.4f} of box A {box_a} at (theta={theta}, d={d})"
            )
        z = complex(abs(z.real) if abs(z.real) > _SNAP_TOL else 0.0, abs(z.imag))
        if all(abs(z - u) > _SNAP_TOL for u in found):
            found.append(z)

    if held(found) != wa or not all(z.real <= x1 and y0 <= z.imag <= y1 for z in found):
        raise ConvergenceError(
            f"Newton from the moment seeds {seeds} at (theta={theta}, d={d}) reached "
            f"{found}, not the {wa} roots of box A {box_a}"
        )
    check = sum(2 if z.real == 0 else 4 for z in found)
    if check != total:
        raise ConvergenceError(
            f"isolated roots account for {check} eigenvalues, windings say {total}"
        )

    closure: dict = {}
    for z in found:
        for w_ in {z, -z, z.conjugate(), -z.conjugate()}:
            closure[(round(w_.real, 12), round(w_.imag, 12))] = (w_, 1)
    roots = tuple(
        sorted(closure.values(), key=lambda zm: (-zm[0].imag, zm[0].real))
    )
    return EvansRootSet(
        theta=theta,
        d=d,
        roots=roots,
        region_predicted=region,
        box=box_a,
        count=total,
    )


def count_roots(
    theta: float,
    d: float,
    cfg: RootSearchConfig | None = None,
    expected_region: RegionTag | None = None,
) -> int:
    """Total root count with multiplicity over all four quadrants.

    Winding numbers only, no refinement: find_roots' count step, walked
    once at cfg.  When the exact region tag of rational class data is
    supplied, a disagreement raises OracleMismatchError; nothing is
    retried at other settings.
    """
    return _count_class(theta, d, cfg or DEFAULT_SEARCH, expected_region)[0]
