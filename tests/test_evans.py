"""Evans function values, analytic properties, and root machinery."""

import cmath
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from eulerhill import (
    BranchCutError,
    ContourThroughRootError,
    ConvergenceError,
    DiscriminantConfig,
    OracleMismatchError,
    RegionTag,
    RootSearchConfig,
    Wavevector,
    class_point,
    classify_rational,
    companion_basis,
    count_roots,
    cross_validate,
    find_roots,
    s_of_c,
    spectrum_report,
)
from eulerhill import checks
import eulerhill.evans as evans_mod
from eulerhill.evans import _edge_points, evans
from eulerhill.hill import discriminant_slope_at_zero

N16 = DiscriminantConfig(half_width=16)


def closed_form_origin(theta, d):
    return -4.0 * math.sin(math.pi * theta) ** 2 + 4.0 * math.sin(
        math.pi * math.sqrt(1.0 - d * d)
    ) ** 2


def test_value_at_origin_matches_closed_form():
    for theta, d in ((0.1, 0.6), (0.37, 0.21), (0.5, 0.9)):
        val = evans(0.0, theta, d, N16)
        assert abs(val - closed_form_origin(theta, d)) < 1e-12


def test_cut_raises():
    with pytest.raises(BranchCutError):
        evans(0.5, 0.1, 0.6)


def test_asymptotic_constant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        theta = rng.uniform(0.0, 0.5)
        d = rng.uniform(0.05, 0.95)
        c = 1e3 * cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
        lim = 2.0 * math.cos(2 * math.pi * theta) - 2.0 * math.cosh(2 * math.pi * d)
        assert abs(evans(c, theta, d, N16) - lim) <= 1e-3


def test_zero_contour_solved_for_theta():
    """At fixed c the zero set is theta(d) with sin^2(pi theta) = Delta-part."""
    from eulerhill import discriminant

    c, d = 0.2j, 0.5
    sp = s_of_c(c)
    delta = discriminant(sp, d * d, N16)
    rhs = (2.0 - delta) / 4.0  # sin^2(pi theta) at a root
    assert abs(rhs.imag) < 1e-10
    assert 0.0 <= rhs.real <= 1.0
    theta_star = math.asin(math.sqrt(rhs.real)) / math.pi
    assert abs(evans(c, theta_star, d, N16)) < 1e-9


def test_conjugation_symmetry():
    rng = np.random.default_rng(5)
    count = 0
    while count < 200:
        c = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(c.imag) < 0.05:
            continue
        count += 1
        a = evans(c, 0.23, 0.57, N16)
        b = evans(c.conjugate(), 0.23, 0.57, N16)
        assert abs(a.conjugate() - b) < 1e-10


def test_evenness_in_theta_and_d():
    c = 0.4 + 0.3j
    assert evans(c, 0.2, 0.6, N16) == evans(c, -0.2, 0.6, N16)
    assert evans(c, 0.2, 0.6, N16) == evans(c, 0.2, -0.6, N16)


def test_reality_on_axes():
    for beta in (0.15, 0.45, 0.8):
        assert abs(evans(1j * beta, 0.3, 0.5, N16).imag) < 1e-9
    for x in (1.2, 2.5, -3.0):
        assert abs(evans(x, 0.3, 0.5, N16).imag) < 1e-9


def test_no_real_roots_off_origin():
    for theta, d in ((0.1, 0.6), (0.22, 0.6), (0.4, 0.6)):
        for x in np.linspace(1.001, 10.0, 25):
            assert abs(evans(x, theta, d, N16)) > 0.01


def test_find_roots_two_imaginary_pairs():
    rs = find_roots(0.22, 0.6)
    assert rs.count == 4
    assert len(rs.roots) == 4
    for c, m in rs.roots:
        assert m == 1
        assert c.real == 0.0
        assert abs(evans(c, 0.22, 0.6, N16)) < 1e-8
    # closed under negation
    vals = sorted(c.imag for c, _ in rs.roots)
    assert abs(vals[0] + vals[3]) < 1e-12 and abs(vals[1] + vals[2]) < 1e-12


def test_find_roots_quadruplet():
    rs = find_roots(0.4, 0.6)
    assert rs.count == 4
    assert len(rs.roots) == 4
    for c, m in rs.roots:
        assert abs(c.real) > 0.01 and abs(c.imag) > 0.01
        assert abs(evans(c, 0.4, 0.6, N16)) < 1e-8


def test_count_roots_region_examples():
    assert count_roots(0.45, 0.95) == 0
    assert count_roots(0.1, 0.6) == 2
    assert count_roots(0.4, 0.6) == 4


def test_count_matches_exact_region_for_rational_points():
    points = [
        (Fraction(1, 10), Fraction(3, 5)),   # region I
        (Fraction(2, 5), Fraction(3, 5)),    # region II
        (Fraction(9, 20), Fraction(9, 10)),  # region 0
        (Fraction(-1, 5), Fraction(3, 5)),   # boundary I/II
    ]
    from eulerhill import ROOT_COUNT_BY_REGION

    for th, dd in points:
        tag = classify_rational(th, dd)
        n = count_roots(float(th), float(dd), expected_region=tag)
        assert n == ROOT_COUNT_BY_REGION[tag]


def _normal_derivative(d, h=1e-5):
    """Centred difference of E(0; theta, d) along the outward normal of the
    circle theta^2 + d^2 = 1 at (sqrt(1 - d^2), d)."""
    theta0 = math.sqrt(1.0 - d * d)
    return (evans(0.0, theta0 * (1.0 + h), d * (1.0 + h))
            - evans(0.0, theta0 * (1.0 - h), d * (1.0 - h))) / (2.0 * h)


def test_derivative_checks_magnitudes():
    """At (theta0, d) on the circle, with r = sqrt(1 - d^2) = theta0 and
    R = 2 pi sin(2 pi r) / r: dE/dc = +-iR from either side of the cut,
    dE/dd = -2dR and the outward normal derivative is -2R."""
    d, h = 0.5, 1e-5
    theta0 = math.sqrt(1.0 - d * d)
    R = 2.0 * math.pi * math.sin(2.0 * math.pi * theta0) / theta0
    e0 = evans(0.0, theta0, d)
    for sgn in (1.0, -1.0):
        fd_dc = (evans(sgn * 1j * h, theta0, d) - e0) / (sgn * 1j * h)
        assert abs(fd_dc - sgn * 1j * R) < 1e-4 * max(1.0, abs(R))
    fd_dd = (evans(0.0, theta0, d + h) - evans(0.0, theta0, d - h)) / (2.0 * h)
    assert abs(fd_dd + 2.0 * d * R) < 1e-4
    assert abs(_normal_derivative(d) + 2.0 * R) < 1e-4
    # a pair of imaginary roots is born at inward distance t with speed 2,
    # which follows from the formulas above (E grows like 2Rt inward while
    # dE/dc = +-iR, so beta = 2t)
    t = 1e-3
    beta = brentq(lambda b: evans(1j * b, theta0 * (1.0 - t), d * (1.0 - t)).real,
                  0.2 * t, 5.0 * t, xtol=1e-15)
    assert abs(beta / t - 2.0) < 0.05


def test_normal_derivative_sign_flip():
    # -2R changes sign at d = sqrt(3)/2: positive below, negative above
    below, above = (_normal_derivative(d).real for d in (0.6, 0.95))
    assert below > 0.0 > above


def test_square_exterior_is_root_free_and_planted_zeros_show(monkeypatch):
    # the exterior of the square of half-side 2, counted by `verify
    # --level full`, holds no root of the (1,2) classes; zeros planted
    # there at +-2.5 +- 1j show.  The factor is even with real
    # coefficients, so E keeps both symmetries the quarter walk rests on,
    # and it tends to 1 at infinity: (c^2 - a^2)(c^2 - conj(a)^2) alone
    # has a pole of order 4 there, which cancels its 4 zeros in the count
    assert checks.beyond_the_square.fn(RootSearchConfig(), ps=((1, 2),), half_side=2.0)[0]
    real = evans_mod._evans_batch

    def planted(cs, theta, d, cfg=None):
        return np.array([v * (1 - (2.5 + 1j) ** 2 / (c * c)) * (1 - (2.5 - 1j) ** 2 / (c * c))
                         for c, v in zip(cs, real(cs, theta, d, cfg))])

    monkeypatch.setattr(checks, "_evans_batch", planted)
    ok, detail = checks.beyond_the_square.fn(RootSearchConfig(), ps=((1, 2),), half_side=2.0)
    assert not ok and detail == "p=(1, 2) k=1: 4 roots outside the square"


def test_count_mismatch_raises_oracle_error():
    with pytest.raises(OracleMismatchError):
        # (0.1, 0.6) is region I (2 roots); claiming region II must fail
        count_roots(0.1, 0.6, expected_region=RegionTag.REGION_II)


def test_find_roots_region_is_exact_at_d_zero():
    rs = find_roots(0.3, 0.0)
    assert rs.count == 0
    assert rs.region_predicted == RegionTag.CORNER


def test_walk_sample_cap_counts_each_distinct_point(monkeypatch):
    # count_roots(0.2, 0.6) evaluates 54 distinct points, 52 in the first
    # batch and 1 in each of two refinement passes, each once
    monkeypatch.setattr(evans_mod, "_MAX_PTS", 53)
    with pytest.raises(ConvergenceError):
        count_roots(0.2, 0.6)
    monkeypatch.setattr(evans_mod, "_MAX_PTS", 54)
    assert count_roots(0.2, 0.6) == 2


def test_zero_in_first_batch_raises_naming_the_class(monkeypatch):
    # the walk is the caller's: a sample on a zero raises at once, with no
    # second walk on a moved path
    real = evans_mod._evans_batch
    batches = []

    def zero_at_one_point(cs, theta, d, cfg=None):
        vals = real(cs, theta, d, cfg)
        vals[5] = 0.0
        batches.append(list(cs))
        return vals

    monkeypatch.setattr(evans_mod, "_evans_batch", zero_at_one_point)
    with pytest.raises(ContourThroughRootError) as exc:
        count_roots(0.4, 0.6)
    assert len(batches) == 1
    hit = batches[0][5]
    assert str(exc.value) == (f"(theta=0.4, d=0.6, mu={0.6 * 0.6}) with eps_cut=0.001: "
                              f"walk sample c = {hit} lies on a zero: |E| = 0.0e+00 < 1e-13")


def test_find_roots_evaluation_count(monkeypatch):
    # every evaluation, the walks' and Newton's, goes through _evans_batch
    real = evans_mod._evans_batch
    sizes = []

    def spy(cs, theta, d, cfg=None):
        sizes.append(len(cs))
        return real(cs, theta, d, cfg)

    monkeypatch.setattr(evans_mod, "_evans_batch", spy)
    rs = find_roots(0.4, 0.6)
    assert rs.count == 4
    assert sizes[0] == 53 and sum(sizes) == 68


def test_unresolved_walk_raises(monkeypatch):
    # with no refinement pass allowed, the walk keeps increments of pi/2
    # or more, whose rounded sum need not be the count
    monkeypatch.setattr(evans_mod, "_MAX_PTS", 1)
    with pytest.raises(ConvergenceError,
                       match=r"^\(theta=0\.1, d=0\.6, mu=0\.36\) with eps_cut=0\.001: "
                             r"walk 0\.001j -> \(1\.1\+0\.001j\) -> 1\.1 unresolved at 52 "
                             r"samples: 1 argument increments still reach pi/2$"):
        count_roots(0.1, 0.6)


def test_every_root_lies_in_the_unit_disk():
    # Howard's semicircle theorem, which `verify --level full` checks
    classes = [(cp.theta, cp.d, cp.region) for pp in ((1, 2), (2, 3), (1, 3))
               for cp in _class_points(Wavevector(*pp))]
    # off-lattice draws 5 eps_cut or more from the three unit circles (and
    # off d -> 0, where the roots also approach the cut), so that no root
    # lies below eps_cut
    rng = np.random.default_rng(5)
    margin = 5 * RootSearchConfig().eps_cut
    draws = []
    while len(draws) < 20:
        theta, d = rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.2)
        if min(abs(math.hypot(theta + l, d) - 1.0) for l in (-1, 0, 1)) >= margin:
            draws.append((theta, d, None))
    roots = [c for theta, d, region in classes + draws
             for c, _ in find_roots(theta, d, expected_region=region).roots]
    assert len(roots) > 100
    assert max(abs(c) for c in roots) <= 1.0


@pytest.mark.parametrize("zeros", [(-0.5,), (0.3 - 0.4j, 0.3 + 0.4j),
                                   (0.3 - 0.4j, 0.3 + 0.4j, -0.5), (-0.6, -0.55)])
def test_moment_seeds_recover_the_zeros_of_a_polynomial(zeros):
    # a real-coefficient polynomial in t on the open lower half of the
    # circle |t - 0.1| = 0.9, from t = -0.8 to t = 1, where it is real;
    # with its conjugate the walk encloses the zeros.  The trapezoid rule
    # on the walk's chords is second order in the spacing.
    ts = [0.1 + 0.9 * np.exp(-1j * math.pi * u) for u in np.linspace(1.0, 0.0, 401)]
    ts[0], ts[-1] = -0.8, 1.0
    vals = [np.prod([t - a for a in zeros]) for t in ts]
    assert vals[0].imag == 0 and vals[-1].imag == 0
    seeds = evans_mod._moment_seeds(ts, vals, len(zeros))
    assert len(seeds) == len(zeros)
    for a in zeros:
        assert min(abs(a - s) for s in seeds) < 1e-3


def test_find_roots_raises_on_a_count_its_region_contradicts(monkeypatch):
    # a region II class (4 roots) whose count at the default eps_cut is 2
    def no_newton(*args):
        raise AssertionError("Newton ran after a wrong count")

    monkeypatch.setattr(evans_mod, "_newton", no_newton)
    with pytest.raises(OracleMismatchError, match=r"theta=0\.1329, d=0\.4975.*eps_cut=0\.001"):
        find_roots(0.1329, 0.4975)


def test_both_searches_raise_one_message_where_the_count_misses_a_pair(monkeypatch):
    # region II predicts 4 roots; the pair at +-0.00063245i lies below
    # eps_cut, and the count step walks once without retrying lower
    messages = []
    for search in (count_roots, find_roots):
        with pytest.raises(OracleMismatchError) as exc:
            search(0.1329, 0.4975, expected_region=RegionTag.REGION_II)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert re.match(r"2 eigenvalues counted at \(theta=0\.1329, d=0\.4975, mu=0\.2475\d*\) "
                    r"with eps_cut=0\.001, but region II predicts 4$", messages[0])
    # a spectrum names the class in front of the same message
    monkeypatch.setattr(evans_mod, "_quarter_walk", lambda *args: (0, None))
    with pytest.raises(OracleMismatchError, match=r"^class k=1: 0 eigenvalues .* mu=.*eps_cut="):
        spectrum_report(Wavevector(1, 2), count_only=True)


#: a region II draw whose cut-end root Newton on the Hill route, at half-
#: widths 128 and 256, puts at 0.99952244+0.00082550i, under eps_cut
_UNDER_EPS_CUT = (0.20749556733717733, 0.0014396203041943778)


def test_cut_end_model_predicts_the_root_next_to_c_1():
    p = Wavevector(4, 5)
    cp = class_point(p, companion_basis(p), 1)
    c = evans_mod._cut_end_root(cp.theta, cp.d)
    assert c.real > 0.0 and c.imag > 0.0
    # it solves the unsquared model, with the slope that `hill` defines
    a = 2.0 * math.cos(2.0 * math.pi * cp.theta) - 2.0
    assert abs(a - cp.d**2 * discriminant_slope_at_zero(c)) < 1e-12
    rs = find_roots(cp.theta, cp.d, expected_region=cp.region)
    assert min(abs(c - z) for z, _ in rs.roots) < 1e-4
    assert abs(evans_mod._cut_end_root(*_UNDER_EPS_CUT) - (0.99952244 + 0.00082550j)) < 1e-6


@pytest.mark.parametrize("theta, d", [(0.3, 0.0), (0.0, 0.3), (1.0, 0.3), (0.3, 1e200)])
def test_cut_end_model_has_no_root_at_d_zero_theta_zero_or_overflow(theta, d):
    assert evans_mod._cut_end_root(theta, d) is None


def test_count_roots_where_the_cut_end_root_is_just_above_eps_cut():
    # the predicted root is 0.99926086+0.00127625i, 2.8e-4 above box A's
    # bottom edge; a uniform step of 0.004 there counts 0
    assert count_roots(-0.28118233937512227, 0.0025438940326028077,
                       expected_region=RegionTag.REGION_II) == 4


def test_theta_is_reduced_exactly_before_its_cosine():
    # 1e13 + 0.3 is the float 10000000000000.30078125, of the class
    # theta = 0.30078125; 2**52 is of the class theta = 0, region I
    assert find_roots(1e13 + 0.3, 0.5).roots == find_roots(0.30078125, 0.5).roots
    assert count_roots(2.0**52, 0.5) == 2


def test_short_count_names_the_predicted_root_under_eps_cut():
    with pytest.raises(OracleMismatchError,
                       match=r"predicts 4; the small-mu model puts a root at "
                             r"0\.99952244\+0\.00082550j, under eps_cut$"):
        count_roots(*_UNDER_EPS_CUT, expected_region=RegionTag.REGION_II)


@pytest.mark.parametrize("theta, d", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
                                      (0.3, -0.5), (0.3, math.nan), (0.3, math.inf)])
def test_class_data_must_be_finite_with_nonnegative_d(theta, d):
    name = "theta" if not math.isfinite(theta) else "d"
    for search in (count_roots, find_roots):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            search(theta, d)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            search(theta, d, expected_region=RegionTag.REGION_I)


@pytest.mark.parametrize("d", [1e200, 1e4])
def test_class_d_past_the_half_width_cap_raises(d):
    # d^2 overflows at 1e200; d = 1e4 would need a half-width of 15820
    with pytest.raises(ValueError, match=r"needs a half-width of \S+, above the cap 400"):
        find_roots(0.3, d)


def test_find_roots_takes_the_exact_region_of_class_data():
    # (1,2) k = 3 lies on the inner circle exactly, in region II as floats
    p = Wavevector(1, 2)
    cp = class_point(p, companion_basis(p), 3)
    assert cp.region == RegionTag.BOUNDARY_I_II
    with pytest.raises(OracleMismatchError):
        find_roots(cp.theta, cp.d)
    rs = find_roots(cp.theta, cp.d, expected_region=cp.region)
    assert rs.count == 2 and rs.region_predicted == RegionTag.BOUNDARY_I_II


@pytest.mark.parametrize("p, k, M", [((4, 5), 1, 400), ((4, 5), 34, 400), ((7, 8), 1, 452)],
                         ids=["1", "34", "p78-1"])
def test_find_roots_pairs_with_the_operator_on_hard_classes(p, k, M):
    # (4,5) k = 1: a root next to c = 1, far above eps_cut, that no
    # unit-winding cell split could isolate; k = 34: a root within 0.0342
    # of the imaginary axis and close to its mirror -conj(z); (7,8) k = 1, with
    # d = 0.00885 in region II, at M = 4 p^2: a root still nearer c = 1
    rep = cross_validate(Wavevector(*p), k, M=M)
    assert rep["count"] == 4 and rep["max_pairing_distance"] <= 1e-6


def test_quadruplet_next_to_the_imaginary_axis():
    # a quadruplet within 0.0342 of the imaginary axis, off it
    p = Wavevector(4, 5)
    cp = class_point(p, companion_basis(p), 34)
    rs = find_roots(cp.theta, cp.d, expected_region=cp.region)
    assert len(rs.roots) == 4
    assert all(0.0 < abs(c.real) < 0.0342 for c, _ in rs.roots)


# first-quadrant roots of off-lattice draws, as recursive subdivision found
# them: two axis roots near the cut, and a quadruplet next to the axis
_SUBDIVISION_ROOTS = {
    (0.468677236012843, 0.840254661394404): (0.02723676122491559j, 0.01609368025377249j),
    (0.46101549965040167, 0.8287792764551445): (0.013723488942897322 + 0.03111912558422645j,),
}


@pytest.mark.parametrize("theta, d", list(_SUBDIVISION_ROOTS))
def test_find_roots_near_the_axis_and_the_cut(theta, d):
    rs = find_roots(theta, d)
    want = {w for z in _SUBDIVISION_ROOTS[(theta, d)]
            for w in (z, -z, z.conjugate(), -z.conjugate())}
    assert rs.count == 4 and len(rs.roots) == len(want)
    for c, m in rs.roots:
        assert m == 1
        assert min(abs(c - w) for w in want) < 1e-7


# close root pairs next to c = 0, as the uniform bottom-edge step of 0.004
# found them: two axis roots 0.0069 apart, whose moment seeds lie 0.05
# off, a quadruplet next to the axis, 0.0054 above the top edge, and an
# axis pair whose one moment seed lies at 0.0031i without the axis zone
_CLOSE_PAIRS = {
    (0.47389251813215494, 0.8443790071592243): (0.021755998870800694j, 0.01482423315681978j),
    (0.49977385339860314, 0.8586155048669204): (0.006397930728607035 + 0.006398751826887254j,),
    (0.4843535685261879, 0.8581726231610757): (0.015541332451479324j,),
}


@pytest.mark.parametrize("theta, d", list(_CLOSE_PAIRS))
def test_find_roots_close_pairs_next_to_the_origin(theta, d):
    rs = find_roots(theta, d)
    want = {w for z in _CLOSE_PAIRS[(theta, d)] for w in (z, -z, z.conjugate(), -z.conjugate())}
    assert rs.count == len(rs.roots) == len(want)
    assert all(min(abs(c - w) for w in want) < 1e-9 for c, _ in rs.roots)


def test_eps_cut_must_lie_in_the_open_unit_interval():
    # eps_cut <= 0 reaches the cut, and no root lies above Im c = 1
    # (Howard's bound), so eps_cut >= 1 could only count 0
    for bad in (5.0, 2.0, 1.0, -0.01, 0.0, math.nan):
        with pytest.raises(ValueError, match=r"^eps_cut must lie in \(0, 1\), below Howard's"):
            RootSearchConfig(eps_cut=bad)
    assert RootSearchConfig(eps_cut=0.999).eps_cut == 0.999


def test_newton_derivative_is_one_batch_and_bitwise_the_one_point_route(monkeypatch):
    real = evans_mod._newton
    calls = []

    def recording(fs, z0):
        def fs_rec(zs):
            calls.append(list(zs))
            return fs(zs)
        return real(fs_rec, z0)

    def one_by_one(fs, z0):
        return real(lambda zs: [fs([z])[0] for z in zs], z0)

    monkeypatch.setattr(evans_mod, "_newton", recording)
    batched = find_roots(0.4, 0.6).roots
    assert {len(zs) for zs in calls} == {1, 2}
    # each pair is the centred difference about the point evaluated last
    for i, zs in enumerate(calls):
        if len(zs) == 2:
            (z,) = calls[i - 1]
            h = 1e-7 * max(1.0, abs(z))
            assert zs == [z + h, z - h]
    monkeypatch.setattr(evans_mod, "_newton", one_by_one)
    assert find_roots(0.4, 0.6).roots == batched


def _class_points(p):
    q = companion_basis(p)
    return [class_point(p, q, k) for k in range(1, p.p_sq)]


#: first-quadrant roots of every class of (4,5) and (7,8), as the box
#: search that the quarter walk replaced placed them
_COMMITTED_ROOTS = json.loads(
    (Path(__file__).parent / "data" / "first_quadrant_roots_4_5_7_8.json").read_text())


def test_first_quadrant_roots_match_the_committed_ones():
    for key, rows in _COMMITTED_ROOTS.items():
        p = Wavevector(*map(int, key.split(",")))
        assert len(rows) == p.p_sq - 1
        for cp in _class_points(p):
            want = [complex(*z) for z in rows[str(cp.k)]]
            rs = find_roots(cp.theta, cp.d, expected_region=cp.region)
            got = [z for z, _ in rs.roots if z.real >= 0.0 and z.imag > 0.0]
            assert len(got) == len(want), (key, cp.k)
            assert all(min(abs(z - w) for z in got) < 1e-9 for w in want), (key, cp.k, got, want)


@pytest.mark.parametrize("key, eps_cut", [("4,5", 0.05), ("4,5", 0.3), ("7,8", 0.05)])
def test_counts_at_a_user_set_eps_cut_tally_the_committed_roots_above_it(key, eps_cut):
    # at these margins h exceeds end/12, so the top edge is sampled by
    # the base zone and the window alone; each root above eps_cut is
    # counted, 2 on the imaginary axis and 4 elsewhere
    cfg = RootSearchConfig(eps_cut=eps_cut)
    for cp in _class_points(Wavevector(*map(int, key.split(",")))):
        above = [complex(*z) for z in _COMMITTED_ROOTS[key][str(cp.k)] if z[1] > eps_cut]
        assert count_roots(cp.theta, cp.d, cfg) == evans_mod._tally(above), (key, cp.k)


# the top edges of the count's walk at the default eps_cut and at a
# user-set one of 5e-4, and of the walk of `verify --level full`
_TOP_EDGES = [(1e-3, evans_mod._X), (5e-4, evans_mod._X), (2.0, 2.0)]

_edges = st.one_of(
    st.sampled_from(_TOP_EDGES),
    st.tuples(st.floats(2.5e-4, 2e-3), st.floats(1e-4, 8.1)),
    st.tuples(st.floats(2.5e-4, 0.5), st.floats(0.5, 3.0)),
)


# predicted cut-end roots, as _cut_end_root places them: (4,5) k = 1, a
# draw with its root just above the default eps_cut, and roots at and
# under the edges drawn above
_roots = st.one_of(
    st.none(),
    st.sampled_from([0.9797787734336352 + 0.03237951449604355j,
                     0.999260859728783 + 0.0012762528456374636j]),
    st.builds(complex, st.floats(0.9, 1.05), st.floats(1e-5, 0.05)),
)


def _zones(level, end, root):
    """(from, to, step) of each zone of the sampling rule."""
    h = max(2.0 * level, 0.004)
    zones = [(-end, end, end / 12), (-0.1, 0.1, h), (0.98, 1.02, h)]
    if root is not None and root.imag != level:
        height = abs(root.imag - level)
        zones.append((root.real - 2 * height, root.real + 2 * height, height / 4))
    return zones


@settings(derandomize=True, max_examples=120, deadline=None)
@given(edge=_edges, root=_roots)
def test_edge_points_depend_only_on_the_edge(edge, root):
    level, end = edge
    pts = _edge_points(level, end, root)
    assert pts[0] == complex(0.0, level) and all(z.imag == level for z in pts)
    ts = [z.real for z in pts] + [end]
    assert all(p < q for p, q in zip(ts, ts[1:]))

    zones = _zones(level, end, root)

    def rule(t):
        return min(s for z0, z1, s in zones if z0 <= t <= z1)

    for p, q in zip(ts, ts[1:]):
        assert q - p <= min(rule(p), rule(q)) * (1 + 1e-9), (p, q)

    # the samples are x = 0 and each zone's lattice, the odd multiples
    # of half its step from one step before the zone to one after,
    # wherever no finer zone covers it
    lattice = [t for z0, z1, s in zones
               for t in ((k + 0.5) * s for k in range(math.ceil(max(0.0, z0 - s) / s - 0.5),
                                                       math.floor(min(end, z1 + s) / s - 0.5) + 1))
               if 0.0 < t < end and min([s] + [r for y0, y1, r in zones if y0 <= t <= y1]) == s]
    assert set(lattice) | {0.0, end} == set(ts)

    h = max(2.0 * level, 0.004)
    clear = root is None or abs(root.real - 1.0) > 4 * abs(root.imag - level) + h
    if level <= 2e-3 and end / 12 >= h and clear:
        # next to the cut end the samples stay h/2 away from x = 1,
        # unless a window around a predicted root reaches there
        assert all(abs(t - 1.0) >= 0.5 * h - 1e-12 for t in ts[1:-1])


def test_window_samples_the_bottom_edge_around_the_predicted_root():
    # the draw of test_count_roots_where_the_cut_end_root_is_just_above_eps_cut:
    # its root is 2.8e-4 above the walk's top edge and 7.4e-4 left of c = 1
    eps = RootSearchConfig().eps_cut
    root = evans_mod._cut_end_root(-0.28118233937512227, 0.0025438940326028077)
    plain, windowed = _edge_points(eps, evans_mod._X), _edge_points(eps, evans_mod._X, root)
    height = root.imag - eps
    near = sorted(z.real for z in windowed if abs(z.real - root.real) <= 2 * height)
    assert len(near) >= 16 and max(np.diff(near)) <= height / 4 * (1 + 1e-9)
    assert not any(abs(z.real - root.real) <= 2 * height for z in plain)
    # outside the window the two sample sets agree
    far = 2 * height + max(2 * eps, 0.004)
    assert ({z for z in windowed if abs(z.real - root.real) > far}
            == {z for z in plain if abs(z.real - root.real) > far})


def _count_walk(theta, d):
    """The count's final walk (points, values) at the default settings."""
    return evans_mod._quarter_walk(lambda cs: evans_mod._evans_batch(cs, theta, d),
                                   evans_mod._X, RootSearchConfig().eps_cut,
                                   evans_mod._cut_end_root(theta, d))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(theta=st.floats(-0.5, 0.5), mu=st.floats(1e-4, 1.0))
def test_walk_samples_are_bitwise_even_and_conjugate(theta, mu):
    # E(-c) = E(c) and E(conj c) = conj E(c), on which the quarter walk's
    # count rests, hold bitwise at the walk's own samples
    d = math.sqrt(mu)
    _, (pts, vals) = _count_walk(theta, d)
    here = evans_mod._evans_batch(pts, theta, d)
    assert np.array_equal(here, vals)
    assert np.array_equal(evans_mod._evans_batch([-c for c in pts], theta, d), here)
    assert np.array_equal(evans_mod._evans_batch([c.conjugate() for c in pts], theta, d),
                          here.conj())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(theta=st.floats(-0.5, 0.5), d=st.floats(1e-3, 1.2))
def test_quarter_walk_argument_change_is_a_whole_multiple_of_half_pi(theta, d):
    count, (pts, vals) = _count_walk(theta, d)
    change = sum(cmath.phase(vals[i] / vals[i - 1]) for i in range(1, len(vals)))
    assert abs(change / (math.pi / 2) - count) <= 1e-9, (theta, d, change)
