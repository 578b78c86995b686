"""Product Evans function and the spectrum report."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from eulerhill import (
    BranchCutError,
    RegionTag,
    Wavevector,
    class_line_count,
    class_point,
    companion_basis,
    cross_validate,
    find_roots,
    full_evans,
    report_to_dict,
    report_to_json,
    spectrum_report,
)


def test_full_evans_trivial_wavevector():
    p = Wavevector(0, 1)
    for lam in (1.0, 2.0 + 3.0j, -0.7j + 4):
        assert full_evans(p, lam) == 1.0


def test_full_evans_nonzero_for_large_real_lambda():
    p = Wavevector(1, 2)
    for lam in (5.0, 12.0, 7.0 + 2.0j):
        assert abs(full_evans(p, lam)) > 1e-6


def test_full_evans_single_factor_roots():
    # p=(1,1) has a single class; zeros of the product are the class roots
    p = Wavevector(1, 1)
    rs = find_roots(0.5, 0.5)
    for c, _ in rs.roots:
        lam = -1j * c
        assert abs(full_evans(p, lam)) < 1e-6


def test_full_evans_at_the_origin_is_the_closed_form():
    # at lambda = 0 each factor is E(0; theta, d) = 2 cos 2 pi theta - 2 cos 2 pi sqrt(1 - d^2)
    p = Wavevector(1, 1)
    q = companion_basis(p)
    want = 1.0
    for k in range(1, p.p_sq):
        cp = class_point(p, q, k)
        want *= (2.0 * math.cos(2.0 * math.pi * cp.theta)
                 - 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(1.0 - cp.d**2))) ** 2
    got = full_evans(p, 0)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(got - 11.10) < 0.005
    # a class on a circle puts an eigenvalue at the origin
    for pp in ((1, 2), (4, 5)):
        assert abs(full_evans(Wavevector(*pp), 0)) < 1e-40


def test_full_evans_cut_error_identifies_class():
    p = Wavevector(1, 1)
    with pytest.raises(BranchCutError, match="k=1"):
        full_evans(p, 0.5j)  # c = i*lambda/1 = -0.5 on the cut


def test_spectrum_report_trivial():
    report = spectrum_report(Wavevector(0, 1))
    assert report.total_count == 0
    assert report.lattice_count == 0
    assert report.sharp


def test_spectrum_report_p12():
    report = spectrum_report(Wavevector(1, 2))
    assert report.lattice_count == 12
    assert report.distinct_count == 12
    assert report.total_count == 24
    assert report.sharp
    regions = {cs.k: cs.point.region for cs in report.per_class}
    assert regions == {
        1: RegionTag.REGION_II,
        2: RegionTag.REGION_II,
        3: RegionTag.BOUNDARY_I_II,
        4: RegionTag.BOUNDARY_I_II,
    }
    counts = {cs.k: cs.count for cs in report.per_class}
    assert counts == {1: 4, 2: 4, 3: 2, 4: 2}
    # roots map to lambda = -i k c
    for cs in report.per_class:
        for (c, m), (lam, m2) in zip(cs.roots_c, cs.roots_lambda):
            assert m == m2
            assert abs(lam - (-1j * cs.k * c)) < 1e-15


def test_spectrum_report_count_only_matches_full():
    p = Wavevector(1, 2)
    full = spectrum_report(p)
    fast = spectrum_report(p, count_only=True)
    assert [cs.count for cs in full.per_class] == [cs.count for cs in fast.per_class]
    assert fast.per_class[0].roots_c == ()


def test_per_class_count_equals_twice_line_count():
    # spectrum_report enforces this internally; exercise it for p=(1,1)
    p = Wavevector(1, 1)
    q = companion_basis(p)
    report = spectrum_report(p)
    for cs in report.per_class:
        assert cs.count == 2 * class_line_count(p, q, cs.k)


def test_oracle_triangle():
    """Evans roots agree with the class-operator oracle for three wavevectors."""
    for pp, M in (((1, 1), 60), ((1, 2), 75), ((2, 3), 80)):
        p = Wavevector(*pp)
        q = companion_basis(p)
        for k in range(1, p.p_sq):
            if class_line_count(p, q, k) == 0:
                continue
            rep = cross_validate(p, k, M=M)
            assert rep["max_pairing_distance"] <= 1e-4, (pp, k)


def test_report_json_schema():
    report = spectrum_report(Wavevector(1, 2), count_only=True)
    payload = json.loads(report_to_json(report))
    assert payload["schema_version"] == 1
    assert payload["p"] == [1, 2]
    assert payload["p_sq"] == 5
    assert payload["total_count"] == 24
    assert payload["sharp"] is True
    assert len(payload["classes"]) == 4
    first = payload["classes"][0]
    assert set(first) == {"k", "theta", "d", "region", "count", "roots_lambda", "roots_c"}
    assert first["theta"] == {"num": -2, "den": 5}
    tallies = payload["tallies"]
    assert tallies["II"] == 2 and tallies["boundary_I_II"] == 2
    assert any("k=3" in note for note in payload["notes"])


def test_report_dict_roots_serializable():
    report = spectrum_report(Wavevector(1, 1))
    payload = report_to_dict(report)
    roots = payload["classes"][0]["roots_lambda"]
    assert len(roots) == 4
    for entry in roots:
        assert set(entry) == {"re", "im", "multiplicity"}


def test_flagship_spectrum_with_roots_matches_count_only_report():
    # every class of p = (4,5) solves, and without its roots the report is
    # the committed count-only one
    report = report_to_dict(spectrum_report(Wavevector(4, 5)))
    for cls in report["classes"]:
        assert sum(r["multiplicity"] for r in cls["roots_c"]) == cls["count"]
        assert len(cls["roots_lambda"]) == len(cls["roots_c"])
        cls["roots_c"] = cls["roots_lambda"] = []
    golden = Path(__file__).parent / "data" / "spectrum_4_5_count_only.json"
    assert report == json.loads(golden.read_text())


def test_count_only_report_past_p_sq_100_is_as_committed():
    # p^2 = 113: k = 1 has d = 0.00885 in region II, the smallest d of any
    # class the tests count; the file is the output of
    # `eulerhill --format json spectrum --p 7,8 --count-only`
    report = spectrum_report(Wavevector(7, 8), count_only=True)
    golden = Path(__file__).parent / "data" / "spectrum_7_8_count_only.json"
    assert report.sharp
    assert report_to_json(report) + "\n" == golden.read_text()
