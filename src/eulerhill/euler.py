"""Full Evans function of the linearised flow and the spectrum report.

The product runs over the classes k = 1 .. p^2 - 1 with each factor
squared (negative k is equivalent by evenness of the factor in theta
and d).  The eigenvalue count with multiplicity therefore equals twice
the sum of per-class counts, and sharpness means that total equals
twice the number of nonzero lattice points inside the unstable disk.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import BranchCutError, EulerHillError
from .evans import RootSearchConfig, count_roots, evans, find_roots
from .hill import DiscriminantConfig
from .lattice import (
    ClassPoint,
    RegionTag,
    Wavevector,
    class_line_count,
    class_point,
    companion_basis,
    lattice_points_in_disk,
)

__all__ = ["ClassSpectrum", "SpectrumReport", "full_evans", "spectrum_report",
           "report_to_dict", "report_to_json"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ClassSpectrum:
    k: int
    point: ClassPoint
    count: int  # four-quadrant count with multiplicity, unsquared factor
    roots_c: tuple  # ((c, multiplicity), ...) or () in count-only mode
    roots_lambda: tuple  # lambda = -i k c values matching roots_c


@dataclass(frozen=True)
class SpectrumReport:
    p: Wavevector
    q: tuple
    per_class: tuple
    lattice_count: int
    distinct_count: int  # sum of per-class counts
    total_count: int  # doubled for the squared factors
    sharp: bool
    tallies: dict
    notes: tuple


def full_evans(p: Wavevector, lam: complex, cfg: DiscriminantConfig | None = None) -> complex:
    """E_p(lambda) = prod_k E(i lambda / k; theta(k), d(k))^2."""
    q = companion_basis(p)
    lam = complex(lam)
    prod = 1.0 + 0.0j
    for k in range(1, p.p_sq):
        cp = class_point(p, q, k)
        c = 1j * lam / k
        try:
            factor = evans(c, cp.theta, cp.d, cfg)
        except EulerHillError as exc:
            raise BranchCutError(
                f"factor k={k}: c = i*lambda/k = {c} is not evaluable: {exc}"
            ) from exc
        prod *= factor * factor
    return prod


def spectrum_report(p: Wavevector, cfg: RootSearchConfig | None = None,
                    count_only: bool = False) -> SpectrumReport:
    """Per-class spectrum for all k = 1 .. p^2 - 1 plus the global tally.

    In count_only mode only winding numbers are computed (no root
    refinement); roots_c / roots_lambda are then empty.
    """
    q = companion_basis(p)
    per_class = []
    tallies: Counter = Counter()
    notes = []
    for k in range(1, p.p_sq):
        cp = class_point(p, q, k)
        tallies[cp.region] += 1
        try:
            if count_only:
                count = count_roots(cp.theta, cp.d, cfg, expected_region=cp.region)
                roots_c: tuple = ()
                roots_lam: tuple = ()
            else:
                rs = find_roots(cp.theta, cp.d, cfg, expected_region=cp.region)
                count = rs.count
                roots_c = rs.roots
                roots_lam = tuple((-1j * k * c, m) for c, m in rs.roots)
        except EulerHillError as exc:
            raise type(exc)(f"class k={k}: {exc}") from exc
        line = class_line_count(p, q, k)
        if count != 2 * line:
            raise EulerHillError(
                f"class k={k}: count {count} != 2 x {line} interior lattice points"
            )
        if cp.region == RegionTag.BOUNDARY_0_I:
            notes.append(f"class k={k} lies on the unstable-disk boundary "
                         "(eigenvalue at the origin only)")
        elif cp.region == RegionTag.BOUNDARY_I_II:
            notes.append(f"class k={k} lies on the inner circle boundary "
                         "(one imaginary pair plus the origin)")
        elif cp.region == RegionTag.REGION_0:
            notes.append(f"class k={k} lies outside all circles (no eigenvalues)")
        per_class.append(ClassSpectrum(k=k, point=cp, count=count,
                                       roots_c=roots_c, roots_lambda=roots_lam))
    lattice_count, _ = lattice_points_in_disk(p)
    distinct = sum(cs.count for cs in per_class)
    total = 2 * distinct
    return SpectrumReport(
        p=p,
        q=(q.q1, q.q2),
        per_class=tuple(per_class),
        lattice_count=lattice_count,
        distinct_count=distinct,
        total_count=total,
        sharp=(total == 2 * lattice_count),
        tallies={tag.value: tallies.get(tag, 0) for tag in RegionTag},
        notes=tuple(notes),
    )


def _complex_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def report_to_dict(report: SpectrumReport) -> dict:
    classes = []
    for cs in report.per_class:
        cp = cs.point
        classes.append({
            "k": cs.k,
            "theta": {"num": cp.theta_num, "den": cp.p_sq},
            "d": {"num": cp.k, "den": cp.p_sq},
            "region": cp.region.value,
            "count": cs.count,
            "roots_lambda": [
                {**_complex_dict(lam), "multiplicity": m} for lam, m in cs.roots_lambda
            ],
            "roots_c": [
                {**_complex_dict(c), "multiplicity": m} for c, m in cs.roots_c
            ],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "p": [report.p.p1, report.p.p2],
        "q": list(report.q),
        "p_sq": report.p.p_sq,
        "lattice_count": report.lattice_count,
        "distinct_count": report.distinct_count,
        "total_count": report.total_count,
        "sharp": report.sharp,
        "tallies": report.tallies,
        "classes": classes,
        "notes": list(report.notes),
    }


def report_to_json(report: SpectrumReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)
