"""The three workloads: run each unit through the package, time it, check it.

A workload's unit is the smallest piece a run may stop after.  An "op"
is the unit of failure accounting named in the benchmark's README: one
class count (count_sweep), one class solved with roots (root_refine) or
one oracle comparison (oracle_check).  Only the calls into the program
are timed; the checks against the independent routes are not.

Every program call goes through a call table (`Api`) so that the traced
run can swap in recording wrappers without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from eulerhill.cli import main as cli_main
from eulerhill.conformal import s_of_c
from eulerhill.errors import EulerHillError
from eulerhill.euler import spectrum_report
from eulerhill.evans import find_roots
from eulerhill.hill import discriminant
from eulerhill.jacobi import jacobi_spectrum
from eulerhill.lattice import (
    ROOT_COUNT_BY_REGION,
    Wavevector,
    class_line_count,
    class_point,
    classify_rational,
    companion_basis,
)
from eulerhill.monodromy import integrate_monodromy

from generate import GRID_C, GRID_MU, ROADMAP_CUT
from pace import HostClock

GRID_TOL = 1e-9        # RK4 tolerance on the criterion-2 grid
CUT_TOL = 1e-11        # RK4 tolerance at the near-cut points, relative to max(1, |Delta|)
GRID_FAIL = 1e-6       # criterion 2's bound on |Delta_det - trace|
CUT_FAIL = 1e-3        # relative error that fails a near-cut comparison
PAIR_FAIL = 1e-4       # cross_validate's pairing tolerance
PAIR_M = 200           # Jacobi half-width for root pairing (4 p^2 is too coarse there)
JACOBI_M = 100         # 4 p^2 at p^2 = 25: one eigensolve size whatever p is drawn
AXIS_TOL = 1e-3        # |Re c| and |Im c| of an off-axis root
PROBE_PAIRING = ((1, 2), 1, 75)  # criterion 10's half-width for p = (1, 2)


@dataclass(frozen=True)
class Api:
    """The program entry points the workloads call."""

    cli_main: object = cli_main
    spectrum_report: object = spectrum_report
    find_roots: object = find_roots
    discriminant: object = discriminant
    s_of_c: object = s_of_c
    integrate_monodromy: object = integrate_monodromy
    jacobi_spectrum: object = jacobi_spectrum


def _p_sq_tag(args, kwargs, result):
    return args[0].p_sq


def _class_tag(args, kwargs, result):
    return (abs(args[0]), args[1])


def _c_tag(args, kwargs, result):
    return args[0].c


def _ladder_steps(args, kwargs, result):
    """RK4 steps summed over the doubling ladder that ended at result.steps."""
    n = kwargs.get("start_steps", 64)
    total = 0
    while n <= result.steps:
        total += n
        n *= 2
    return total


#: layer and span tag of each Api field
API_LAYERS = {
    "cli_main": ("cli", None),
    "spectrum_report": ("euler", _p_sq_tag),
    "find_roots": ("evans", _class_tag),
    "discriminant": ("hill", _c_tag),
    "s_of_c": ("conformal", None),
    "integrate_monodromy": ("monodromy", _ladder_steps),
    "jacobi_spectrum": ("jacobi", None),
}


def traced_api(recorder, api: Api) -> Api:
    wrapped = {}
    for f in fields(api):
        layer, tag = API_LAYERS[f.name]
        wrapped[f.name] = recorder.wrap(layer, f.name, getattr(api, f.name), tag)
    return replace(api, **wrapped)


def module_targets() -> list:
    """Names each module imports from the layer below, for SpanRecorder.patched.

    The package attribute `eulerhill.evans` is the evans() function, so
    the module itself is looked up in sys.modules.
    """
    euler_mod = sys.modules["eulerhill.euler"]
    evans_mod = sys.modules["eulerhill.evans"]
    return [
        (euler_mod, "spectrum_report", "euler", _p_sq_tag),  # as called by cli
        (euler_mod, "count_roots", "evans", _class_tag),
        (euler_mod, "find_roots", "evans", _class_tag),
        (euler_mod, "class_point", "lattice", None),
        (euler_mod, "class_line_count", "lattice", None),
        (euler_mod, "lattice_points_in_disk", "lattice", None),
        (euler_mod, "companion_basis", "lattice", None),
        (evans_mod, "discriminant", "hill", _c_tag),
        (evans_mod, "s_of_c", "conformal", None),
        (evans_mod, "s_at_origin", "conformal", None),
    ]


@dataclass
class Tally:
    """Ops attempted and failed, time spent in program calls, worst errors."""

    attempted: int = 0
    clock: HostClock = field(default_factory=HostClock)
    calls: list = field(default_factory=list)     # (ops, start, end, wall s) per call
    failures: dict = field(default_factory=dict)  # op id -> record
    worst: dict = field(default_factory=dict)     # accuracy name -> worst value
    reports: dict = field(default_factory=dict)   # (unit, p) -> count-only JSON bytes

    def call(self, n_ops: int, fn, *args, **kwargs):
        """Run one program call that covers `n_ops` ops, timing it."""
        self.attempted += n_ops
        started = self.clock.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((n_ops, *self.clock.stop(started)))

    def fail(self, op_id, **info):
        self.failures.setdefault(op_id, {"op": list(op_id), **info})

    def note(self, name: str, value: float):
        self.worst[name] = max(self.worst.get(name, 0.0), value)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall_seconds(self) -> float:
        return sum(wall for _, _, _, wall in self.calls)

    @property
    def seconds(self) -> float:
        """Program time in reference seconds: each call scaled by the host speed around it."""
        return sum(wall * self.clock.scale(t0, t1) for _, t0, t1, wall in self.calls)

    @property
    def run_s(self) -> float:
        return self.seconds / self.attempted if self.attempted else 0.0

    @property
    def wall_run_s(self) -> float:
        return self.wall_seconds / self.attempted if self.attempted else 0.0


def _class_info(w: Wavevector, k: int) -> dict:
    cp = class_point(w, companion_basis(w), k)
    return {"k": k, "theta": cp.theta, "d": cp.d, "mu": cp.d * cp.d}


def _check_class_count(tally, op_id, w, k, count):
    """Count against the exact lattice line count and the region prediction."""
    q = companion_basis(w)
    expected = ROOT_COUNT_BY_REGION[class_point(w, q, k).region]
    line = 2 * class_line_count(w, q, k)
    if count != line or count != expected:
        tally.fail(op_id, **_class_info(w, k),
                   error=f"count {count}, lattice {line}, region {expected}")


def pairing_distance(lams_operator, lams_evans):
    """Greedy nearest-partner matching; None when the counts differ."""
    if len(lams_operator) != len(lams_evans):
        return None
    used = [False] * len(lams_evans)
    worst = 0.0
    for lj in lams_operator:
        dist, idx = min((abs(lj - le), i) for i, le in enumerate(lams_evans) if not used[i])
        used[idx] = True
        worst = max(worst, dist)
    return worst


def _evans_lambdas(k: int, roots_c) -> list:
    lams = []
    for c, m in roots_c:
        lams.extend([-1j * k * c] * m)
    return lams


def run_count_sweep_unit(index, unit, api, tally, scratch):
    """Count-only spectrum of a wavevector and its partner through the CLI."""
    for p in (unit["base"], unit["partner"]):
        w = Wavevector(*p)
        ops = [(index, p[0], p[1], k) for k in range(1, w.p_sq)]
        path = os.path.join(scratch, f"{index}_{p[0]}_{p[1]}.json")
        argv = ["--format", "json", "--out", path, "spectrum", "--p", f"{p[0]},{p[1]}",
                "--count-only"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = tally.call(len(ops), api.cli_main, argv)
        if code != 0:
            for op in ops:
                tally.fail(op, p=p, error=err.getvalue().strip() or f"exit code {code}")
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        tally.reports[(index, p[0], p[1])] = data
        report = json.loads(data)
        counts = {cls["k"]: cls["count"] for cls in report["classes"]}
        for op in ops:
            _check_class_count(tally, op, w, op[-1], counts.get(op[-1]))
        if not report["sharp"]:
            for op in ops:
                tally.fail(op, p=p, error="report is not sharp")


def _check_roots(tally, op_id, info, count, roots_c):
    if sum(m for _, m in roots_c) != count:
        tally.fail(op_id, **info, error=f"roots {roots_c} do not add up to count {count}")


def run_root_refine_unit(index, unit, api, tally, scratch):
    """A full spectrum with roots, or one off-lattice find_roots draw."""
    if unit["kind"] == "spectrum":
        w = Wavevector(*unit["p"])
        q = companion_basis(w)
        ops = [(index, k) for k in range(1, w.p_sq)]
        try:
            report = tally.call(len(ops), api.spectrum_report, w)
        except EulerHillError as exc:
            for op in ops:
                tally.fail(op, p=unit["p"], error=str(exc))
            return
        if not report.sharp:
            for op in ops:
                tally.fail(op, p=unit["p"], error="report is not sharp")
        for cs in report.per_class:
            op, info = (index, cs.k), _class_info(w, cs.k)
            _check_class_count(tally, op, w, cs.k, cs.count)
            _check_roots(tally, op, info, cs.count, cs.roots_c)
            if class_line_count(w, q, cs.k) == 0:
                continue
            try:
                lams_j = list(api.jacobi_spectrum(w, cs.k, M=PAIR_M, q=q))
            except EulerHillError as exc:
                tally.fail(op, **info, error=f"jacobi: {exc}")
                continue
            dist = pairing_distance(lams_j, _evans_lambdas(cs.k, cs.roots_c))
            if dist is None or dist > PAIR_FAIL:
                tally.fail(op, **info, error=f"pairing with the Jacobi operator: {dist}")
            else:
                tally.note("pairing_max_dist_seeded", dist)
        return
    theta, d = unit["theta"], unit["d"]
    op, info = (index,), {"theta": theta, "d": d, "mu": d * d}
    try:
        rs = tally.call(1, api.find_roots, theta, d)
    except EulerHillError as exc:
        tally.fail(op, **info, error=str(exc))
        return
    expected = ROOT_COUNT_BY_REGION[classify_rational(Fraction(theta), Fraction(d))]
    if rs.count != expected:
        tally.fail(op, **info, error=f"count {rs.count}, region predicts {expected}")
    _check_roots(tally, op, info, rs.count, rs.roots)
    if unit["off_axis"] and not (
        len(rs.roots) == 4
        and all(abs(c.real) > AXIS_TOL and abs(c.imag) > AXIS_TOL for c, _ in rs.roots)
    ):
        tally.fail(op, **info, error=f"expected an off-axis quadruplet, got {rs.roots}")


def _compare(api, c, mu, tol, relative=False):
    """Determinant route and RK4 route at one (c, mu).

    With `relative`, RK4 stops at tol * max(1, |Delta|): near the cut
    |Delta| reaches 1e3, where an absolute 1e-11 is below round-off and
    the step doubling never converges.
    """
    delta = api.discriminant(api.s_of_c(c), mu)
    if relative:
        tol *= max(1.0, abs(delta))
    return delta, api.integrate_monodromy(c, mu, tol=tol).trace


def run_oracle_check_unit(index, unit, api, tally, scratch):
    """Grid and near-cut comparisons with RK4, Jacobi counts for one p."""
    for kind, points, tol in (("grid", unit["grid"], GRID_TOL), ("cut", unit["cut"], CUT_TOL)):
        relative = kind == "cut"
        for j, ((re, im), mu) in enumerate(points):
            c = complex(re, im)
            op, info = (index, kind, j), {"c": [re, im], "mu": mu}
            try:
                delta, trace = tally.call(1, _compare, api, c, mu, tol, relative)
            except EulerHillError as exc:
                tally.fail(op, **info, error=str(exc))
                continue
            if kind == "grid":
                err = abs(delta - trace)
                tally.note("oracle_max_abs_err", err)
                if err > GRID_FAIL:
                    tally.fail(op, **info, error=f"|Delta - trace| = {err:.3e}")
            else:
                err = abs(delta - trace) / abs(trace)
                tally.note("cut_max_rel_err", err)
                if err > CUT_FAIL:
                    tally.fail(op, **info, error=f"relative error {err:.3e}")
    w = Wavevector(*unit["jacobi_p"])
    q = companion_basis(w)
    for k in range(1, w.p_sq):
        op = (index, "jacobi", k)
        try:
            lams = tally.call(1, api.jacobi_spectrum, w, k, M=JACOBI_M, q=q)
        except EulerHillError as exc:
            tally.fail(op, p=unit["jacobi_p"], **_class_info(w, k), error=str(exc))
            continue
        line = 2 * class_line_count(w, q, k)
        if len(lams) != line:
            tally.fail(op, p=unit["jacobi_p"], **_class_info(w, k),
                       error=f"operator {len(lams)} vs lattice {line}")


@dataclass(frozen=True)
class Workload:
    run_unit: object
    min_units: int  # units a run completes before it may stop


WORKLOADS = {
    "count_sweep": Workload(run_count_sweep_unit, 1),
    "root_refine": Workload(run_root_refine_unit, 2),
    "oracle_check": Workload(run_oracle_check_unit, 1),
}


def run_pass(workload: Workload, units, api, tally, scratch, seconds=None, after=None) -> list:
    """Run units in order; with `seconds`, stop at the first unit boundary past it.

    `after(index, unit)` runs after each unit, inside the time budget.
    """
    done = []
    start = time.perf_counter()
    for index, unit in enumerate(units):
        workload.run_unit(index, unit, api, tally, scratch)
        done.append(unit)
        if after is not None:
            after(index, unit)
        if (seconds is not None and len(done) >= workload.min_units
                and time.perf_counter() - start >= seconds):
            break
    return done


def _probe_grid(api) -> float:
    return max(abs(d - t) for d, t in (_compare(api, c, mu, GRID_TOL)
                                        for c in GRID_C for mu in GRID_MU))


def _probe_cut(api) -> float:
    return max(abs(d - t) / abs(t) for d, t in (_compare(api, c, mu, CUT_TOL, relative=True)
                                                for c, mu in ROADMAP_CUT))


def _probe_pairing(api) -> float:
    (p1, p2), k, m = PROBE_PAIRING
    w = Wavevector(p1, p2)
    cp = class_point(w, companion_basis(w), k)
    rs = api.find_roots(cp.theta, cp.d)
    dist = pairing_distance(list(api.jacobi_spectrum(w, k, M=m)), _evans_lambdas(k, rs.roots))
    if dist is None:
        raise EulerHillError(f"probe class k={k} of p={(p1, p2)}: pairing counts differ")
    return dist


#: Fixed accuracy checks, identical on every workload and seed, for the
#: accuracy metrics a workload's own ops do not produce: the criterion-2
#: grid, the two known-hard near-cut points, and the Evans/Jacobi pairing
#: of one class.  Each raises EulerHillError when a route fails.
ACCURACY_PROBES = {
    "oracle_max_abs_err": _probe_grid,
    "cut_max_rel_err": _probe_cut,
    "pairing_max_dist": _probe_pairing,
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
