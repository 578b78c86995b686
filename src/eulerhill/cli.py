"""Command-line front end: figure data, spectrum reports, verification.

All numeric output uses 17 significant digits and canonical ordering so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import euler as euler_mod
from .conformal import Side, s_at_origin, s_of_c
from .errors import BranchCutError, EulerHillError, SingularPotentialError
from .evans import RootSearchConfig, evans, find_roots
from .hill import DiscriminantConfig, discriminant, discriminant_batch, discriminant_slope_at_zero
from .jacobi import cross_validate, jacobi_spectrum
from .lattice import Wavevector, class_line_count, classify_rational, companion_basis
from .monodromy import integrate_monodromy

DEFAULTS_ENV = "EULERHILL_DEFAULTS"

#: global settings by defaults-file key, with their types; each key is
#: also a flag (--half-width for half_width), except --format for fmt
SETTINGS = {"half_width": int, "integrator_tol": float, "root_tol": float,
            "c_max": float, "eps_cut": float, "out": str, "fmt": str}

FORMATS = ("csv", "json")


def fmt_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")


def parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a pair P1,P2")
    return int(parts[0]), int(parts[1])


def _write(args, lines):
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_discriminant(args) -> int:
    mus = np.linspace(args.mu_min, args.mu_max, args.points)
    rows = ["mu,re_delta,im_delta"]
    try:
        sp = s_of_c(args.c)
    except (BranchCutError, SingularPotentialError) as exc:
        print(f"warning: {exc}", file=sys.stderr)
        sp = None
    for mu in mus:
        if sp is None:
            rows.append(f"{fmt_float(mu)},nan,nan")
            continue
        val = discriminant(sp, float(mu), args.search.disc)
        rows.append(f"{fmt_float(mu)},{fmt_float(val.real)},{fmt_float(val.imag)}")
    _write(args, rows)
    return 0


def _grid_axes(args):
    return (np.linspace(args.re_min, args.re_max, args.points_re),
            np.linspace(args.im_min, args.im_max, args.points_im))


def _write_grid(args, head: str, res, ims, vals, ok) -> None:
    """CSV rows of a (len(ims), len(res)) grid of Delta values.

    The im-zero flag marks a valid entry whose Im part changes sign
    against the next row or column; invalid entries count as 0 there.
    """
    im = np.imag(np.where(ok, vals, 0.0))
    flag = np.zeros(vals.shape, dtype=bool)
    flag[:-1, :] |= np.signbit(im[:-1, :]) != np.signbit(im[1:, :])
    flag[:, :-1] |= np.signbit(im[:, :-1]) != np.signbit(im[:, 1:])
    rows = [f"{head},re_delta,im_delta,im_zero_flag"]
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            v = vals[i, j]
            rows.append(
                f"{fmt_float(a)},{fmt_float(b)},{fmt_float(v.real)},"
                f"{fmt_float(v.imag)},{int(flag[i, j] and ok[i, j])}"
            )
    _write(args, rows)


def cmd_contour_c(args) -> int:
    res, ims = _grid_axes(args)
    ok = np.ones((len(ims), len(res)), dtype=bool)
    sps = []
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            try:
                sps.append(s_of_c(complex(a, b)))
            except (BranchCutError, SingularPotentialError):
                ok[i, j] = False
    vals = np.full(ok.shape, complex("nan"))
    vals[ok] = discriminant_batch(sps, args.d * args.d, args.search.disc)
    _write_grid(args, "re_c,im_c", res, ims, vals, ok)
    return 0


def cmd_contour_mu(args) -> int:
    try:
        sp = s_of_c(args.c)
    except (BranchCutError, SingularPotentialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res, ims = _grid_axes(args)
    vals = np.array([[discriminant(sp, complex(a, b), args.search.disc) for a in res]
                     for b in ims])
    _write_grid(args, "re_mu,im_mu", res, ims, vals, np.ones(vals.shape, dtype=bool))
    return 0


def cmd_circles(args) -> int:
    den = args.denominator
    rows = ["theta,d,region"]
    for i in range(0, den // 2 + 1):
        for j in range(0, den + 1):
            theta = Fraction(i, den)
            d = Fraction(j, den)
            tag = classify_rational(theta, d)
            rows.append(f"{fmt_float(float(theta))},{fmt_float(float(d))},{tag.value}")
    _write(args, rows)
    return 0


def cmd_evans_roots(args) -> int:
    rs = find_roots(args.theta, args.d, args.search)
    if args.fmt == "json":
        payload = {
            "schema_version": euler_mod.SCHEMA_VERSION,
            "theta": args.theta,
            "d": args.d,
            "count": rs.count,
            "region_predicted": rs.region_predicted.value,
            "roots": [
                {"re": c.real, "im": c.imag, "multiplicity": m} for c, m in rs.roots
            ],
        }
        _write(args, [json.dumps(payload, indent=2)])
    else:
        rows = ["re_c,im_c,multiplicity"]
        for c, m in rs.roots:
            rows.append(f"{fmt_float(c.real)},{fmt_float(c.imag)},{m}")
        _write(args, rows)
    return 0


def cmd_spectrum(args) -> int:
    p = Wavevector(*args.p)
    report = euler_mod.spectrum_report(p, args.search, count_only=args.count_only)
    if args.fmt == "csv":
        rows = ["k,theta_num,theta_den,d_num,d_den,region,count,roots_lambda"]
        for cs in report.per_class:
            cp = cs.point
            roots = ";".join(
                f"{fmt_float(l.real)}{l.imag:+.17g}j" for l, _ in cs.roots_lambda
            )
            rows.append(
                f"{cs.k},{cp.theta_num},{cp.p_sq},{cp.k},{cp.p_sq},"
                f"{cp.region.value},{cs.count},{roots}"
            )
        rows.append(
            f"# lattice_count={report.lattice_count} total_count={report.total_count} "
            f"sharp={report.sharp}"
        )
        _write(args, rows)
    else:
        _write(args, [euler_mod.report_to_json(report)])
    return 0


def _verify_checks(args):
    level, search, disc_cfg = args.level, args.search, args.search.disc
    tol = {} if args.integrator_tol is None else {"tol": args.integrator_tol}

    def closed_form_origin():
        sp = s_at_origin(Side.UPPER)
        worst = 0.0
        for d in np.linspace(0.0, 1.0, 50):
            ref = 2.0 * math.cos(2.0 * math.pi * math.sqrt(1.0 - d * d))
            worst = max(worst, abs(discriminant(sp, d * d, disc_cfg) - ref))
        return worst < 1e-9, f"max deviation {worst:.2e}"

    def oracle_agreement():
        pts = [(2.0, 0.25), (0.2j, 0.5), (0.1 + 0.2j, 0.25), (0.5 + 0.7j, 0.09)]
        if level == "full":
            pts = [
                (c, mu)
                for c in (2.0, 0.2j, 1j / math.sqrt(2), 0.1 + 0.2j, 0.5 + 0.7j)
                for mu in (0.0, 0.09, 0.25, 0.5, 1.0)
            ]
        worst = 0.0
        for c, mu in pts:
            tr = integrate_monodromy(c, mu, **tol).trace
            worst = max(worst, abs(discriminant(s_of_c(c), mu, disc_cfg) - tr))
        return worst < 1e-6, f"worst |Delta_det - trace| = {worst:.2e}"

    def slope_formula():
        worst = 0.0
        for c in (2.0, 3j, 0.5 + 0.7j):
            sp = s_of_c(c)
            h = 1e-5
            fd = (discriminant(sp, h, disc_cfg) - discriminant(sp, -h, disc_cfg)) / (2 * h)
            cl = discriminant_slope_at_zero(c)
            worst = max(worst, abs(fd - cl) / abs(cl))
        return worst < 1e-5, f"worst relative deviation {worst:.2e}"

    def jacobi_counts():
        ps = [(1, 2)] if level == "quick" else [(1, 1), (1, 2), (2, 1), (1, 3)]
        for pp in ps:
            p = Wavevector(*pp)
            q = companion_basis(p)
            for k in range(1, p.p_sq):
                n_ops = len(jacobi_spectrum(p, k, q=q))
                n_lat = 2 * class_line_count(p, q, k)
                if n_ops != n_lat:
                    return False, f"p={pp} k={k}: operator {n_ops} vs lattice {n_lat}"
        return True, "operator counts match lattice counts"

    def evans_symmetry():
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            c = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            a = evans(c, 0.3, 0.4, disc_cfg)
            b = evans(c.conjugate(), 0.3, 0.4, disc_cfg)
            worst = max(worst, abs(a.conjugate() - b))
        return worst < 1e-10, f"worst conjugation defect {worst:.2e}"

    checks = [
        ("closed form at c=0", closed_form_origin),
        ("determinant vs monodromy", oracle_agreement),
        ("slope formula", slope_formula),
        ("operator vs lattice counts", jacobi_counts),
        ("evans conjugation symmetry", evans_symmetry),
    ]
    if level == "full":
        def sharpness_small():
            for pp in ((1, 1), (1, 2), (2, 1), (1, 3)):
                p = Wavevector(*pp)
                report = euler_mod.spectrum_report(p, search, count_only=True)
                if not report.sharp:
                    return False, f"p={pp} not sharp"
            return True, "sharp for all tested p"

        def jacobi_pairing():
            worst = 0.0
            for pp in ((1, 1), (1, 2)):
                p = Wavevector(*pp)
                for k in range(1, p.p_sq):
                    if 2 * class_line_count(p, companion_basis(p), k) == 0:
                        continue
                    rep = cross_validate(p, k, M=60, cfg=search)
                    worst = max(worst, rep["max_pairing_distance"])
            return worst < 1e-4, f"worst pairing distance {worst:.2e}"

        checks.append(("sharpness at small p", sharpness_small))
        checks.append(("operator vs evans pairing", jacobi_pairing))
    return checks


def cmd_verify(args) -> int:
    failures = 0
    for name, fn in _verify_checks(args):
        try:
            ok, detail = fn()
        except EulerHillError as exc:
            ok, detail = False, str(exc)
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def _apply_settings(args) -> None:
    """Fill the unset global settings of args and build args.search.

    Precedence: a flag, then the EULERHILL_DEFAULTS file, then the
    library default.  A file value must have its flag's type.  Raises
    ValueError naming the setting for an unknown key, a wrongly typed
    value or one out of range; the library configs check their own
    ranges.
    """
    path = os.environ.get(DEFAULTS_ENV)
    if path:
        try:
            with open(path) as fh:
                found = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read {DEFAULTS_ENV} file {path}: {exc}") from exc
        if not isinstance(found, dict):
            raise ValueError(f"{DEFAULTS_ENV} file {path} must hold a JSON object")
        unknown = sorted(set(found) - set(SETTINGS))
        if unknown:
            raise ValueError(f"unknown keys {', '.join(unknown)} in {DEFAULTS_ENV} file "
                             f"{path}; valid keys are {', '.join(SETTINGS)}")
        for key, value in found.items():
            kind = SETTINGS[key]
            if value is None:  # null leaves the setting unset
                continue
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r} "
                                 f"in {DEFAULTS_ENV} file {path}")
            if getattr(args, key) is None:
                setattr(args, key, kind(value))
    if args.fmt is None:
        args.fmt = "csv"
    if args.fmt not in FORMATS:
        raise ValueError(f"fmt must be one of {', '.join(FORMATS)}, got {args.fmt!r}")
    if args.integrator_tol is not None and not args.integrator_tol > 0.0:
        raise ValueError(f"integrator_tol must be positive, got {args.integrator_tol}")

    def given(*keys):
        return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}

    args.search = RootSearchConfig(disc=DiscriminantConfig(**given("half_width")),
                                   **given("c_max", "eps_cut", "root_tol"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerhill",
        description="Point spectrum of the linearised flow about a "
                    "cosine shear on the torus",
    )
    for key, kind in SETTINGS.items():
        flag = "--format" if key == "fmt" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=kind, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("discriminant", help="Delta(mu) on a real mu grid")
    s.add_argument("--c", type=parse_complex, required=True)
    s.add_argument("--mu-min", type=float, default=-6.0)
    s.add_argument("--mu-max", type=float, default=2.0)
    s.add_argument("--points", type=int, default=400)
    s.set_defaults(fn=cmd_discriminant)

    s = sub.add_parser("contour-c", help="Delta(d^2; c) on a complex-c grid")
    s.add_argument("--d", type=float, required=True)
    s.add_argument("--re-min", type=float, default=-1.5)
    s.add_argument("--re-max", type=float, default=1.5)
    s.add_argument("--im-min", type=float, default=0.01)
    s.add_argument("--im-max", type=float, default=1.5)
    s.add_argument("--points-re", type=int, default=60)
    s.add_argument("--points-im", type=int, default=40)
    s.set_defaults(fn=cmd_contour_c)

    s = sub.add_parser("contour-mu", help="Delta(mu; c) on a complex-mu grid")
    s.add_argument("--c", type=parse_complex, required=True)
    s.add_argument("--re-min", type=float, default=-1.0)
    s.add_argument("--re-max", type=float, default=1.5)
    s.add_argument("--im-min", type=float, default=-1.0)
    s.add_argument("--im-max", type=float, default=1.0)
    s.add_argument("--points-re", type=int, default=60)
    s.add_argument("--points-im", type=int, default=40)
    s.set_defaults(fn=cmd_contour_mu)

    s = sub.add_parser("circles", help="exact region map over the fundamental domain")
    s.add_argument("--denominator", type=int, default=24)
    s.set_defaults(fn=cmd_circles)

    s = sub.add_parser("evans-roots", help="root set of one class")
    s.add_argument("--theta", type=float, required=True)
    s.add_argument("--d", type=float, required=True)
    s.set_defaults(fn=cmd_evans_roots)

    s = sub.add_parser("spectrum", help="full spectrum report for a wavevector")
    s.add_argument("--p", type=parse_pair, required=True)
    s.add_argument("--count-only", action="store_true")
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("verify", help="cross-check the independent oracles")
    s.add_argument("--level", choices=("quick", "full"), default="quick")
    s.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        _apply_settings(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.fn(args)
    except EulerHillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
