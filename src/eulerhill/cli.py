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
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import euler as euler_mod
from .conformal import s_of_c
from .errors import BranchCutError, EulerHillError, SingularPotentialError
from .evans import RootSearchConfig, evans, find_roots
from .hill import DiscriminantConfig, discriminant, discriminant_slope_at_zero
from .jacobi import cross_validate, jacobi_spectrum
from .lattice import (
    Wavevector,
    class_line_count,
    class_point,
    classify_rational,
    companion_basis,
    lattice_points_in_disk,
)
from .monodromy import integrate_monodromy

DEFAULTS_ENV = "EULERHILL_DEFAULTS"


@dataclass
class RunConfig:
    half_width: int = 16
    integrator_tol: float = 1e-9
    root_tol: float = 1e-10
    c_max: float = 2.0
    eps_cut: float = 1e-3
    normalize: bool = False
    out: str | None = None
    fmt: str = "csv"

    def disc(self) -> DiscriminantConfig:
        return DiscriminantConfig(half_width=self.half_width)

    def search(self) -> RootSearchConfig:
        return RootSearchConfig(
            c_max=self.c_max, eps_cut=self.eps_cut, root_tol=self.root_tol,
            disc=self.disc(),
        )


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


def _write(cfg: RunConfig, lines):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_discriminant(args, cfg: RunConfig) -> int:
    mus = np.linspace(args.mu_min, args.mu_max, args.points)
    disc_cfg = cfg.disc()
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
        val = discriminant(sp, float(mu), disc_cfg)
        rows.append(f"{fmt_float(mu)},{fmt_float(val.real)},{fmt_float(val.imag)}")
    _write(cfg, rows)
    return 0


def _grid_with_flags(values):
    """Flag entries whose Im part changes sign against the next row/col."""
    im = np.imag(values)
    flag = np.zeros(values.shape, dtype=bool)
    flag[:-1, :] |= np.signbit(im[:-1, :]) != np.signbit(im[1:, :])
    flag[:, :-1] |= np.signbit(im[:, :-1]) != np.signbit(im[:, 1:])
    return flag


def cmd_contour_c(args, cfg: RunConfig) -> int:
    disc_cfg = cfg.disc()
    res = np.linspace(args.re_min, args.re_max, args.points_re)
    ims = np.linspace(args.im_min, args.im_max, args.points_im)
    mu = args.d * args.d
    vals = np.zeros((len(ims), len(res)), dtype=complex)
    ok = np.ones(vals.shape, dtype=bool)
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            try:
                vals[i, j] = discriminant(s_of_c(complex(a, b)), mu, disc_cfg)
            except (BranchCutError, SingularPotentialError):
                vals[i, j] = complex("nan")
                ok[i, j] = False
    flags = _grid_with_flags(np.where(ok, vals, 0.0))
    rows = ["re_c,im_c,re_delta,im_delta,im_zero_flag"]
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            v = vals[i, j]
            rows.append(
                f"{fmt_float(a)},{fmt_float(b)},{fmt_float(v.real)},"
                f"{fmt_float(v.imag)},{int(flags[i, j] and ok[i, j])}"
            )
    _write(cfg, rows)
    return 0


def cmd_contour_mu(args, cfg: RunConfig) -> int:
    disc_cfg = cfg.disc()
    try:
        sp = s_of_c(args.c)
    except (BranchCutError, SingularPotentialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = np.linspace(args.re_min, args.re_max, args.points_re)
    ims = np.linspace(args.im_min, args.im_max, args.points_im)
    vals = np.zeros((len(ims), len(res)), dtype=complex)
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            vals[i, j] = discriminant(sp, complex(a, b), disc_cfg)
    flags = _grid_with_flags(vals)
    rows = ["re_mu,im_mu,re_delta,im_delta,im_zero_flag"]
    for i, b in enumerate(ims):
        for j, a in enumerate(res):
            v = vals[i, j]
            rows.append(
                f"{fmt_float(a)},{fmt_float(b)},{fmt_float(v.real)},"
                f"{fmt_float(v.imag)},{int(flags[i, j])}"
            )
    _write(cfg, rows)
    return 0


def cmd_circles(args, cfg: RunConfig) -> int:
    den = args.denominator
    rows = ["theta,d,region"]
    for i in range(0, den // 2 + 1):
        for j in range(0, den + 1):
            theta = Fraction(i, den)
            d = Fraction(j, den)
            tag = classify_rational(theta, d)
            rows.append(f"{fmt_float(float(theta))},{fmt_float(float(d))},{tag.value}")
    _write(cfg, rows)
    return 0


def cmd_evans_roots(args, cfg: RunConfig) -> int:
    rs = find_roots(args.theta, args.d, cfg.search())
    if cfg.fmt == "json":
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
        _write(cfg, [json.dumps(payload, indent=2)])
    else:
        rows = ["re_c,im_c,multiplicity"]
        for c, m in rs.roots:
            rows.append(f"{fmt_float(c.real)},{fmt_float(c.imag)},{m}")
        _write(cfg, rows)
    return 0


def cmd_spectrum(args, cfg: RunConfig) -> int:
    p = Wavevector(*args.p)
    report = euler_mod.spectrum_report(p, cfg.search(), count_only=args.count_only)
    if cfg.fmt == "csv":
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
        _write(cfg, rows)
    else:
        _write(cfg, [euler_mod.report_to_json(report)])
    return 0


def _verify_checks(level: str, cfg: RunConfig):
    disc_cfg = cfg.disc()

    def closed_form_origin():
        from .conformal import Side, s_at_origin

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
            tr = integrate_monodromy(c, mu, tol=cfg.integrator_tol).trace
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
                report = euler_mod.spectrum_report(p, cfg.search(), count_only=True)
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
                    rep = cross_validate(p, k, M=60, cfg=cfg.search())
                    worst = max(worst, rep["max_pairing_distance"])
            return worst < 1e-4, f"worst pairing distance {worst:.2e}"

        checks.append(("sharpness at small p", sharpness_small))
        checks.append(("operator vs evans pairing", jacobi_pairing))
    return checks


def cmd_verify(args, cfg: RunConfig) -> int:
    failures = 0
    for name, fn in _verify_checks(args.level, cfg):
        try:
            ok, detail = fn()
        except EulerHillError as exc:
            ok, detail = False, str(exc)
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def _load_defaults() -> dict:
    path = os.environ.get(DEFAULTS_ENV)
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerhill",
        description="Point spectrum of the linearised flow about a "
                    "cosine shear on the torus",
    )
    parser.add_argument("--half-width", type=int, default=None,
                        help="determinant truncation half-width (default 16)")
    parser.add_argument("--integrator-tol", type=float, default=None)
    parser.add_argument("--root-tol", type=float, default=None)
    parser.add_argument("--c-max", type=float, default=None)
    parser.add_argument("--eps-cut", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)

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

    cfg = RunConfig()
    defaults = _load_defaults()
    valid = [f.name for f in fields(RunConfig)]
    unknown = sorted(set(defaults) - set(valid))
    if unknown:
        print(f"error: unknown keys {', '.join(unknown)} in {DEFAULTS_ENV} file "
              f"{os.environ[DEFAULTS_ENV]}; valid keys are {', '.join(valid)}",
              file=sys.stderr)
        return 2
    for key, value in defaults.items():
        setattr(cfg, key, value)
    for key in ("half_width", "integrator_tol", "root_tol",
                "c_max", "eps_cut", "out", "fmt"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)

    try:
        return args.fn(args, cfg)
    except EulerHillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
