"""Command-line front end: figure data, spectrum reports, verification.

All numeric output uses 17 significant digits and canonical ordering so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import checks
from . import euler as euler_mod
from .conformal import s_of_c
from .errors import BranchCutError, CoprimalityError, EulerHillError, SingularPotentialError
from .evans import RootSearchConfig, find_roots
from .hill import DiscriminantConfig, discriminant, discriminant_batch
from .lattice import Wavevector, classify_rational

DEFAULTS_ENV = "EULERHILL_DEFAULTS"

#: global settings by defaults-file key, with their types; each key is
#: also a flag (--half-width for half_width), except --format for fmt
SETTINGS = {"half_width": int, "eps_cut": float, "out": str, "fmt": str}

FORMATS = ("csv", "json")

#: a flag value that argparse would take for a flag: -1e-3, -inf, -0.5+0.1j, -4,5
NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def fmt_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return z


def finite_float(text: str) -> float:
    x = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return x


def positive_int(text: str) -> int:
    n = int(text)  # argparse reports a ValueError as an invalid value
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def parse_pair(text: str) -> Wavevector:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a pair P1,P2")
    try:
        return Wavevector(int(parts[0]), int(parts[1]))
    except CoprimalityError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write(args, lines):
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a usage error, though found after the computation
            raise ValueError(f"cannot write out file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _s_of_flag_c(c: complex):
    """s(c) for a --c flag; c on the cut raises ValueError, a usage error."""
    try:
        return s_of_c(c)
    except (BranchCutError, SingularPotentialError) as exc:
        raise ValueError(str(exc)) from exc


def cmd_discriminant(args) -> int:
    sp = _s_of_flag_c(args.c)
    rows = ["mu,re_delta,im_delta"]
    for mu in np.linspace(args.mu_min, args.mu_max, args.points):
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
    sp = _s_of_flag_c(args.c)
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
    report = euler_mod.spectrum_report(args.p, args.search, count_only=args.count_only)
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


def cmd_verify(args) -> int:
    failures = 0
    for check in checks.CHECKS:
        if args.level not in check.inputs:
            continue
        try:
            ok, detail = check.run(args.level, args.search)
        except EulerHillError as exc:
            ok, detail = False, str(exc)
        print(f"[{'ok' if ok else 'FAIL'}] {check.name}: {detail}")
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

    def given(*keys):
        return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}

    args.search = RootSearchConfig(disc=DiscriminantConfig(**given("half_width")),
                                   **given("eps_cut"))


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
    s.add_argument("--mu-min", type=finite_float, default=-6.0)
    s.add_argument("--mu-max", type=finite_float, default=2.0)
    s.add_argument("--points", type=positive_int, default=400)
    s.set_defaults(fn=cmd_discriminant)

    s = sub.add_parser("contour-c", help="Delta(d^2; c) on a complex-c grid")
    s.add_argument("--d", type=finite_float, required=True)
    s.add_argument("--re-min", type=finite_float, default=-1.5)
    s.add_argument("--re-max", type=finite_float, default=1.5)
    s.add_argument("--im-min", type=finite_float, default=0.01)
    s.add_argument("--im-max", type=finite_float, default=1.5)
    s.add_argument("--points-re", type=positive_int, default=60)
    s.add_argument("--points-im", type=positive_int, default=40)
    s.set_defaults(fn=cmd_contour_c)

    s = sub.add_parser("contour-mu", help="Delta(mu; c) on a complex-mu grid")
    s.add_argument("--c", type=parse_complex, required=True)
    s.add_argument("--re-min", type=finite_float, default=-1.0)
    s.add_argument("--re-max", type=finite_float, default=1.5)
    s.add_argument("--im-min", type=finite_float, default=-1.0)
    s.add_argument("--im-max", type=finite_float, default=1.0)
    s.add_argument("--points-re", type=positive_int, default=60)
    s.add_argument("--points-im", type=positive_int, default=40)
    s.set_defaults(fn=cmd_contour_mu)

    s = sub.add_parser("circles", help="exact region map over the fundamental domain")
    s.add_argument("--denominator", type=positive_int, default=24)
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
    s.add_argument("--level", choices=checks.LEVELS, default="quick")
    s.set_defaults(fn=cmd_verify)

    return parser


def _attach_negative_values(argv):
    """argv with each negative value joined to its flag as --flag=value.

    argparse reads only -digits[.digits] as a negative number; any other
    token that starts with '-', such as -1e-3, -inf or -0.5+0.1j, it takes
    for a flag, and the flag before it then lacks its value.
    """
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and NEGATIVE_VALUE.match(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))

    try:
        _apply_settings(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # a setting, class data or Lambda out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except EulerHillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
