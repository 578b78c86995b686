"""Command-line interface: figure data, determinism, verification."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eulerhill
from eulerhill import DiscriminantConfig, discriminant, s_of_c
from eulerhill.cli import SETTINGS, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_discriminant_fig_real_c(capsys):
    code, out = run_cli(
        ["discriminant", "--c", "2", "--mu-min", "-6", "--mu-max", "2", "--points", "400"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,re_delta,im_delta"
    assert len(lines) == 401
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    for mu, re, im in rows:
        assert abs(im) < 1e-9
        if abs(re) <= 2.0:  # spectrum band
            assert mu < 0.0


def test_discriminant_zero_slope_case(capsys):
    c = repr(1 / math.sqrt(2)) + "j"
    code, out = run_cli(
        ["discriminant", "--c", c, "--mu-min", "0", "--mu-max", "0.001", "--points", "2"],
        capsys,
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    d0 = float(rows[0][1])
    dh = float(rows[1][1])
    assert abs(dh - d0) < 1e-4  # O(h^2) at h = 1e-3


def test_discriminant_imaginary_c_dips(capsys):
    code, out = run_cli(
        ["discriminant", "--c", "0.2j", "--mu-min", "0.01", "--mu-max", "0.95",
         "--points", "60"],
        capsys,
    )
    assert code == 0
    vals = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
    assert min(vals) < 2.0


@pytest.mark.parametrize("command", ["discriminant", "contour-mu"])
@pytest.mark.parametrize("c", ["0.5", "1"])
def test_c_on_the_cut_is_a_usage_error(command, c, capsys):
    code = main([command, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: c = ")


def test_determinism_byte_identical(capsys):
    args = ["discriminant", "--c", "0.1+0.2j", "--mu-min", "-1", "--mu-max", "1",
            "--points", "37"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_contour_c_grid(capsys):
    code, out = run_cli(
        ["contour-c", "--d", "0.5", "--re-min", "-0.8", "--re-max", "0.8",
         "--im-min", "0.05", "--im-max", "0.8", "--points-re", "9",
         "--points-im", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_c,im_c,re_delta,im_delta,im_zero_flag"
    assert len(lines) == 1 + 9 * 7
    flags = [int(ln.split(",")[4]) for ln in lines[1:]]
    assert any(flags)  # the Im Delta = 0 locus crosses this window


def test_contour_mu_grid(capsys):
    code, out = run_cli(
        ["contour-mu", "--c", "0.1+0.2j", "--re-min", "-0.5", "--re-max", "1.0",
         "--im-min", "-0.5", "--im-max", "0.5", "--points-re", "8",
         "--points-im", "6"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 8 * 6


def test_circles_exact_region_map(capsys):
    code, out = run_cli(["circles", "--denominator", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    table = {}
    for ln in lines[1:]:
        th, d, tag = ln.split(",")
        table[(float(th), float(d))] = tag
    assert table[(0.25, 0.0)] == "corner"  # the d = 0 row is degenerate
    assert table[(0.0, 1.0)] == "boundary_0_I"
    assert table[(0.5, 0.875)] == "0"
    assert table[(0.375, 0.5)] == "II"
    assert table[(0.125, 0.5)] == "I"
    assert table[(0.375, 0.875)] == "I"


def test_evans_roots_json(capsys):
    code, out = run_cli(
        ["--format", "json", "evans-roots", "--theta", "0.1", "--d", "0.6"], capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["region_predicted"] == "I"
    assert len(payload["roots"]) == 2
    for r in payload["roots"]:
        assert r["re"] == 0.0


def test_evans_roots_wrong_count_exits_1(capsys):
    # region II predicts 4 roots; the count at the default eps_cut is 2
    code = main(["evans-roots", "--theta", "0.1329", "--d", "0.4975"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("theta, d, name", [
    ("0.3", "-0.5", "d"), ("0.3", "nan", "d"), ("0.3", "inf", "d"),
    ("nan", "0.5", "theta"), ("inf", "0.5", "theta"),
])
def test_evans_roots_bad_class_data_is_a_usage_error(theta, d, name, capsys):
    code = main(["evans-roots", "--theta", theta, "--d", d])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("argv, code, err", [
    (["evans-roots", "--theta", "-1e-3", "--d", "0.6"], 0, ""),
    (["discriminant", "--c", "-0.5+0.1j", "--mu-min", "-1e-3", "--mu-max", "1e-3",
      "--points", "2"], 0, ""),
    (["contour-c", "--d", "0.5", "--re-min", "-1.5e0", "--re-max", "-.5", "--points-re", "2",
      "--points-im", "2"], 0, ""),
    (["spectrum", "--p", "-1,2", "--count-only"], 0, ""),
    (["evans-roots", "--theta", "-inf", "--d", "0.6"], 2, "error: theta must be finite"),
    (["--eps-cut", "-inf", "spectrum", "--p", "1,2", "--count-only"], 2,
     "error: eps_cut must lie"),
], ids=["theta-exponent", "complex-c", "re-min", "pair", "theta-inf", "global-eps-cut"])
def test_negative_flag_values_are_values(argv, code, err, capsys):
    # argparse takes a token such as -1e-3, -inf, -0.5+0.1j or -1,2 for a flag
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == (1 if err else 0)
    assert (captured.out != "") == (code == 0)


def test_spectrum_json(capsys):
    code, out = run_cli(
        ["--format", "json", "spectrum", "--p", "1,2", "--count-only"], capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total_count"] == 24
    assert payload["sharp"] is True


def test_spectrum_csv(capsys):
    code, out = run_cli(["spectrum", "--p", "1,2", "--count-only"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,theta_num")
    assert lines[-1].startswith("# lattice_count=12")


def test_verify_quick(capsys):
    code, out = run_cli(["verify", "--level", "quick"], capsys)
    assert code == 0
    assert "[ok]" in out
    assert "[FAIL]" not in out


def test_closed_pipe_exits_1_without_traceback():
    # unbuffered, so the line after the first meets the closed pipe in print
    env = dict(os.environ, PYTHONPATH=str(Path(eulerhill.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-u", "-m", "eulerhill.cli", "verify"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"[ok]")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err, err.decode()


def test_usage_error_exit_code():
    # the count needs no search box, so --c-max is no flag; a --p that is
    # not coprime is refused by argparse, like one that is not a pair
    for argv in (["spectrum", "--p", "not-a-pair"], ["--c-max", "2", "spectrum", "--p", "1,2"],
                 ["--c-max=2", "spectrum", "--p", "1,2"], ["spectrum", "--p", "2,4"],
                 ["spectrum", "--p", "0,0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["discriminant", "--c", "nan"],
    ["discriminant", "--c", "2", "--mu-min", "nan"],
    ["discriminant", "--c", "2", "--mu-max", "inf"],
    ["contour-c", "--d", "inf"],
    ["contour-c", "--d", "0.5", "--im-min", "nan"],
    ["contour-c", "--d", "0.5", "--re-min", "-inf"],
    ["contour-mu", "--c", "0.5+0.5j", "--re-min", "inf"],
    ["contour-mu", "--c", "0.5+1e400j"],
], ids=["c-nan", "mu-min-nan", "mu-max-inf", "d-inf", "im-min-nan", "re-min-neg-inf",
        "mu-re-min-inf", "c-overflow"])
def test_non_finite_flag_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a finite number" in captured.err


@pytest.mark.parametrize("argv", [
    ["circles", "--denominator", "0"],
    ["circles", "--denominator", "-3"],
    ["discriminant", "--c", "2", "--points", "-1"],
    ["contour-c", "--d", "0.5", "--points-re", "-2"],
    ["contour-mu", "--c", "2", "--points-im", "0"],
], ids=["denominator-0", "denominator-neg", "points-neg", "points-re-neg", "points-im-0"])
def test_non_positive_grid_size_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a positive integer" in captured.err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "data.csv"
    code, _ = run_cli(
        ["--out", str(target), "discriminant", "--c", "2", "--points", "5"], capsys,
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("mu,re_delta,im_delta")


@pytest.mark.parametrize("target, reason", [
    (Path("missing") / "x.csv", "No such file or directory"),
    (Path("."), "Is a directory"),
], ids=["missing-dir", "a-directory"])
def test_unwritable_output_file_is_a_usage_error(target, reason, tmp_path, capsys):
    out = tmp_path / target
    before = sorted(tmp_path.rglob("*"))
    code = main(["--out", str(out), "circles", "--denominator", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write out file: ")
    assert reason in captured.err and str(out) in captured.err
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


def test_defaults_file_via_env(tmp_path, capsys, monkeypatch):
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps({"fmt": "json", "out": None}))  # null: unset
    monkeypatch.setenv("EULERHILL_DEFAULTS", str(defaults))
    code, out = run_cli(["evans-roots", "--theta", "0.1", "--d", "0.6"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 2  # json because the defaults file said so


def test_defaults_file_unknown_keys_exit_2(tmp_path, capsys, monkeypatch):
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps({"half_widht": 4, "tail_cutoff": 100}))
    monkeypatch.setenv("EULERHILL_DEFAULTS", str(defaults))
    code = main(["evans-roots", "--theta", "0.1", "--d", "0.6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "half_widht" in captured.err and "tail_cutoff" in captured.err
    assert "half_width" in captured.err  # the valid keys are listed


# root_tol and integrator_tol are constants of the library, not settings,
# so their flags are unknown flags and their file keys unknown keys
@pytest.mark.parametrize("flags, file_values, name", [
    (["--half-width", "0"], None, "half_width"),
    (["--root-tol=inf"], None, "root_tol"),
    (["--eps-cut", "5"], None, "eps_cut"),
    (["--integrator-tol", "-1"], None, "integrator_tol"),
    ([], {"half_width": "8"}, "half_width"),
    ([], {"half_width": 8.5}, "half_width"),
    ([], {"c_max": 2.0}, "c_max"),  # no setting: the count needs no search box
    ([], {"fmt": "xml"}, "fmt"),
    ([], {"normalize": True}, "normalize"),
    ([], "{not json", "EULERHILL_DEFAULTS"),
    (["--integrator-tol=inf"], None, "integrator_tol"),
    (["--half-width", "401"], None, "half_width"),  # above the evaluator's cap
    ([], {"root_tol": 1e-10}, "root_tol"),
    ([], {"integrator_tol": 1e-9}, "integrator_tol"),
    (["--eps-cut", "1"], None, "eps_cut"),  # no root lies above Im c = 1
])
def test_bad_settings_exit_2(flags, file_values, name, tmp_path, capsys, monkeypatch):
    if file_values is not None:
        defaults = tmp_path / "defaults.json"
        text = file_values if isinstance(file_values, str) else json.dumps(file_values)
        defaults.write_text(text)
        monkeypatch.setenv("EULERHILL_DEFAULTS", str(defaults))
    if flags and name not in SETTINGS:  # no such flag: argparse prints its usage and exits
        with pytest.raises(SystemExit) as exc:
            main(flags + ["verify"])
        code, captured = exc.value.code, capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith(
            "eulerhill: error: unrecognized arguments: --" + name.replace("_", "-"))
    else:
        code = main(flags + ["verify"])
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and name in captured.err
    assert code == 2
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["evans-roots", "--theta", "0.3", "--d", "1e200"],  # d^2 overflows
    ["discriminant", "--c", "2", "--mu-max", "1e300", "--points", "2"],
])
def test_lambda_past_the_half_width_cap_is_a_usage_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: c = .*, mu = .*: Lambda = .* needs a half-width of \S+, "
                        r"above the cap 400\n", captured.err)


def test_settings_precedence(tmp_path, capsys, monkeypatch):
    args = ["discriminant", "--c", "0.1+0.2j", "--mu-min", "0.3", "--mu-max", "0.3",
            "--points", "1"]

    def delta(*flags):
        code, out = run_cli(list(flags) + args, capsys)
        assert code == 0
        return complex(*map(float, out.splitlines()[1].split(",")[1:]))

    def ref(n):
        return discriminant(s_of_c(0.1 + 0.2j), 0.3, DiscriminantConfig(half_width=n))

    assert len({ref(n) for n in (12, 14, 16)}) == 3  # the half-width shows in Delta
    assert delta() == ref(16)  # library default
    defaults = tmp_path / "defaults.json"
    defaults.write_text(json.dumps({"half_width": 12}))
    monkeypatch.setenv("EULERHILL_DEFAULTS", str(defaults))
    assert delta() == ref(12)  # defaults file beats library default
    assert delta("--half-width", "14") == ref(14)  # flag beats defaults file
