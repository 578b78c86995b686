"""Tests of the benchmark's own machinery (not part of the package suite).

Run from the repository root:  python3 -m pytest -q bench
"""

import itertools
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from eulerhill.errors import ConvergenceError
from eulerhill.lattice import Wavevector, class_line_count, companion_basis

import pace
from generate import CIRCLE_MARGIN, MIN_CUT_DISTANCE, UNIT_STREAMS
from spans import SpanRecorder, layer_metrics, self_times
from workloads import WORKLOADS, Api, Tally, run_pass


def _span(layer, name, parent, start, end, tag=None):
    return [layer, name, parent, start, end, tag]


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span("bench", "pass", -1, 0.0, 10.0),
        _span("cli", "main", 0, 1.0, 6.0),
        _span("euler", "spectrum_report", 1, 2.0, 5.0),
        _span("evans", "count_roots", 2, 2.5, 4.5),
        _span("lattice", "class_point", 0, 5.5, 7.0),  # overlaps its sibling by 0.5
        _span("lattice", "class_point", 0, 8.0, 8.0),  # empty
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.0, 1.5, 0.0])


def test_self_times_sum_to_the_root_duration():
    rec = SpanRecorder(clock=iter(range(100)).__next__)
    leaf = rec.wrap("hill", "discriminant", lambda x: x)
    mid = rec.wrap("evans", "count_roots", lambda: [leaf(i) for i in range(3)])
    with rec.span("bench", "pass"):
        mid()
        leaf(0)
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == pytest.approx(root[4] - root[3])
    assert [s[2] for s in rec.spans] == [-1, 0, 1, 1, 1, 0]


def test_layer_metrics_count_repeats_and_distinct_points():
    sp = SimpleNamespace
    rec = SpanRecorder()
    disc = rec.wrap("hill", "discriminant", lambda s, mu: 0.0, tag=lambda a, k, r: a[0].c)

    def count(theta, d):
        for c in (1j, 2j, 1j):
            disc(sp(c=c), d * d)
        return 0

    count_roots = rec.wrap("evans", "count_roots", count, tag=lambda a, k, r: (abs(a[0]), a[1]))
    report = rec.wrap("euler", "spectrum_report",
                      lambda p_sq, classes: [count_roots(t, d) for t, d in classes],
                      tag=lambda a, k, r: a[0])
    with rec.span("bench", "pass"):
        report(5, [(0.4, 0.2), (-0.4, 0.2)])   # second class repeats the first
        report(10, [(0.4, 0.2)])               # same floats, other p^2: no repeat
    m = layer_metrics(rec.spans)
    assert m["evans.count_roots_calls"] == 3
    assert m["evans.evals"] == 9
    assert m["evans.evals_per_class"] == 3
    assert m["evans.repeat_class_frac"] == pytest.approx(1 / 3)
    assert m["evans.distinct_c_frac"] == pytest.approx((2 + 2) / 9)
    assert m["euler.self_s"] >= 0.0


def test_host_clock_scales_a_call_by_its_own_or_the_nearest_samples():
    clock = pace.HostClock()
    assert clock.scale(0.0, 1.0) == 1.0  # no samples: reference seconds are wall seconds
    w = pace.WINDOW
    clock.sample_times = [float(t) for t in range(3 * w)]
    clock.samples = [1.0] * w + [3.0] * w + [2.0] * w
    assert clock.scale(w, 2 * w - 1) == pytest.approx(pace.REFERENCE_S / 3.0)
    assert clock.scale(-5.0, -4.0) == pytest.approx(pace.REFERENCE_S / 1.0)  # before the first
    # a call with fewer than WINDOW samples takes the WINDOW nearest, centred on it
    assert clock.scale(2 * w - 0.5, 2 * w + 0.5) == pytest.approx(pace.REFERENCE_S / 2.5)


def test_host_clock_takes_its_samples_out_of_the_call():
    clock = pace.HostClock()
    with clock.sampling():
        t0 = time.perf_counter()
        started = clock.start()
        while time.perf_counter() - t0 < 4 * pace.PERIOD_S:
            pass
        start, end, wall = clock.stop(started)
        elapsed = time.perf_counter() - t0
    assert len(clock.samples) >= 2
    assert all(start <= t <= end for t in clock.sample_times)
    assert wall == pytest.approx(elapsed - sum(clock.samples), abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", sorted(UNIT_STREAMS))
def test_generator_is_a_function_of_the_seed(workload):
    def first(seed):
        return json.dumps(list(itertools.islice(UNIT_STREAMS[workload](seed), 8)))

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_generated_inputs_are_valid():
    for unit in itertools.islice(UNIT_STREAMS["count_sweep"](1), 10):
        for p in (unit["base"], unit["partner"]):
            assert math.gcd(*p) == 1 and 5 <= p[0] ** 2 + p[1] ** 2 <= 25
    for unit in itertools.islice(UNIT_STREAMS["root_refine"](1), 40):
        if unit["kind"] == "draw" and not unit["off_axis"]:
            assert min(abs(math.hypot(unit["theta"] + l, unit["d"]) - 1.0)
                       for l in (-1, 0, 1)) >= CIRCLE_MARGIN
    for unit in itertools.islice(UNIT_STREAMS["oracle_check"](1), 3):
        assert unit["cut"][:2] == [[[0.9, 0.01], 0.36], [[0.95, 0.005], 0.16]]
        assert all(im >= MIN_CUT_DISTANCE for (_, im), _ in unit["cut"])
        assert 25 <= sum(x * x for x in unit["jacobi_p"]) <= 41


def _fake_oracle_api(bad_c):
    def monodromy(c, mu, tol):
        if c == bad_c:
            raise ConvergenceError(f"injected failure at c={c}")
        return SimpleNamespace(trace=1.0, steps=64)

    def jacobi(w, k, M, q):
        return np.zeros(2 * class_line_count(w, q, k))

    return Api(s_of_c=lambda c: c, discriminant=lambda sp, mu: 1.0,
               integrate_monodromy=monodromy, jacobi_spectrum=jacobi)


def test_injected_failure_is_counted_and_the_run_continues(tmp_path):
    units = list(itertools.islice(UNIT_STREAMS["oracle_check"](1), 2))
    tally = Tally()
    done = run_pass(WORKLOADS["oracle_check"], units, _fake_oracle_api(0.2j), tally,
                    str(tmp_path))
    assert done == units
    ops = sum(len(u["grid"]) + len(u["cut"]) + sum(x * x for x in u["jacobi_p"]) - 1
              for u in units)
    assert tally.attempted == ops
    assert tally.failed == 2 * 5  # c = 0.2j is one grid row of five points, in each round
    failure = next(iter(tally.failures.values()))
    assert failure["c"] == [0.0, 0.2] and "mu" in failure
    assert tally.failed / tally.attempted == pytest.approx(10 / ops)


def test_failed_cli_call_fails_every_class_of_its_wavevector(tmp_path):
    def fake_cli(argv):
        p = tuple(int(x) for x in argv[argv.index("--p") + 1].split(","))
        if p == (1, 2):
            print("error: class k=3: injected", file=sys.stderr)
            return 1
        w = Wavevector(*p)
        q = companion_basis(w)
        classes = [{"k": k, "count": 2 * class_line_count(w, q, k)} for k in range(1, w.p_sq)]
        with open(argv[argv.index("--out") + 1], "w") as fh:
            json.dump({"sharp": True, "classes": classes}, fh)
        return 0

    tally = Tally()
    run_pass(WORKLOADS["count_sweep"], [{"base": [1, 2], "partner": [2, 1]}],
             Api(cli_main=fake_cli), tally, str(tmp_path))
    assert tally.attempted == 8
    assert tally.failed == 4
    assert all("k=3: injected" in f["error"] for f in tally.failures.values())
    assert os.listdir(tmp_path) == []
