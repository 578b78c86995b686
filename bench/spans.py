"""In-memory span recorder for the traced run, and the per-layer metrics.

The recorder wraps functions at module import boundaries: it replaces
an attribute of a module (or a field of the benchmark's own call table)
with a wrapper that records one span per call.  A span is the list
[layer, name, parent, start, end, tag]; `parent` is the index of the
enclosing span (-1 for none) and `tag` is an optional small value taken
from the call's arguments and result, such as the c of an evaluation.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

LAYER, NAME, PARENT, START, END, TAG = range(6)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, layer: str, name: str):
        """Record one span around the block; yields the span record."""
        rec = [layer, name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn, tag=None):
        """`fn` wrapped so each call records a span; `tag(args, kwargs, result)`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as rec:
                result = fn(*args, **kwargs)
            if tag is not None:
                rec[TAG] = tag(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace module attributes by traced wrappers for the block.

        `targets` holds (module, attribute, layer, tag) tuples; every
        attribute is restored on exit.
        """
        saved = []
        try:
            for module, attr, layer, tag in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(layer, attr, orig, tag))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover."""
    children: list = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[j][START], start), min(spans[j][END], end))
                             for j in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _nearest(spans, layer: str) -> list:
    """Index of the nearest ancestor-or-self span of `layer`, or -1."""
    out = []
    for i, rec in enumerate(spans):  # parents precede children
        if rec[LAYER] == layer:
            out.append(i)
        else:
            out.append(out[rec[PARENT]] if rec[PARENT] >= 0 else -1)
    return out


def _top(spans) -> list:
    """Index of the ancestor-or-self span directly below a root span."""
    out = []
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent < 0:
            out.append(-1)
        elif spans[parent][PARENT] < 0:
            out.append(i)
        else:
            out.append(out[parent])
    return out


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of a traced run.

    Layers: hill (discriminant), conformal (s_of_c), evans (count_roots,
    find_roots), lattice, euler (spectrum_report), cli (main), monodromy,
    jacobi, and bench for the root span of the benchmark's own code.
    """
    selfs = self_times(spans)
    evans_anc = _nearest(spans, "evans")
    euler_anc = _nearest(spans, "euler")
    top = _top(spans)

    def of(layer):
        return [i for i, rec in enumerate(spans) if rec[LAYER] == layer]

    def self_sum(layer):
        return sum(selfs[i] for i in of(layer))

    hill = of("hill")
    disc_us = sorted((spans[i][END] - spans[i][START]) * 1e6 for i in hill)

    evans_calls = of("evans")
    evals = [i for i in hill if evans_anc[i] >= 0]
    distinct = {}
    for i in evals:
        distinct.setdefault(top[i], set()).add(spans[i][TAG])
    seen, repeats = set(), 0
    for i in evans_calls:
        anc = euler_anc[i]
        key = (spans[i][TAG], spans[anc][TAG] if anc >= 0 else None)
        repeats += key in seen
        seen.add(key)

    mono = of("monodromy")
    mono_steps = sum(spans[i][TAG] for i in mono)
    mono_s = self_sum("monodromy")
    jac = of("jacobi")

    return {
        "hill.discriminant_calls": len(hill),
        "hill.discriminant_s": self_sum("hill"),
        "hill.discriminant_us_p50": _quantile(disc_us, 0.5),
        "hill.discriminant_us_p90": _quantile(disc_us, 0.9),
        "evans.count_roots_calls": sum(spans[i][NAME] == "count_roots" for i in evans_calls),
        "evans.find_roots_calls": sum(spans[i][NAME] == "find_roots" for i in evans_calls),
        "evans.evals": len(evals),
        "evans.evals_per_class": _ratio(len(evals), len(evans_calls)),
        "evans.distinct_c_frac": _ratio(sum(len(s) for s in distinct.values()), len(evals)),
        "evans.repeat_class_frac": _ratio(repeats, len(evans_calls)),
        "evans.self_s": self_sum("evans"),
        "monodromy.calls": len(mono),
        "monodromy.rk4_steps": mono_steps,
        "monodromy.s": mono_s,
        "monodromy.ns_per_step": _ratio(mono_s * 1e9, mono_steps),
        "jacobi.spectrum_calls": len(jac),
        "jacobi.spectrum_s": self_sum("jacobi"),
        "conformal.s_of_c_calls": len(of("conformal")),
        "conformal.s_of_c_s": self_sum("conformal"),
        "lattice.calls": len(of("lattice")),
        "lattice.s": self_sum("lattice"),
        "euler.self_s": self_sum("euler"),
        "cli.self_s": self_sum("cli"),
        "bench.self_s": self_sum("bench"),
    }
