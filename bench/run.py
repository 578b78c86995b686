"""eulerhill benchmark: one seeded workload, checked, with metrics on the last line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload count_sweep --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the same
units twice, untraced and then traced, and reports the per-layer
metrics.  The full record (environment, generated inputs, failures,
metrics, spans) goes to .bench_results/<workload>-seed<n>-trace<t>.json.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import eulerhill\n"
    "eulerhill.discriminant(eulerhill.s_of_c(0.5 + 0.7j), 0.25)\n"
)


def cap_blas_threads(nproc: int) -> dict:
    """Cap BLAS threads at nproc (never below), before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or int(cur) > nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def environment(nproc: int, blas_threads: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def measure_setup() -> list:
    """Wall seconds of fresh interpreters importing eulerhill and evaluating once.

    Wall seconds, not reference seconds (see pace.py): the set-up is
    mostly imports and page faults, which the reference loop does not
    track, and in a child process, which its timer cannot sample.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("count_sweep", "root_refine", "oracle_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run as the traced process of a --trace 1 run, writing to this path
    parser.add_argument("--traced-child", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def traced_child(workload, out_path: str, scratch: str) -> int:
    """Traced process: run each unit read from stdin, answer one line per unit.

    It starts from a fresh interpreter, so no state left by the untraced
    units (caches included) reaches the traced ones.
    """
    from spans import SpanRecorder, layer_metrics
    from workloads import Api, Tally, digest, module_targets, traced_api

    api = Api()
    api.discriminant(api.s_of_c(0.5 + 0.7j), 0.25)
    recorder = SpanRecorder()
    tally = Tally()
    with recorder.patched(module_targets()):
        traced = traced_api(recorder, api)
        for index, line in enumerate(sys.stdin):
            with recorder.span("bench", "unit"):
                workload.run_unit(index, json.loads(line), traced, tally, scratch)
            print(index, flush=True)
    record = {
        "wall_run_s": tally.wall_run_s,
        "attempted": tally.attempted,
        "failures": list(tally.failures.values()),
        "report_sha256": {"_".join(map(str, k)): digest(v) for k, v in tally.reports.items()},
        "metrics": layer_metrics(recorder.spans),
        "spans": recorder.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, default=_jsonable)
    return 0


def run_traced(args, workload, api, tally, scratch):
    """Untraced units here, each followed by the same unit in a traced process.

    Alternating unit by unit exposes both runs to the same machine load,
    so the difference of their run_s is the tracing overhead.
    """
    from generate import UNIT_STREAMS
    from workloads import run_pass

    out_path = os.path.join(scratch, "traced.json")
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--traced-child", out_path]
    child = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    def replay(index, unit):
        child.stdin.write(json.dumps(unit) + "\n")
        child.stdin.flush()
        if child.stdout.readline().strip() != str(index):
            raise RuntimeError("traced process stopped")

    try:
        units = run_pass(workload, UNIT_STREAMS[args.workload](args.seed), api, tally, scratch,
                         seconds=args.seconds, after=replay)
        child.stdin.close()
        if child.wait(timeout=120) != 0:
            raise RuntimeError(f"traced process exited with {child.returncode}")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    with open(out_path) as fh:
        return units, json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eulerhill" / "__init__.py").is_file():
        print(f"error: no eulerhill package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))

    import eulerhill

    if Path(eulerhill.__file__).resolve().parent != SRC / "eulerhill":
        print(f"error: imported eulerhill from {eulerhill.__file__}", file=sys.stderr)
        return 2

    from generate import UNIT_STREAMS
    from workloads import ACCURACY_PROBES, WORKLOADS, Api, Tally, digest, run_pass

    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=RESULTS)
    try:
        if args.traced_child:
            return traced_child(workload, args.traced_child, scratch)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(nproc, blas_threads)}
        metrics = {}
        api = Api()
        api.discriminant(api.s_of_c(0.5 + 0.7j), 0.25)  # lazy set-up outside the timed ops
        tally = Tally()
        if args.trace == 0:
            setup = measure_setup()
            record["setup_samples_s"] = setup
            metrics["setup_s"] = statistics.median(setup)
            with tally.clock.sampling():
                units = run_pass(workload, UNIT_STREAMS[args.workload](args.seed), api, tally,
                                 scratch, seconds=args.seconds)
            for name, probe in ACCURACY_PROBES.items():
                metrics[name] = tally.worst[name] if name in tally.worst else probe(api)
            metrics["run_s"] = tally.run_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            units, traced = run_traced(args, workload, api, tally, scratch)
            for failure in traced["failures"]:
                tally.fail(tuple(failure["op"]), **failure)
            for key, data in tally.reports.items():
                if traced["report_sha256"].get("_".join(map(str, key))) != digest(data):
                    index, p1, p2 = key
                    for k in range(1, p1 * p1 + p2 * p2):
                        tally.fail((index, p1, p2, k), p=[p1, p2],
                                   error="count-only JSON differs between two runs of the set")
            metrics = traced["metrics"]
            metrics["trace.overhead_frac"] = (traced["wall_run_s"] - tally.wall_run_s) / tally.wall_run_s
            metrics["failed_frac"] = tally.failed / tally.attempted
            record["traced_wall_run_s"] = traced["wall_run_s"]
            record["spans"] = traced["spans"]
        record["inputs"] = units
        record["report_sha256"] = {"_".join(map(str, k)): digest(v)
                                   for k, v in tally.reports.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["untraced_run_s"] = tally.run_s
    record["untraced_wall_run_s"] = tally.wall_run_s
    record["calls"] = [[ops, wall, wall * tally.clock.scale(t0, t1)]  # ops, wall s, reference s
                       for ops, t0, t1, wall in tally.calls]
    record["reference_samples_s"] = tally.clock.samples
    record["worst"] = tally.worst
    record["failures"] = list(tally.failures.values())
    record["failed_frac"] = tally.failed / tally.attempted
    unit_of = metric_units()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = result
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, default=_jsonable)
    print(json.dumps(result))
    return 0


def metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
