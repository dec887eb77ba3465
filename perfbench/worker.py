"""One benchmark process: set up, then run one workload as a closed loop.

Started by run.py in a fresh interpreter with PYTHONPATH set to the
checkout's src/.  It writes to stdout only its protocol: the line
"ready <perf_counter>" once set-up is done, then, unless --setup-only, one
JSON line with the run's results.  time.perf_counter is CLOCK_MONOTONIC on
Linux, so run.py can subtract its own reading taken before the start.

Set-up is `import adspet.cli`, generating the inputs, and one untimed
warm-up op.  The timed loop then calls `adspet.cli.main(argv)` in-process,
one op after another, until --seconds have passed.  With --trace 1 the
first half of that time runs untraced and the second half traced, and the
small-amplitude probe of `bound` and `identity` runs after it, untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_FAILURES_LISTED = 50


class Runner:
    """Runs ops through `cli.main` and judges each with the oracle."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.out_path = str(workdir / "out.json")
        self.sink = io.StringIO()

    def run(self, op: workloads.Op) -> dict:
        argv = [*op.argv, "--out", self.out_path, "--quiet"]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        self.sink.seek(0)
        self.sink.truncate()
        error = None
        start = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, error = None, repr(exc)
        seconds = perf_counter() - start
        report = None
        try:
            if os.path.exists(self.out_path):
                with open(self.out_path) as fh:
                    report = json.load(fh)
            verdict = workloads.check(op, rc, report)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdict = workloads.Verdict(False, reason=f"malformed report: {exc!r}")
        record = {"seconds": seconds, "ok": verdict.ok, "rel_err": verdict.rel_err}
        if not verdict.ok:
            record["failure"] = {**op.describe(), "reason": error or verdict.reason,
                                 "stderr": self.sink.getvalue().strip()[-200:]}
        return record


def closed_loop(runner: Runner, ops, first: int, seconds: float, on_op=None):
    """Run ops[first:] (cycling) one after another for `seconds`."""
    records = []
    i = first
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        if on_op:
            on_op(i)
        records.append(runner.run(ops[i % len(ops)]))
        i += 1
    return records, i


def tail_latency(durations):
    """Highest percentile with at least ten ops beyond it; None below 20 ops."""
    n = len(durations)
    if n < 20:
        return None
    ordered = sorted(durations)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return {"percentile": p, "value": ordered[math.ceil(p * n / 100) - 1]}
    return None


def summarize(records) -> dict:
    durations = [r["seconds"] for r in records]
    passed = [r for r in records if r["ok"]]
    failures = [r["failure"] for r in records if not r["ok"]]
    rel_errs = [r["rel_err"] for r in passed if r["rel_err"] is not None]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "timed_s": sum(durations),
        "ops_per_s": len(passed) / sum(durations),
        "latency_p50_s": statistics.median(durations),
        "latency_tail_s": tail_latency(durations),
        "error_rate": len(failures) / len(records),
        "max_rel_err": max(rel_errs) if rel_errs else None,
        "failures": failures[:MAX_FAILURES_LISTED],
    }


def _openblas_threads():
    """(library, threads) of each OpenBLAS loaded in this process."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found.append({"library": os.path.basename(path), "threads": fn()})
                break
    return found


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout

    import adspet.cli as cli

    src = ROOT / "src"
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"adspet imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True)
    try:
        ops = workloads.generate(args.workload, args.seed, str(args.workdir))
        probe = (workloads.probe_ops(args.workload, args.seed)
                 if args.workload in workloads.PROBED else [])
        runner = Runner(cli, args.workdir)
        with contextlib.redirect_stdout(runner.sink), contextlib.redirect_stderr(runner.sink):
            runner.run(ops[0])
            print(f"ready {perf_counter()!r}", file=out, flush=True)
            if args.setup_only:
                return 0
            if not args.trace:
                records, _ = closed_loop(runner, ops, 1, args.seconds)
                result = summarize(records)
            else:
                result = traced_run(runner, ops, probe, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["machine"] = machine()
        print(json.dumps(result), file=out, flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def traced_run(runner: Runner, ops, probe, seconds: float) -> dict:
    """Untraced then traced halves of the closed loop, then the untimed
    small-amplitude probe."""
    untraced, next_op = closed_loop(runner, ops, 1, seconds / 2)
    tracer = Tracer(workloads.BASE_NODES)

    def start_op(i):
        tracer.op_id = i

    with tracer.installed():
        traced, _ = closed_loop(runner, ops, next_op, seconds / 2, on_op=start_op)
    wall = sum(r["seconds"] for r in traced)
    layers = tracer.layer_metrics(len(traced), wall)
    untraced_rate = len(untraced) / sum(r["seconds"] for r in untraced)
    traced_rate = len(traced) / wall
    layers["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    layers["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    layers["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    probed = [runner.run(op) for op in probe]
    probe_failures = [r["failure"] for r in probed if not r["ok"]]
    layers["probe.small_amplitude.failed"] = (len(probe_failures), "count")
    result = summarize(untraced + traced)
    result["probe"] = {"attempted": len(probed), "failed": len(probe_failures),
                       "failures": probe_failures}
    result["layers"] = layers
    result["self_time_over_wall"] = tracer.self_time_total() / wall
    return result


if __name__ == "__main__":
    raise SystemExit(main())
