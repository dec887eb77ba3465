"""Benchmark of the adspet CLI paths `bound`, `identity`, `sample-psd` and
`qmatrix`.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload bound --seed 1 --seconds 20 --trace 0

Every process runs in a fresh interpreter with PYTHONPATH=src, so the code
measured is the checkout's own.  With --trace 0 it sets up SETUPS times,
each in a new process: the last of them then runs the timed loop.  With
--trace 1 one process sets up once, then runs untraced and traced halves.

Stdout: a JSON report with every metric, the failed ops and the machine,
then, as the last line, the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 2 without a result if the checkout has no src/adspet.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# A worker still running this long after its share of the run is stopped.
SLACK_S = 60.0

# The result line's metrics with --trace 0.  The report line's other metrics
# are printed but not gated, because they are 0 or absent on some workloads.
GATED = ("setup_s", "ops_per_s", "latency_p50_s", "peak_rss_mb")


def run_worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Run one worker process; return (setup seconds, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except BaseException:  # the deadline, or run.py itself being stopped
        proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if not ready:
        raise SystemExit("worker never finished set-up")
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return ready[0] - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "adspet" / "cli.py").is_file():
        print(f"no adspet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    setups = []
    count = 1 if args.trace else SETUPS
    deadline = perf_counter() + SLACK_S * (count + 1) + 2 * args.seconds
    for n in range(count):
        setup_s, result = run_worker(args, work / f"{os.getpid()}-{n}", n < count - 1,
                                     deadline)
        setups.append(setup_s)
    with contextlib.suppress(OSError):  # other runs may still use it
        work.rmdir()
    if result is None:
        print("worker printed no result", file=sys.stderr)
        return 1

    correct = result["failed"] == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": result["machine"],
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s",
                        "samples": setups},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "op/s"},
            "latency_p50_s": {"value": result["latency_p50_s"], "unit": "s"},
            "latency_tail_s": (None if result["latency_tail_s"] is None else
                               {**result["latency_tail_s"], "unit": "s"}),
            "error_rate": {"value": result["error_rate"], "unit": "ratio"},
            "max_rel_err": {"value": result["max_rel_err"], "unit": "ratio"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        },
        "attempted": result["attempted"], "failed": result["failed"],
        "timed_s": result["timed_s"], "failures": result["failures"],
    }
    if args.trace:
        report["self_time_over_wall"] = result["self_time_over_wall"]
        report["probe"] = result["probe"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {name: {key: report["metrics"][name][key] for key in ("value", "unit")}
                   for name in GATED}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
