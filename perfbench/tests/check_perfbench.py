"""Tests of the benchmark itself, kept out of the library's test suite:

    python3 -m pytest perfbench/tests/check_perfbench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer, _model_classes  # noqa: E402
from worker import Runner, summarize, tail_latency  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(workload, seed, workdir):
    ops = workloads.generate(workload, seed, str(workdir))
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return ops, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path)
    assert _inputs(workload, 7, tmp_path) == first
    assert _inputs(workload, 8, tmp_path) != first


def test_amplitudes_cover_the_range_evenly(tmp_path):
    ops = workloads.generate("bound", 3, str(tmp_path))[:128]
    amps = [op.amplitude for op in ops if op.kind == "radial_bump"]
    assert len(amps) == 32
    assert all(1e-6 <= a <= 1 for a in amps)
    assert sum(a < 1e-3 for a in amps) == 16  # the lower half of [1e-6, 1]


@pytest.mark.parametrize("workload", workloads.PROBED)
def test_probe_covers_the_amplitudes_below_the_timed_range(workload):
    ops = workloads.probe_ops(workload, 4)
    assert ops == workloads.probe_ops(workload, 4)
    assert ops != workloads.probe_ops(workload, 5)
    assert all(op.argv[0] == workload for op in ops)
    logs = sorted(math.log10(op.amplitude) for op in ops)
    assert len(logs) == 3 * len(workloads.PROBE_STRATA)
    assert -15 <= logs[0] and logs[-1] < workloads.LOG_AMP_RANGE[0]
    for k, (lo, hi) in enumerate(workloads.PROBE_STRATA):
        assert all(lo <= x < hi for x in logs[3 * k:3 * k + 3])


def test_q_matrix_matches_the_library_and_is_energy_plus_traceless():
    from adspet.charges import ChargeSet
    from adspet.qmatrix import assemble_q

    rng = np.random.default_rng(0)
    for _ in range(20):
        e0, c, cp, j = rng.standard_normal(), *np.split(rng.standard_normal(14), [4, 8])
        q = workloads.q_matrix(e0, c, cp, j)
        assert np.allclose(q, assemble_q(ChargeSet(e0=e0, c=c, cp=cp, j=j)), atol=1e-15)
        q0 = workloads.q_matrix(0.0, c, cp, j)
        assert np.allclose(q0, q0.conj().T)
        assert np.allclose(q - q0, e0 * np.eye(4))
        assert abs(np.trace(q0)) < 1e-12


def test_inputs_and_oracles_do_not_load_the_library(tmp_path):
    code = ("import sys, workloads\n"
            "for name in workloads.WORKLOADS:\n"
            "    workloads.generate(name, 1, sys.argv[1])\n"
            "assert not [m for m in sys.modules if m.startswith('adspet')]\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=BENCH, check=True,
                   timeout=60)


class FakeCli:
    """Writes a fixed `bound` report, as `adspet.cli` would with --out."""

    def __init__(self, e0):
        self.e0 = e0

    def main(self, argv):
        charges = {"e0": self.e0, "c": [0.0] * 4, "cp": [0.0] * 4,
                   "j": dict.fromkeys(("12", "13", "14", "23", "24", "34"), 0.0)}
        with open(argv[argv.index("--out") + 1], "w") as fh:
            json.dump({"charges": charges}, fh)
        return 0


def test_oracle_counts_a_zeroed_small_bump_as_failed(tmp_path):
    m = 1e-14
    op = workloads.Op(argv=("bound",), kind="radial_bump", amplitude=m)
    wrong = Runner(FakeCli(0.0), tmp_path).run(op)
    right = Runner(FakeCli(15 * 3.141592653589793 * m / 128), tmp_path).run(op)
    assert not wrong["ok"]
    assert wrong["failure"]["amplitude"] == m
    assert right["ok"]
    summary = summarize([wrong, right])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["error_rate"] == 0.5


def test_tail_latency_needs_ten_ops_beyond():
    assert tail_latency(list(range(19))) is None
    assert tail_latency(list(range(20))) == {"percentile": 50.0, "value": 9}
    assert tail_latency(list(range(1000)))["percentile"] == 99.0


def _attributes():
    import adspet.cli  # noqa: F401

    snapshot = {}
    for name, module in sys.modules.items():
        if name == "adspet" or name.startswith("adspet."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    for cls in _model_classes():
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_tracer_restores_every_attribute():
    import adspet.cli as cli

    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer(workloads.BASE_NODES).installed():
            assert cli.main is not before[("adspet.cli", "main")]
            raise RuntimeError("leave the block early")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_identity_op_accounts_for_its_wall_time(tmp_path):
    import adspet.cli as cli

    op = workloads.generate("identity", 1, str(tmp_path))[1]
    tracer = Tracer(workloads.BASE_NODES)
    tracer.op_id = 0
    with tracer.installed():
        record = Runner(cli, tmp_path).run(op)
    layers = tracer.layer_metrics(1, record["seconds"])
    assert tracer.self_time_total() == pytest.approx(record["seconds"], rel=1e-3)
    assert layers["cli.main.calls"][0] == 1
    assert layers["killing.killing_vector_frame.per_surface"][0] == 15
    assert layers["qmatrix.compute_charges_per_identity"][0] == 1
    assert layers["charges.charge_surface_values.nodes"][0] == 4 * (16**3 + 32**3)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = _run(ROOT, "qmatrix", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "bound", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
