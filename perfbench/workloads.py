"""Seeded inputs and output oracles for the benchmark workloads.

An op is one `adspet` CLI invocation: the argv it is given and what its
exit code and JSON report (`--out`) must be.  `generate` builds the op list
of a workload from a seed alone; `probe_ops` builds the small-amplitude
probe of `bound` and `identity`; `check` judges one finished op.  Nothing
here calls the library, so the inputs and the expected results do not
depend on the code under measurement.

Quadrature is fixed at 16^3 nodes, radii 4,5,6,7 and kappa = 1, which the
closed forms below assume.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bound", "identity", "sample-psd", "qmatrix")
PROBED = ("bound", "identity")

BASE_NODES = (16, 16, 16)
QUADRATURE = ("--ntheta", "16", "--npsi", "16", "--nphi", "16",
              "--radii", "4,5,6,7", "--kappa", "1")

# The four model kinds of `bound` and `identity`, each with a closed form.
KINDS = ("radial_bump", "offdiag_sin_theta", "offdiag_sin_phi", "ads_exact")
# Log10 of the amplitudes of the timed ops.  Below 1e-6 the library's
# absolute cutoffs give wrong charges and verdicts today, so those
# amplitudes go to the probe, which reports how many of its ops fail.
LOG_AMP_RANGE = (-6.0, 0.0)
# Log10 of the probe's amplitudes: one op per kind and stratum.
PROBE_STRATA = ((-15.0, -12.0), (-12.0, -9.0), (-9.0, -6.0))

REL_TOL = 1e-6       # extrapolated charge against its closed form
GAP_TOL = 1e-5       # the CLI's own boundary-identity threshold
MARGIN_TOL = 1e-9    # the CLI's own bound-margin threshold
EIG_TOL = 1e-9       # min eigenvalue of Q against its closed form, per unit E0

N_OPS = 1024         # ops generated per run; a run longer than this repeats them
SAMPLE_N = 10000     # charge sets per `sample-psd` op
N_CHARGE_FILES = 64  # distinct charge reports behind the `qmatrix` ops


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str
    amplitude: float | None = None
    expect_exit: int = 0
    # qmatrix only: the closed-form minimum eigenvalue of Q and its scale.
    min_eig: float | None = None
    e0_scale: float | None = None

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        return out


def model_config(kind: str, amp: float) -> dict:
    if kind == "ads_exact":
        return {"name": "ads_exact"}
    if kind == "radial_bump":
        return {"name": "radial_bump", "params": {"m": amp}}
    profile = kind[len("offdiag_"):]
    return {"name": "offdiag_momentum",
            "params": {"q": amp, "axis": 2, "profile": profile}}


def closed_form(kind: str, amp: float) -> tuple[str, float]:
    """The one nonzero charge of a model and its value at kappa = 1."""
    if kind == "radial_bump":
        return "e0", 15 * math.pi * amp / 128
    if kind == "offdiag_sin_theta":
        return "cp4", -3 * math.pi * amp / 256
    if kind == "offdiag_sin_phi":
        return "j24", -amp * math.pi ** 2 / 512
    raise ValueError(f"no nonzero charge for {kind!r}")


def _charge(charges: dict, name: str) -> float:
    if name == "e0":
        return charges["e0"]
    if name == "cp4":
        return charges["cp"][3]
    return charges["j"][name[1:]]


def _all_charges(charges: dict) -> list:
    return [charges["e0"], *charges["c"], *charges["cp"], *charges["j"].values()]


def _van_der_corput(t: int) -> float:
    out, denom = 0.0, 1.0
    while t:
        t, bit = divmod(t, 2)
        denom *= 2
        out += bit / denom
    return out


def _model_draws(rng: np.random.Generator, n: int) -> list[tuple[str, float | None]]:
    """(kind, amplitude) pairs.  Kinds are balanced in blocks of four.  The
    t-th log-amplitude of a kind is a van der Corput point under a seeded
    random shift: each one is uniform on the range, and every prefix covers
    it evenly."""
    lo, hi = LOG_AMP_RANGE
    shift = {kind: rng.random() for kind in KINDS}
    seen = dict.fromkeys(KINDS, 0)
    out = []
    while len(out) < n:
        for kind in rng.permutation(KINDS):
            kind = str(kind)
            u = (_van_der_corput(seen[kind]) + shift[kind]) % 1.0
            seen[kind] += 1
            amp = 10.0 ** (lo + (hi - lo) * u)
            out.append((kind, None if kind == "ads_exact" else amp))
    return out[:n]


def _bound_ops(rng, draws):
    ops = []
    for kind, amp in draws:
        ops.append(Op(
            argv=("bound", "--model", json.dumps(model_config(kind, amp)), *QUADRATURE),
            kind=kind, amplitude=amp,
            # E0 = 0 with a nonzero momentum makes Q non-PSD.
            expect_exit=1 if kind.startswith("offdiag") else 0,
        ))
    return ops


def _identity_ops(rng, draws):
    ops = []
    for i, (kind, amp) in enumerate(draws):
        lam = ",".join(repr(float(x)) for x in rng.standard_normal(8))
        mode = "leading" if i % 2 == 0 else "exact"
        ops.append(Op(
            argv=("identity", "--model", json.dumps(model_config(kind, amp)),
                  f"--lambda={lam}", "--mode", mode, *QUADRATURE),
            kind=f"{kind}/{mode}", amplitude=amp,
        ))
    return ops


def _sample_psd_ops(rng):
    seeds = rng.integers(0, 2**31, N_OPS)
    return [Op(argv=("sample-psd", "--n", str(SAMPLE_N), "--seed", str(int(s))),
               kind="sample-psd")
            for s in seeds]


def _write_charges(path, e0, c, cp, j):
    labels = ("12", "13", "14", "23", "24", "34")
    report = {"charges": {"e0": float(e0),
                          "c": [float(v) for v in c],
                          "cp": [float(v) for v in cp],
                          "j": {lab: float(v) for lab, v in zip(labels, j)}}}
    with open(path, "w") as fh:
        json.dump(report, fh)


def q_matrix(e0, c, cp, j) -> np.ndarray:
    """The 4x4 Hermitian charge matrix in closed form, from the paper; `j`
    holds J12, J13, J14, J23, J24, J34."""
    c1, c2, c3, c4 = c
    p1, p2, p3, p4 = cp
    j12, j13, j14, j23, j24, j34 = j
    e = np.array([[e0 + c4 + p3 - j34, p1 + 1j * p2 - j14 - 1j * j24],
                  [p1 - 1j * p2 - j14 + 1j * j24, e0 + c4 - p3 + j34]])
    ehat = np.array([[e0 - c4 - p3 - j34, -p1 - 1j * p2 - j14 - 1j * j24],
                     [-p1 + 1j * p2 - j14 + 1j * j24, e0 - c4 + p3 + j34]])
    lower = np.array([[c3 - p4 + 1j * j12, c1 + 1j * c2 + j13 + 1j * j23],
                      [c1 - 1j * c2 - j13 + 1j * j23, -c3 - p4 - 1j * j12]])
    return np.block([[e, lower], [lower.conj().T, ehat]])


def _qmatrix_ops(rng, workdir):
    """Q = E0 Id + Q0, with Q0 traceless and built from the 14 momenta, so
    min eig Q = E0 - E0* where E0* = -min eig Q0 > 0.  The momenta are
    standard normal.  Half the reports set E0 = E0* + delta, which is PSD
    (delta = 0, the PSD boundary, on every other one); the other half set
    E0 = -E0*, with min eig -2 E0*: negative energy cannot be PSD or meet a
    bound."""
    half = N_CHARGE_FILES // 2
    files = []
    for i in range(N_CHARGE_FILES):
        draw = rng.standard_normal(15)
        c, cp, j = draw[0:4], draw[4:8], draw[8:14]
        e0_star = -float(np.linalg.eigvalsh(q_matrix(0.0, c, cp, j))[0])
        path = os.path.join(workdir, f"charges-{i:03d}.json")
        if i < half:
            delta = 0.0 if i % 2 == 0 else abs(float(draw[14]))
            _write_charges(path, e0_star + delta, c, cp, j)
            files.append((path, "psd", 0, delta, e0_star))
        else:
            _write_charges(path, -e0_star, c, cp, j)
            files.append((path, "non-psd", 1, -2 * e0_star, e0_star))
    picks = rng.integers(0, N_CHARGE_FILES, N_OPS * 4)
    return [Op(argv=("qmatrix", "--charges", files[k][0]), kind=files[k][1],
               expect_exit=files[k][2], min_eig=files[k][3], e0_scale=files[k][4])
            for k in picks]


def generate(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op list of `workload` for `seed`; input files go to `workdir`."""
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    if workload == "bound":
        return _bound_ops(rng, _model_draws(rng, N_OPS))
    if workload == "identity":
        return _identity_ops(rng, _model_draws(rng, N_OPS))
    if workload == "sample-psd":
        return _sample_psd_ops(rng)
    if workload == "qmatrix":
        return _qmatrix_ops(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(workload: str, seed: int) -> list[Op]:
    """Ops of `workload` at amplitudes below LOG_AMP_RANGE: one per kind
    with an amplitude and per stratum of PROBE_STRATA, log-uniform in it."""
    rng = np.random.default_rng([len(WORKLOADS) + WORKLOADS.index(workload), int(seed)])
    draws = [(kind, 10.0 ** rng.uniform(lo, hi))
             for lo, hi in PROBE_STRATA for kind in KINDS if kind != "ads_exact"]
    make = _bound_ops if workload == "bound" else _identity_ops
    return make(rng, draws)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rel_err: float | None = None
    reason: str = ""


def check(op: Op, rc, report: dict | None) -> Verdict:
    """Judge one op from its exit code and its `--out` report."""
    if rc != op.expect_exit:
        return Verdict(False, reason=f"exit {rc}, expected {op.expect_exit}")
    if report is None:
        return Verdict(False, reason="no report written")
    command = op.argv[0]
    if command == "bound":
        charges = report["charges"]
        if op.kind == "ads_exact":
            nonzero = [v for v in _all_charges(charges) if v != 0.0]
            if nonzero:
                return Verdict(False, reason=f"ads_exact charge {nonzero[0]!r} != 0")
            return Verdict(True)
        name, expected = closed_form(op.kind, op.amplitude)
        got = _charge(charges, name)
        rel = abs(got - expected) / abs(expected)
        if not rel <= REL_TOL:
            return Verdict(False, rel, f"{name} = {got!r}, closed form {expected!r}")
        return Verdict(True, rel)
    if command == "identity":
        gap = report["gap"]
        if not gap < GAP_TOL:
            return Verdict(False, gap, f"gap {gap!r}")
        return Verdict(True, gap)
    if command == "sample-psd":
        if report["n"] != SAMPLE_N or report["failures"] != 0:
            return Verdict(False, reason=f"{report['failures']} bound failures")
        if not report["worst_margin"] >= -MARGIN_TOL:
            return Verdict(False, reason=f"worst margin {report['worst_margin']!r}")
        return Verdict(True)
    if command == "qmatrix":
        psd_expected = op.expect_exit == 0
        if report["psd"] is not psd_expected:
            return Verdict(False, reason=f"psd {report['psd']}, expected {psd_expected}")
        rel = abs(report["min_eigenvalue"] - op.min_eig) / op.e0_scale
        if not rel <= EIG_TOL:
            return Verdict(False, rel, f"min eigenvalue {report['min_eigenvalue']!r}, "
                                       f"closed form {op.min_eig!r}")
        return Verdict(True, rel)
    raise ValueError(f"no oracle for {command!r}")
