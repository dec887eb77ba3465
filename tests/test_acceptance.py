"""Acceptance suite: one test per shipping criterion, with printed verdicts.

Each test prints a single PASS/FAIL line (bypassing capture) so the run log
doubles as the acceptance report.  Tolerances and runtime budgets are fixed
here, not inherited from library defaults.
"""

import json
import math
import time

import numpy as np
import pytest

from adspet.charges import ChargeSet, compute_charges, derived
from adspet.cli import main as cli_main
from adspet.clifford import ETA, gamma
from adspet.geometry import ModelConstants, QuadratureSpec
from adspet.initial_data import (
    AdsExactModel,
    OffdiagMomentumModel,
    RadialBumpModel,
)
from adspet.killing import ALL_LABELS, killing_residual
from adspet.qmatrix import (
    assemble_q,
    boundary_identity,
    det_closed_form,
    psd_check,
    rigidity_check,
    sample_momenta,
    theorem_bounds,
    third_minor_sum,
)
from adspet.spinors import KillingParams, killing_spinor_grid, killing_spinor_residual

K1 = ModelConstants(1.0)
Q_STD = QuadratureSpec(16, 16, 16, (4.0, 5.0, 6.0, 7.0))

# Frozen from a standalone Gauss-Legendre quadrature of the energy
# integrand for the radial bump (m = 0.1, decay 4, kappa = 1) at r = 10
# with 64 nodes per angle.  Residual against 15 pi m / 128: 4.13e-9.
BUMP_E0_BRUTE = 0.03681553875749043


def report(capsys, number, label, passed):
    with capsys.disabled():
        print(f"[acceptance {number}] {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({label}) failed"


def test_criterion_1_clifford(capsys):
    start = time.perf_counter()
    ok = True
    for a in range(5):
        for b in range(5):
            anti = gamma(a) @ gamma(b) + gamma(b) @ gamma(a)
            ok = ok and np.array_equal(anti, -2.0 * ETA[a, b] * np.eye(4))
    ok = ok and np.array_equal(gamma(0), gamma(0).conj().T)
    for i in range(1, 5):
        ok = ok and np.array_equal(gamma(i), -gamma(i).conj().T)
    ok = ok and (time.perf_counter() - start) < 1.0
    report(capsys, 1, "Clifford relations exact", ok)


def test_criterion_2_spinor_family(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    lams, points, directions = [], [], []
    for _ in range(100):
        lams.append(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        points.append((0.5 + 2.5 * rng.random(), 0.3 + 2.5 * rng.random(),
                       0.3 + 2.5 * rng.random(), 2 * math.pi * rng.random()))
        directions.append(int(rng.integers(1, 5)))
    lam = KillingParams(*np.transpose(lams))
    p = tuple(np.transpose(points))
    r1 = killing_spinor_residual(lam, p, directions, 1e-3, K1)
    r2 = killing_spinor_residual(lam, p, directions, 5e-4, K1)
    norm = np.linalg.norm(killing_spinor_grid(lam, *p, K1), axis=0)
    ok = bool(np.all(r1 < 1e-5 * norm))
    tested = r2 > 1e-13
    ok = ok and bool(np.all((3.5 < r1[tested] / r2[tested])
                            & (r1[tested] / r2[tested] < 4.5)))
    ok = ok and (time.perf_counter() - start) < 5.0
    report(capsys, 2, "spinor equation residuals second order", ok)


def test_criterion_3_killing_fields(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for lab in ALL_LABELS:
        x = np.array([
            [
                rng.standard_normal(),
                0.8 + 2.0 * rng.random(),
                0.3 + 2.5 * rng.random(),
                0.3 + 2.5 * rng.random(),
                2 * math.pi * rng.random(),
            ]
            for _ in range(4)
        ]).T
        r1, _ = killing_residual(lab, x, 1e-3, K1)
        if lab in ((5, 0), (1, 2)):
            ok = ok and bool(np.all(r1 < 1e-12))
            continue
        r2, _ = killing_residual(lab, x, 5e-4, K1)
        ok = ok and bool(np.all((3.5 < r1 / r2) & (r1 / r2 < 4.5)))
    ok = ok and (time.perf_counter() - start) < 10.0
    report(capsys, 3, "all 15 Killing fields verified", ok)


def test_criterion_4_exact_ads_charges(capsys):
    start = time.perf_counter()
    cs = compute_charges(AdsExactModel(K1), Q_STD)
    ok = bool(np.all(np.abs(cs.values()) < 1e-10)) and not cs.any_diverged
    ok = ok and (time.perf_counter() - start) < 5.0
    report(capsys, 4, "exact background has zero charges", ok)


def test_criterion_5_charge_oracle(capsys):
    start = time.perf_counter()
    cs = compute_charges(RadialBumpModel(m=0.1, sigma=4.0, constants=K1),
                         Q_STD)
    closed = 15.0 * math.pi * 0.1 / 128.0
    oracle_residual = abs(BUMP_E0_BRUTE - closed)
    ok = abs(cs.e0 - BUMP_E0_BRUTE) / BUMP_E0_BRUTE < 1e-6
    ok = ok and abs(cs.e0 - closed) < max(oracle_residual, 1e-11) * 10
    ok = ok and bool(np.all(np.abs(cs.values()[1:]) < 1e-8))
    ok = ok and (time.perf_counter() - start) < 30.0
    report(capsys, 5, "energy matches brute-force oracle and closed form", ok)


def test_criterion_6_boundary_identity(capsys):
    start = time.perf_counter()
    models = [
        RadialBumpModel(m=0.1, sigma=4.0, constants=K1),
        OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                             constants=K1),
    ]
    rng = np.random.default_rng(42)
    ok = True
    for model in models:
        for _ in range(8):
            lam = KillingParams(
                *(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            )
            for mode in ("leading", "exact"):
                rep = boundary_identity(model, lam, Q_STD, mode)
                ok = ok and not rep.diverged and rep.gap < 1e-5
    ok = ok and (time.perf_counter() - start) < 120.0
    report(capsys, 6, "boundary identity closes for both modes", ok)


def test_criterion_7_property_suite(capsys):
    start = time.perf_counter()
    n = 10_000
    e0, c, cp, j, _ = sample_momenta(123, n)
    ok = True
    for i in range(n):
        cs = ChargeSet(e0=float(e0[i]), c=c[i], cp=cp[i], j=j[i])
        d = derived(cs)
        rep = theorem_bounds(cs)
        # raw second-minor inequalities
        raw1 = cs.c[3] ** 2 + 0.5 * (
            float(d.c3 @ d.c3) + float(d.jhat @ d.jhat) + cs.cp[3] ** 2
        )
        raw2 = 0.5 * (float(d.cp3 @ d.cp3) + float(d.j4 @ d.j4)) + 0.25 * (
            float(d.c3 @ d.c3) + float(d.jhat @ d.jhat) + cs.cp[3] ** 2
        )
        ok = ok and cs.e0 ** 2 >= raw1 - 1e-9
        ok = ok and cs.e0 ** 2 >= raw2 - 1e-9
        ok = ok and third_minor_sum(cs) >= -1e-9
        det = float(np.prod(np.linalg.eigvalsh(assemble_q(cs))))
        ok = ok and abs(det_closed_form(cs) - det) / max(abs(det), 1.0) < 1e-8
        ok = ok and rep.margin >= -1e-9
        if not ok:
            break
    # exact equality cases
    eq1 = theorem_bounds(
        ChargeSet(e0=1.0, c=np.array([0, 0, 0, 1.0]), cp=np.zeros(4),
                  j=np.zeros(6))
    )
    ok = ok and abs(eq1.bounds[0] - 1.0) < 1e-12
    eq2 = theorem_bounds(
        ChargeSet(e0=1.0, c=np.zeros(4), cp=np.array([0, 0, 1.0, 0]),
                  j=np.zeros(6))
    )
    ok = ok and abs(eq2.bounds[3] - 1.0) < 1e-12
    ok = ok and abs(eq2.bounds[4] - 1.0) < 1e-12
    ok = ok and (time.perf_counter() - start) < 30.0
    report(capsys, 7, "bound inequalities hold on 10^4 PSD samples", ok)


def test_criterion_8_rigidity(capsys):
    start = time.perf_counter()
    e0, c, cp, j, delta = sample_momenta(123, 2000)
    ok = True
    for i in range(2000):
        if delta[i] == 0.0 and e0[i] < 1e-12:
            cs = ChargeSet(e0=float(e0[i]), c=c[i], cp=cp[i], j=j[i])
            ok = ok and float(np.linalg.norm(assemble_q(cs))) < 1e-9
    bad = ChargeSet(e0=0.0, c=np.array([0, 0, 0, 1.0]), cp=np.zeros(4),
                    j=np.zeros(6))
    ok = ok and not psd_check(assemble_q(bad)).psd
    ok = ok and not rigidity_check(bad).in_domain
    ok = ok and (time.perf_counter() - start) < 5.0
    report(capsys, 8, "rigidity classification", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    a = tmp_path / "r1.json"
    b = tmp_path / "r2.json"
    for path in (a, b):
        code = cli_main(["sample-psd", "--n", "1000", "--seed", "7",
                         "--out", str(path), "--quiet"])
        assert code == 0
    ok = a.read_bytes() == b.read_bytes()
    ok = ok and json.loads(a.read_text())["failures"] == 0
    report(capsys, 9, "seeded runs byte-identical", ok)
