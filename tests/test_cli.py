"""End-to-end tests of the command-line interface."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from adspet import __version__, cli, killing
from adspet.charges import ChargeSet, derived
from adspet.cli import main
from adspet.initial_data import RadialBumpModel, write_grid_file
from adspet.qmatrix import SAMPLE_BLOCK, sample_momenta, theorem_bounds

BUMP = '{"name": "radial_bump", "params": {"m": 0.1}}'
OFFDIAG = (
    '{"name": "offdiag_momentum", '
    '"params": {"q": 0.05, "axis": 2, "profile": "sin_theta"}}'
)
SMALL = ["--ntheta", "8", "--npsi", "8", "--nphi", "8"]


def test_verify_clifford_exit_code(capsys):
    assert main(["verify", "clifford", "--quiet"]) == 0
    capsys.readouterr()


def test_verify_spinors(capsys):
    assert main(["verify", "spinors", "--samples", "10", "--quiet"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kappa", ["30", "100"])
def test_verify_spinors_at_large_kappa(kappa, capsys):
    # r and the radial step scale with 1/kappa, and the residual is judged
    # against kappa |Phi0|; in absolute units the radial step outgrew the
    # spinor's scale and the h^2 law failed.
    assert main(["verify", "spinors", "--kappa", kappa, "--quiet"]) == 0
    capsys.readouterr()


def test_verify_killing_single_label(capsys):
    assert main(["verify", "killing", "--label", "4,0", "--samples", "5",
                 "--quiet"]) == 0
    capsys.readouterr()


def test_verify_spinors_judges_ratios_at_small_kappa(tmp_path, capsys):
    # At kappa 1e-8 every residual is below 1e-13 in absolute terms, which a
    # bare cutoff took for roundoff: no ratio was judged and the run passed
    # with ratio_min null.  On the scale kappa |Phi0| they follow the h^2 law.
    out = tmp_path / "spinors.json"
    assert main(["verify", "spinors", "--kappa", "1e-8", "--out", str(out),
                 "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["max_relative_residual"] < 1e-5
    assert 3.99 < data["ratio_min"] <= data["ratio_max"] < 4.01
    capsys.readouterr()


def test_verify_spinors_fails_when_no_ratio_is_judged(monkeypatch, capsys):
    # Residuals that all vanish leave no ratio to judge: nothing tested the
    # h^2 law, so the run must not pass.
    monkeypatch.setattr(cli, "killing_spinor_residual",
                        lambda lam, p, d, h, k: np.zeros(len(d)))
    assert main(["verify", "spinors", "--samples", "5", "--quiet"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("label", ["x", "1", "1,2,3", "", "3,3", "7,9"])
def test_verify_killing_malformed_label_is_named(label, capsys):
    assert main(["verify", "killing", "--label", label, "--samples", "3",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --label must be a,b"), err


@pytest.mark.parametrize("kappa", ["5", "30"])
def test_verify_killing_at_large_kappa(kappa, capsys):
    # The sample points and the step scale with 1/kappa; in absolute units
    # the step outgrew the fields' scale and exact boosts failed the h^2 law.
    assert main(["verify", "killing", "--kappa", kappa, "--samples", "60",
                 "--quiet"]) == 0
    capsys.readouterr()


def test_verify_killing_tests_every_rotation_at_large_kappa(tmp_path, capsys):
    # Only d/dt and d/dphi are exact; at kappa 30 the real rotations U_23
    # and U_34 have residuals below 1e-10 too, but they follow the h^2 law
    # and must be tested by it, not skipped as exact.
    out = tmp_path / "killing.json"
    assert main(["verify", "killing", "--kappa", "30", "--samples", "300",
                 "--out", str(out), "--quiet"]) == 0
    ratios = {tuple(f["label"]): f["ratio"]
              for f in json.loads(out.read_text())["fields"]}
    assert ratios[(5, 0)] is None and ratios[(1, 2)] is None
    for label in ((2, 3), (3, 4)):
        assert 3.5 < ratios[label] < 4.5
    capsys.readouterr()


@pytest.mark.parametrize("ratios, code, reported", [
    ((4.1, 3.6, 4.0), 0, 3.6),
    ((4.0, 5.0, 4.1), 1, 5.0),
    ((4.0, math.nan, 4.1), 1, None),
])
def test_verify_killing_reports_the_deciding_ratio(ratios, code, reported,
                                                   tmp_path, monkeypatch, capsys):
    # The report carries the ratio farthest from 4, which decides the
    # verdict, not the last sample's.
    def residual(label, x, h, k):
        ones = np.ones(x.shape[1:])
        return 1e-6 * ones / (1.0 if h == 1e-3 else np.array(ratios)), ones

    monkeypatch.setattr(cli, "killing_residual", residual)
    out = tmp_path / "killing.json"
    assert main(["verify", "killing", "--label", "1,0", "--samples", "3",
                 "--out", str(out), "--quiet"]) == code
    ratio = json.loads(out.read_text())["fields"][0]["ratio"]
    if reported is None:
        assert math.isnan(ratio)
    else:
        assert ratio == pytest.approx(reported)
    capsys.readouterr()


def test_verify_killing_judges_the_coordinate_symmetries(monkeypatch, capsys):
    # d/dt and d/dphi have no h^2 law; their residual is judged against the
    # roundoff of the Lie derivative's terms.  A d/dt field off by 1e-9 of
    # itself, varying with r, fails.
    field = killing.spacetime_killing_vector

    def skewed(label, x, k):
        u = field(label, x, k)
        if killing.normalize_label(label)[0] == (5, 0):
            u = u * (1.0 + 1e-9 * np.sin(k.kappa * np.asarray(x)[1]))
        return u

    for kappa in ("1", "30"):
        argv = ["verify", "killing", "--label", "5,0", "--kappa", kappa,
                "--samples", "20", "--quiet"]
        assert main(argv) == 0
        monkeypatch.setattr(killing, "spacetime_killing_vector", skewed)
        assert main(argv) == 1
        monkeypatch.undo()
    capsys.readouterr()


# The reports of the pointwise verifier, before it was batched (seed 0): each
# label's (max_residual, ratio) of `verify killing --samples 300` at kappa 1
# and 30.
FROZEN_KILLING = {
    "1": {
        (5, 0): (0.0, None),
        (1, 0): (0.00014964802123529353, 4.000024348829334),
        (2, 0): (0.00020446239567206703, 4.0000230296490615),
        (3, 0): (7.005859117725777e-05, 4.000018865742969),
        (4, 0): (7.390867719436756e-05, 3.999972996155909),
        (1, 5): (0.00032956661142691246, 4.000028824603582),
        (2, 5): (4.2782606406888135e-05, 3.999977094194434),
        (3, 5): (5.848577536049504e-05, 4.000023881533951),
        (4, 5): (1.820064959190404e-05, 3.9999896762916682),
        (1, 2): (0.0, None),
        (1, 3): (0.0001591974039669708, 4.000023607927957),
        (1, 4): (0.00012411474394014022, 4.000030633185301),
        (2, 3): (3.2820899786401014e-05, 4.000025542168352),
        (2, 4): (0.00022505343098799813, 4.000025468752076),
        (3, 4): (6.027369129668614e-05, 4.000023117800054),
    },
    "30": {
        (5, 0): (0.0, None),
        (1, 0): (2.2926639122289316e-05, 3.9999854156619588),
        (2, 0): (3.543475430234366e-05, 4.000064131220788),
        (3, 0): (3.147591896635049e-05, 4.000009675916016),
        (4, 0): (7.39086784022902e-05, 4.000010858849971),
        (1, 5): (2.546300063244189e-05, 4.0000186130545),
        (2, 5): (4.278259338263979e-05, 4.000012044819647),
        (3, 5): (4.540211845949216e-05, 3.999984379894776),
        (4, 5): (1.7339342413436043e-05, 3.9999582721695215),
        (1, 2): (0.0, None),
        (1, 3): (1.7688600568305235e-07, 4.000023976128993),
        (1, 4): (1.3790527104984296e-07, 4.000030662255038),
        (2, 3): (3.6467667090950284e-08, 4.000027128170885),
        (2, 4): (2.5005936826749675e-07, 4.000025468635949),
        (3, 4): (6.697076634226695e-08, 4.000023117665751),
    },
}


@pytest.mark.parametrize("kappa", sorted(FROZEN_KILLING))
def test_verify_killing_matches_frozen_report(kappa, tmp_path, capsys):
    # The points are drawn in the rng's order, label by label, so every
    # label sees the points it saw when each was evaluated alone.
    out = tmp_path / "killing.json"
    assert main(["verify", "killing", "--kappa", kappa, "--samples", "300",
                 "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    frozen = FROZEN_KILLING[kappa]
    assert [tuple(f["label"]) for f in data["fields"]] == list(frozen)
    for f in data["fields"]:
        residual, ratio = frozen[tuple(f["label"])]
        assert abs(f["max_residual"] - residual) <= 1e-12 * residual
        if ratio is None:
            assert f["ratio"] is None
        else:
            assert abs(f["ratio"] - ratio) <= 1e-12 * ratio
    capsys.readouterr()


def test_verify_spinors_matches_frozen_report(tmp_path, capsys):
    # The report of the pointwise verifier, before it was batched (seed 0,
    # kappa 1, 100 samples).  The finite difference's roundoff, eps / h of
    # kappa |Phi0|, is about 1e-6 of the largest residual (1e-7 kappa |Phi0|)
    # and about 1e-5 of a ratio's smaller residual, so a change in the last
    # bit of Phi moves them that far.
    out = tmp_path / "spinors.json"
    assert main(["verify", "spinors", "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["max_relative_residual"] == pytest.approx(9.395412043667823e-08,
                                                          rel=1e-5)
    assert data["ratio_min"] == pytest.approx(3.9997001168322166, rel=1e-4)
    assert data["ratio_max"] == pytest.approx(4.000326359151122, rel=1e-4)
    capsys.readouterr()


def test_charges_report(tmp_path, capsys):
    out = tmp_path / "charges.json"
    code = main(["charges", "--model", BUMP, *SMALL, "--out", str(out),
                 "--quiet"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["charges"]["e0"] == pytest.approx(
        15.0 * math.pi * 0.1 / 128.0, rel=1e-8
    )
    assert data["config"]["ntheta"] == 8
    capsys.readouterr()


def test_charges_report_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["charges", "--model", BUMP, *SMALL, "--out", str(path),
                     "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_qmatrix_from_charges_file(tmp_path, capsys):
    charges = tmp_path / "charges.json"
    main(["charges", "--model", BUMP, *SMALL, "--out", str(charges),
          "--quiet"])
    out = tmp_path / "q.json"
    code = main(["qmatrix", "--charges", str(charges), "--out", str(out),
                 "--quiet"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["psd"] is True
    assert data["verdict"] is True
    assert data["q"][0][0][0] == pytest.approx(data["eigenvalues"][0],
                                               rel=1e-8)
    capsys.readouterr()


def test_bound_detects_violation(tmp_path, capsys):
    # pure momentum carries zero energy, so the bound check must fail
    out = tmp_path / "bound.json"
    code = main(["bound", "--model", OFFDIAG, *SMALL, "--out", str(out),
                 "--quiet"])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["verdict"] is False
    assert data["bounds"]["b4"] > 0.0
    capsys.readouterr()


def test_bound_judges_tiny_charges_on_their_own_scale(tmp_path, capsys):
    # A momentum of 1e-12 with zero energy violates the bound and is not PSD;
    # exact AdS (Q = 0) satisfies both.
    tiny = ('{"name": "offdiag_momentum", '
            '"params": {"q": 1e-12, "axis": 2, "profile": "sin_theta"}}')
    out = tmp_path / "bound.json"
    for model, code, ok in ((tiny, 1, False), ('{"name": "ads_exact"}', 0, True)):
        assert main(["bound", "--model", model, "--out", str(out),
                     "--quiet"]) == code
        data = json.loads(out.read_text())
        assert data["psd"] is ok and data["verdict"] is ok
    capsys.readouterr()


def test_identity_command(tmp_path, capsys):
    out = tmp_path / "identity.json"
    code = main(["identity", "--model", BUMP, "--lambda", "1,0,0,0,0,0,0,0",
                 "--mode", "exact", *SMALL, "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["gap"] < 1e-8
    capsys.readouterr()


def test_sample_psd_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["sample-psd", "--n", "200", "--seed", "7", "--out",
                     str(path), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["failures"] == 0
    capsys.readouterr()


# The report of `sample-psd --n 1000 --seed 7`, computed apart from the
# sampler: the momenta of default_rng(7).standard_normal((1000, 15)), E0 =
# -eigvalsh(Q0)[0] + delta, and theorem_bounds.
FROZEN_SAMPLE_PSD = {
    "failures": 0,
    "worst_margin": 0.37850051995133294,
    "min_a_minus_2sqrt2_w": -3.9411407755630243,
}


def test_sample_psd_matches_frozen_report(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["sample-psd", "--n", "1000", "--seed", "7", "--out",
                 str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["failures"] == FROZEN_SAMPLE_PSD["failures"]
    for key, val in FROZEN_SAMPLE_PSD.items():
        assert abs(data[key] - val) <= 1e-12 * abs(val), key
    capsys.readouterr()


def _one_array_report(seed, n):
    """The `sample-psd --n n --seed seed --out` bytes, built from a single
    sample_momenta(seed, n) and theorem_bounds on all n rows at once."""
    e0, c, cp, j, _ = sample_momenta(seed, n)
    cs = ChargeSet(e0=e0, c=c, cp=cp, j=j)
    b = theorem_bounds(cs)
    failures = int(np.count_nonzero(~b.satisfied))
    report = {
        "config": {"n": n, "seed": seed, "version": __version__},
        "n": n,
        "failures": failures,
        "worst_margin": float(b.margin.min()),
        "min_a_minus_2sqrt2_w": float(np.min(
            derived(cs).a_total - 2 * math.sqrt(2) * b.w)),
        "passed": failures == 0,
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                               SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1, 10_000])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_sample_psd_blocks_match_one_array(n, seed, tmp_path, capsys):
    # The sweep draws, roots and bounds its samples a block at a time from
    # one generator; its report is that of all n rows at once, to the byte.
    out = tmp_path / "s.json"
    main(["sample-psd", "--n", str(n), "--seed", str(seed), "--out",
          str(out), "--quiet"])
    assert out.read_text() == _one_array_report(seed, n)
    capsys.readouterr()


def test_sample_psd_worst_margin_keeps_a_nan_block(tmp_path, monkeypatch,
                                                  capsys):
    # A NaN margin in one block stays NaN in the report, as ndarray.min
    # keeps it over all n rows; Python's min would drop it.
    bounds = cli.theorem_bounds
    calls = []

    def nan_in_second_block(cs, terms):
        b = bounds(cs, terms=terms)
        calls.append(b)
        if len(calls) == 2:
            b.margin[0] = math.nan
        return b

    monkeypatch.setattr(cli, "theorem_bounds", nan_in_second_block)
    out = tmp_path / "s.json"
    main(["sample-psd", "--n", str(3 * SAMPLE_BLOCK), "--out", str(out),
          "--quiet"])
    assert len(calls) == 3
    assert math.isnan(json.loads(out.read_text())["worst_margin"])
    capsys.readouterr()


def test_sample_psd_memory_does_not_grow_with_n():
    # The sweep holds one block of 2048 rows while it draws the next, about
    # 1.1 MiB traced for any n.  All n rows at once took about 3.6 MiB at
    # n = 10^4 and 72 MiB at 2 10^5.
    main(["sample-psd", "--n", "10", "--quiet"])  # numpy.random, once
    for n in (10_000, 200_000):
        tracemalloc.start()
        try:
            assert main(["sample-psd", "--n", str(n), "--quiet"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20, (n, peak)


@pytest.mark.parametrize("n", ["0", "-5", str(2**32 + 1)])
def test_sample_psd_count_out_of_range_is_usage_error(n, capsys):
    # The sweep checks n before its first block: no block would give an
    # empty sweep that passes, and past 2**32 rows one of over 40 minutes.
    assert main(["sample-psd", "--n", n, "--quiet"]) == 2
    assert "n must be in 1..2**32" in capsys.readouterr().err


def test_sample_psd_negative_seed_is_usage_error(capsys):
    assert main(["sample-psd", "--seed", "-1", "--n", "5", "--quiet"]) == 2
    assert "expected non-negative integer" in capsys.readouterr().err


def test_decay_command(capsys):
    assert main(["decay", "--model", BUMP, "--quiet"]) == 0
    capsys.readouterr()


def test_model_from_file(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(BUMP)
    assert main(["decay", "--model", f"@{cfg}", "--quiet"]) == 0
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["charges"]) == 2  # --model is required
    assert main(["charges", "--model", "{broken json"]) == 2
    assert main(["charges", "--model", '{"name": "no_such_model"}']) == 2
    assert main(["charges", "--model", '{"name": "radial_bump"}']) == 2  # no m
    assert main(["charges", "--model",
                 '{"name": "radial_bump", "params": {"m": 1, "x": 2}}']) == 2
    capsys.readouterr()


def test_bad_lambda_is_usage_error(capsys):
    code = main(["identity", "--model", BUMP, "--lambda", "1,2,3",
                 "--quiet"])
    assert code == 2
    capsys.readouterr()


def test_kappa_flag(tmp_path, capsys):
    out = tmp_path / "charges.json"
    code = main(["charges", "--model", BUMP, "--kappa", "2.0", *SMALL,
                 "--radii", "2,2.5,3,3.5", "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["charges"]["e0"] == pytest.approx(
        15.0 * math.pi * 0.1 / (128.0 * 4.0), rel=1e-6
    )
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["leading", "exact"])
def test_identity_gap_judged_on_the_data_scale(tmp_path, capsys, mode):
    # lambda^dagger Q lambda = 0 exactly while Q does not vanish; the lhs is
    # quadrature roundoff, far below the scale of Q.
    model = ('{"name":"offdiag_momentum",'
             '"params":{"q":0.1,"axis":2,"profile":"sin_theta"}}')
    out = tmp_path / "identity.json"
    code = main(["identity", "--model", model, "--lambda=1,0,0,0.5,0,0,-0.3,0",
                 "--mode", mode, "--out", str(out), "--quiet"])
    data = json.loads(out.read_text())
    assert data["rhs"] == 0.0 and abs(data["lhs"]) < 1e-15
    assert data["gap"] < 1e-12
    assert code == 0
    capsys.readouterr()


def test_parser_reuse_matches_fresh_parser(tmp_path, capsys):
    charges = tmp_path / "charges.json"
    assert main(["charges", "--model", BUMP, *SMALL, "--out", str(charges),
                 "--quiet"]) == 0
    calls = [
        (["qmatrix", "--charges", str(charges), "--variant", "theorem-text"], 2),
        (["sample-psd", "--n", "50", "--seed", "3"], 0),
        (["bound", "--model", OFFDIAG, "--rtol", "1e-9", *SMALL], 1),
        (["bound", "--ntheta", "8"], 2),
        (["qmatrix", "--charges", str(charges)], 0),
        (["bound", "--model", BUMP, *SMALL], 0),
        (["decay", "--model", BUMP], 0),
    ]

    def run(tag, fresh):
        reports = []
        for n, (argv, code) in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{tag}{n}.json"
            assert main([*argv, "--out", str(out), "--quiet"]) == code, argv
            reports.append(out.read_bytes() if out.exists() else None)
        return reports

    fresh = run("fresh", True)
    assert run("reused", False) == fresh
    # Only the usage error writes no report.
    assert [r is None for r in fresh] == [code == 2 for _, code in calls]
    capsys.readouterr()


def test_numerical_failure_has_its_own_exit_code(capsys):
    # A finite amplitude whose quadratic terms in e_1 overflow a float (a
    # NaN amplitude is now a usage error).
    huge_model = '{"name": "radial_bump", "params": {"m": 1e300}}'
    with np.errstate(over="ignore"):
        code = main(["charges", "--model", huge_model, *SMALL, "--quiet"])
    assert code == 4
    assert "numerical failure: non-finite value at node" in capsys.readouterr().err


def test_identity_on_diverging_data_exits_3(tmp_path, capsys):
    # sigma = 2.5 < 3: the surface values grow like exp(r / 2).
    model = '{"name": "radial_bump", "params": {"m": 0.1, "sigma": 2.5}}'
    out = tmp_path / "identity.json"
    assert main(["identity", "--model", model, "--lambda=1,0,0,0,0,0,0,0",
                 *SMALL, "--out", str(out), "--quiet"]) == 3
    data = json.loads(out.read_text())
    assert data["diverged"] is True and math.isnan(data["gap"])
    capsys.readouterr()


def test_bound_on_diverging_data_exits_3(tmp_path, capsys):
    model = '{"name": "radial_bump", "params": {"m": 0.1, "sigma": 2.5}}'
    out = tmp_path / "bound.json"
    assert main(["bound", "--model", model, *SMALL, "--out", str(out),
                 "--quiet"]) == 3
    data = json.loads(out.read_text())
    assert data["charges"]["diagnostics"]["e0"]["diverged"] is True
    assert math.isnan(data["charges"]["e0"]) and "bounds" not in data
    capsys.readouterr()


def test_qmatrix_on_a_diverged_report_exits_3(tmp_path, capsys):
    # The report of a diverged `charges` run holds e0 = NaN, marked diverged
    # in its diagnostics: qmatrix gives the verdict bound gives on the same
    # data, not a usage error.
    model = '{"name": "radial_bump", "params": {"m": 0.1, "sigma": 2.5}}'
    report = tmp_path / "charges.json"
    assert main(["charges", "--model", model, *SMALL, "--out", str(report),
                 "--quiet"]) == 3
    capsys.readouterr()
    out = tmp_path / "q.json"
    assert main(["qmatrix", "--charges", str(report), "--out", str(out)]) == 3
    assert "verdict: diverged" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["charges"]["diagnostics"]["e0"]["diverged"] is True
    assert math.isnan(data["charges"]["e0"]) and "bounds" not in data


@pytest.mark.parametrize("model, message", [
    ('{"params": {"m": 0.1}}', "has no 'name'"),
    ('{"name": "grid", "params": {"path": "x.aads"}}',
     "model 'grid' needs the param 'file'"),
])
def test_model_config_without_a_required_key_names_it(capsys, model, message):
    # Each exited 2 with the bare KeyError text, error: 'name' or 'file'.
    assert main(["charges", "--model", model, *SMALL, "--quiet"]) == 2
    assert message in capsys.readouterr().err


J_KEYS = ("12", "13", "14", "23", "24", "34")


def _charges(e0=0.0, c=(0.0,) * 4, cp=(0.0,) * 4, j=None):
    return {"e0": e0, "c": list(c), "cp": list(cp),
            "j": dict.fromkeys(J_KEYS, 0.0) if j is None else j}


def test_qmatrix_at_the_b2_counterexample(tmp_path, capsys):
    # c_3 = 1, c'_4 = 1, J_34 = 1 at E0 = 1.1: Q is positive definite and
    # every bound holds.  --variant, whose theorem-text B2 failed here, is
    # gone from every command.
    path = tmp_path / "cex.json"
    path.write_text(json.dumps({"charges": _charges(
        1.1, c=(0, 0, 1.0, 0), cp=(0, 0, 0, 1.0),
        j={**dict.fromkeys(J_KEYS, 0.0), "34": 1.0})}))
    out = tmp_path / "q.json"
    assert main(["qmatrix", "--charges", str(path), "--out", str(out),
                 "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["psd"] is True and data["verdict"] is True
    assert data["min_eigenvalue"] == pytest.approx(0.1, abs=1e-12)
    assert "variant" not in data["bounds"] and "variant" not in data["config"]
    assert main(["qmatrix", "--charges", str(path), "--variant",
                 "theorem-text", "--quiet"]) == 2
    assert main(["bound", "--model", BUMP, *SMALL, "--variant", "proof",
                 "--quiet"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("data, message", [
    ({"charges": _charges(math.nan)}, "e0 must be a finite number, got nan"),
    (_charges(math.inf), "e0 must be a finite number, got inf"),
    ({"charges": _charges(j={**dict.fromkeys(J_KEYS, 0.0), "24": math.nan})},
     "j[24] must be a finite number, got nan"),
    ([_charges()], "the charges must be a JSON object"),
    ({"charges": [0.0] * 15}, "the charges must be a JSON object"),
    ({"charges": _charges(j=[0.0] * 6)}, "j must be a JSON object"),
    ({"charges": _charges(c=(0.0, 0.0, "1", 0.0))},
     "c[2] must be a finite number, got '1'"),
    ({"charges": _charges(cp=(0.0, True, 0.0, 0.0))},
     "cp[1] must be a finite number, got True"),
    ({"charges": _charges(c=(0.0,) * 5)}, "c must be a list of 4 numbers"),
    ({"charges": {k: v for k, v in _charges().items() if k != "e0"}},
     "e0 must be a finite number, got None"),
    ({"charges": {k: v for k, v in _charges().items() if k != "cp"}},
     "cp must be a list of 4 numbers"),
    ({"charges": _charges(j={k: 0.0 for k in J_KEYS if k != "13"})},
     "j[13] must be a finite number, got None"),
    ({"charges": {**_charges(math.nan), "diagnostics": {
        "c1": {"diverged": True}, "e0": {"diverged": False}}}},
     "e0 must be a finite number, got nan"),
], ids=["nan_e0", "inf_e0", "nan_j", "list", "list_charges", "list_j",
        "string_c", "bool_cp", "long_c", "no_e0", "no_cp", "no_j13",
        "nan_e0_not_diverged"])
def test_qmatrix_rejects_a_bad_charges_file(tmp_path, capsys, data, message):
    # A charges file is user input: a field that is missing, of the wrong
    # kind, not a number or not finite is a usage error naming it, not a
    # numerical failure (exit 4), a failed verification or a traceback.
    path = tmp_path / "charges.json"
    path.write_text(json.dumps(data))
    assert main(["qmatrix", "--charges", str(path), "--quiet"]) == 2
    assert f"error: charges file: {message}" in capsys.readouterr().err


# offdiag_momentum with profile cos_psi: every charge vanishes analytically
# for axes 3 and 4.
VANISHING = ('{"name":"offdiag_momentum",'
             '"params":{"q":%s,"axis":%d,"profile":"cos_psi"}}')


def _charge_values(charges):
    return [charges["e0"], *charges["c"], *charges["cp"], *charges["j"].values()]


def test_bound_on_vanishing_charges_passes(tmp_path, capsys):
    # Its roundoff j24 (<= 5e-19) once reached the radial fit and came out
    # NaN, so bound reported divergence (exit 3).
    out = tmp_path / "bound.json"
    assert main(["bound", "--model", VANISHING % (0.3, 3), "--out", str(out),
                 "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert _charge_values(data["charges"]) == [0.0] * 15
    capsys.readouterr()


def test_charges_of_vanishing_data_are_reported_as_zero(tmp_path, capsys):
    out = tmp_path / "charges.json"
    assert main(["charges", "--model", VANISHING % (0.3, 4), "--out", str(out),
                 "--quiet"]) == 0
    assert _charge_values(json.loads(out.read_text())["charges"]) == [0.0] * 15
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["leading", "exact"])
def test_identity_on_vanishing_data_passes(tmp_path, capsys, mode):
    # Roundoff charges once made the gap 0.78 (leading) and 0.75 (exact).
    out = tmp_path / "identity.json"
    code = main(["identity", "--model", VANISHING % (0.2, 4),
                 "--lambda=0.3,-1.1,0.7,0.2,-0.5,0.9,1.3,-0.4", "--mode", mode,
                 "--out", str(out), "--quiet"])
    data = json.loads(out.read_text())
    assert data["gap"] < 1e-5 and data["diverged"] is False
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["bound", "charges", "identity"])
@pytest.mark.parametrize("radii", ["300,301,302", "800,801,802"])
def test_overflowing_radii_are_a_numerical_failure(capsys, command, radii):
    # sinh(r)^3 overflows a float past r ~ 237 and sinh(r) past r ~ 710;
    # math's OverflowError once escaped as a traceback with exit 1, the
    # code of a failed verification.
    extra = ["--lambda=1,0,0,0,0,0,0,0"] if command == "identity" else []
    assert main([command, "--model", BUMP, *SMALL, "--radii", radii, *extra,
                 "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: " in err and "overflow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--radii", "4,5,nan,7"],
                                   ["--radii", "4,5,6,inf"],
                                   ["--kappa", "inf"]])
def test_nonfinite_radii_and_kappa_are_usage_errors(capsys, flags):
    # A NaN radius passed the strictly-increasing check and kappa = inf the
    # positivity check; each then failed inside the surface pass, exit 4.
    assert main(["bound", "--model", BUMP, *flags, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("model", ['[1,2]', '3', '{"name": ["radial_bump"]}',
                                   '{"name": "radial_bump", "params": [1]}'])
def test_malformed_model_config_is_a_usage_error(capsys, model):
    # Valid JSON of the wrong shape once escaped from main as a TypeError.
    assert main(["charges", "--model", model, *SMALL, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--model", '{"name": "radial_bump", "params": {"m": NaN}}'],
    ["--model", '{"name": "offdiag_momentum", "params": {"q": "-inf", "axis": 2}}'],
    ["--model", '{"name": "radial_bump", "params": {"m": 0.1, "sigma": Infinity}}'],
])
def test_nonfinite_model_parameters_are_usage_errors(capsys, flags):
    # Each passed the constructor and failed in the surface pass, exit 4.
    assert main(["bound", *flags, *SMALL, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_infinite_decay_order_is_a_usage_error(tmp_path, capsys):
    # tau = inf passed the tau > 2 check, in a model config and in a grid
    # file's header alike.
    path = tmp_path / "inf.aads"
    write_grid_file(path, RadialBumpModel(m=0.1), (4.0, 5.0, 6.0), 8, 8, 8,
                    tau=math.inf)
    models = ['{"name": "ads_exact", "params": {"tau": Infinity}}',
              json.dumps({"name": "grid", "params": {"file": str(path)}})]
    for model in models:
        assert main(["charges", "--model", model, *SMALL, "--radii", "4,5,6",
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tau must be finite" in err


def test_all_zero_lambda_is_a_usage_error(capsys):
    # lambda = 0 makes both sides of the identity 0: the check passed
    # without checking anything.
    assert main(["identity", "--model", BUMP, *SMALL,
                 "--lambda=0,0,0,0,0,0,0,0", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "all zero" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_lambda_is_a_usage_error(capsys, value):
    assert main(["identity", "--model", BUMP, *SMALL,
                 f"--lambda=1,0,0,0,0,0,0,{value}", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("command", ["charges", "decay"])
def test_grid_file_with_a_nan_radius_is_a_usage_error(tmp_path, capsys, command):
    # The strictly-increasing check let a NaN radius through: charges then
    # exited 4 and decay 1.
    path = tmp_path / "nan.aads"
    write_grid_file(path, RadialBumpModel(m=0.1), (4.0, 5.0, 6.0), 8, 8, 8)
    text = path.read_text().replace("radii=4.0 5.0 6.0", "radii=4.0 nan 6.0")
    path.write_text(text)
    model = json.dumps({"name": "grid", "params": {"file": str(path)}})
    assert main([command, "--model", model, *SMALL, "--radii", "4,5,6",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("what", ["spinors", "killing"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_needs_at_least_one_sample(capsys, what, samples):
    # With no samples, verify spinors passed after checking nothing.
    assert main(["verify", what, "--samples", samples, "--quiet"]) == 2
    capsys.readouterr()


# A model config that is valid JSON with a string the writer must escape:
# quotes, commas, brackets and non-ASCII text.
NOTED = ('{"name": "radial_bump", "params": {"m": 0.1}, '
         '"note": "\\"a\\", [b], {c}: \u03ba \u2192 \u221e, \u00e9"}')


def test_report_writer_matches_json(tmp_path, capsys, monkeypatch):
    # Every subcommand's report, written by the CLI's own writer, is the
    # bytes of json.dumps(report, sort_keys=True, indent=2) plus a newline.
    charges = tmp_path / "charges.json"
    assert main(["charges", "--model", BUMP, *SMALL, "--out", str(charges),
                 "--quiet"]) == 0
    diverging = '{"name": "radial_bump", "params": {"m": 0.1, "sigma": 2.5}}'
    calls = [
        ["verify", "clifford"],
        ["verify", "spinors", "--samples", "3"],
        ["verify", "killing", "--label", "4,0", "--samples", "2"],
        ["charges", "--model", NOTED, *SMALL],
        ["qmatrix", "--charges", str(charges)],
        ["bound", "--model", NOTED, *SMALL],
        ["bound", "--model", OFFDIAG, *SMALL],
        ["bound", "--model", diverging, *SMALL],
        ["identity", "--model", diverging, "--lambda=1,0,0,0,0,0,0,0", *SMALL],
        ["identity", "--model", BUMP, "--lambda=1,0,0,0,0,0,0,0", "--mode",
         "exact", *SMALL],
        ["sample-psd", "--n", "20", "--seed", "4"],
        ["decay", "--model", '{"name": "ads_exact"}'],
    ]
    reports = []
    emit = cli._emit

    def recording(report, args):
        reports.append(report)
        emit(report, args)

    monkeypatch.setattr(cli, "_emit", recording)
    out = tmp_path / "report.json"
    for argv in calls:
        reports.clear()
        main([*argv, "--out", str(out), "--quiet"])
        assert len(reports) == 1, argv
        want = json.dumps(reports[0], sort_keys=True, indent=2) + "\n"
        assert out.read_bytes() == want.encode(), argv
        assert (NOTED not in argv) or "\\u03ba \\u2192" in want
    capsys.readouterr()


def test_report_writer_matches_json_on_every_type():
    report = {
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "none": None,
        "empty_list": [], "empty_dict": {}, "numpy": np.float64(0.1) / 3,
        "numpy_nan": np.float64("nan"), "ints": [0, -3, 2**70],
        "bools": [True, False], "tuple": (1.5, "x"), "zero": -0.0,
        "model": json.loads(NOTED)["note"] + " \x7f\t\n\\",
        "nested": {"b": [[1e-300, 1e300], {}], "a": {"z": [], "y": [None]}},
    }
    assert cli._json(report) == json.dumps(report, sort_keys=True, indent=2)
    for value in (np.float32(1.0), np.int64(3), {1: 2}):
        with pytest.raises(TypeError):
            cli._json({"x": value})
