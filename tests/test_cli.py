"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from adspet import cli
from adspet.cli import main

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


def test_verify_killing_single_label(capsys):
    assert main(["verify", "killing", "--label", "4,0", "--samples", "5",
                 "--quiet"]) == 0
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


# The report of `sample-psd --n 1000 --seed 7` from the per-sample loop
# that the batched path replaced.
FROZEN_SAMPLE_PSD = {
    "failures": 0,
    "worst_margin": 0.6175608336401517,
    "min_a_minus_2sqrt2_w": -3.5954097710848494,
    "boundary_zero_energy_max_qnorm": 0.0,
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
        (["qmatrix", "--charges", str(charges), "--variant", "theorem-text"], 0),
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
    nan_model = '{"name": "radial_bump", "params": {"m": NaN}}'
    assert main(["charges", "--model", nan_model, *SMALL, "--quiet"]) == 4
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


def test_qmatrix_on_a_nan_charge_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "charges.json"
    path.write_text(json.dumps({"charges": {
        "e0": math.nan, "c": [0.0] * 4, "cp": [0.0] * 4,
        "j": {key: 0.0 for key in ("12", "13", "14", "23", "24", "34")}}}))
    assert main(["qmatrix", "--charges", str(path), "--quiet"]) == 4
    assert "numerical failure: psd_check requires a finite matrix" in (
        capsys.readouterr().err)


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
