"""Command-line interface with machine-readable JSON reports.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error
(bad arguments, model config or charges file), 3 divergence detected, 4
internal numerical failure (non-finite surface data, radial factors that
overflow at a large radius, or a Q that is not finite or not Hermitian).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .charges import CHARGE_NAMES, ChargeDiagnostics, ChargeSet, compute_charges
from .clifford import ETA, gamma
from .geometry import ModelConstants, NumericalError, QuadratureSpec
from .initial_data import decay_validate, model_from_config
from .killing import ALL_LABELS, killing_residual, normalize_label
from .qmatrix import boundary_identity, rigidity_check, sample_blocks, theorem_bounds
from .spinors import KillingParams, killing_spinor_grid, killing_spinor_residual

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_NUMERICAL = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_quadrature_flags(p):
    p.add_argument("--ntheta", type=int, default=16)
    p.add_argument("--npsi", type=int, default=16)
    p.add_argument("--nphi", type=int, default=16)
    p.add_argument("--radii", type=str, default="4,5,6,7",
                   help="comma-separated increasing radii")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--kappa", type=float, default=1.0)


def _quadrature(args) -> QuadratureSpec:
    radii = tuple(float(x) for x in args.radii.split(","))
    return QuadratureSpec(args.ntheta, args.npsi, args.nphi, radii, args.rtol)


def _resolved_config(args, extra=None):
    cfg = {"version": __version__}
    for key in ("ntheta", "npsi", "nphi", "radii", "rtol", "kappa", "seed",
                "n", "mode", "samples", "model"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    if extra:
        cfg.update(extra)
    return cfg


def _emit(report, args):
    if args.out:
        # One write: json.dump would make hundreds of small ones.
        text = json.dumps(report, sort_keys=True) + "\n"
        with open(args.out, "w") as fh:
            fh.write(text)


def _say(args, *parts):
    if not args.quiet:
        print(*parts)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state from one call to the next."""
    # argparse prints the usage and its message, and exits 2 (EXIT_USAGE).
    parser = argparse.ArgumentParser(
        prog="adspet",
        description="Energy-momenta and positivity bounds for "
                    "(4+1)-dimensional asymptotically AdS data")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags every subcommand takes.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--quiet", action="store_true")
    add = functools.partial(sub.add_parser, parents=[common])

    pv = add("verify", help="run a verification suite")
    pv.add_argument("what", choices=["clifford", "spinors", "killing"])
    pv.add_argument("--samples", type=_positive_int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--label", type=str, default=None,
                    help="restrict killing verification to one label a,b")
    pv.add_argument("--kappa", type=float, default=1.0)

    pc = add("charges", help="compute the fifteen charges")
    pc.add_argument("--model", type=str, required=True)
    _add_quadrature_flags(pc)

    pq = add("qmatrix", help="assemble Q and evaluate bounds")
    pq.add_argument("--charges", type=str, required=True,
                    help="charges JSON file produced by the charges command")

    pb = add("bound", help="charges plus bounds in one pass")
    pb.add_argument("--model", type=str, required=True)
    _add_quadrature_flags(pb)

    pi = add("identity", help="boundary identity check")
    pi.add_argument("--model", type=str, required=True)
    pi.add_argument("--lambda", dest="lam", type=str, required=True,
                    help="four complex parameters re,im,re,im,re,im,re,im")
    pi.add_argument("--mode", choices=["leading", "exact"], default="leading")
    _add_quadrature_flags(pi)

    ps = add("sample-psd", help="property sweep over PSD samples")
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=0)

    pd = add("decay", help="validate decay of a model")
    pd.add_argument("--model", type=str, required=True)
    _add_quadrature_flags(pd)

    return parser


def _load_model(args):
    text = args.model
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return model_from_config(text, ModelConstants(args.kappa))


def _cmd_verify_clifford(args):
    failures = []
    for a in range(5):
        for b in range(5):
            anti = gamma(a) @ gamma(b) + gamma(b) @ gamma(a)
            expect = -2.0 * ETA[a, b] * np.eye(4)
            ok = np.array_equal(anti, expect)
            _say(args, f"gamma_{a} gamma_{b} + gamma_{b} gamma_{a} = "
                       f"-2 eta[{a}{b}] Id : {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append((a, b))
    herm_ok = np.array_equal(gamma(0), gamma(0).conj().T) and all(
        np.array_equal(gamma(i), -gamma(i).conj().T) for i in range(1, 5)
    )
    _say(args, f"hermiticity pattern: {'ok' if herm_ok else 'FAIL'}")
    passed = not failures and herm_ok
    report = {
        "config": _resolved_config(args),
        "anticommutator_failures": [list(f) for f in failures],
        "hermiticity": herm_ok,
        "passed": passed,
    }
    _emit(report, args)
    return EXIT_OK if passed else EXIT_FAILED


# The differences' roundoff is about eps / (h / 2), some 4e-13, of
# kappa |Phi0|; a residual r2 above this fraction of it moves the ratio r1 / r2
# by at most a few percent, and one below it is noise, not an h^2 law.  The
# residuals of standard-normal samples lie above 2e-10 of it at any kappa.
_RATIO_FLOOR = 1e-11


def _cmd_verify_spinors(args):
    k = ModelConstants(args.kappa)
    rng = np.random.default_rng(args.seed)
    # Every sample first, in the rng's order: lambda, the point, the
    # direction.  r is drawn, and the radial step taken, in units of
    # 1/kappa, the scale on which the spinor varies radially; the angles
    # keep their own step.  Both terms of nabla Phi + (i kappa / 2) gamma Phi
    # are of size kappa |Phi0|, which the residual is judged against.
    draws = [(rng.standard_normal(4) + 1j * rng.standard_normal(4),
              (0.5 + 2.5 * rng.random()) / k.kappa, 0.3 + 2.5 * rng.random(),
              0.3 + 2.5 * rng.random(), 2 * math.pi * rng.random(),
              int(rng.integers(1, 5))) for _ in range(args.samples)]
    lams, *p, d = (np.array(c) for c in zip(*draws))
    lam = KillingParams(*lams.T)
    h = np.where(d == 1, 1e-3 / k.kappa, 1e-3)
    r1 = killing_spinor_residual(lam, p, d, h, k)
    r2 = killing_spinor_residual(lam, p, d, h / 2, k)
    size = k.kappa * np.linalg.norm(killing_spinor_grid(lam, *p, k), axis=0)
    max_rel = float(np.max(r1 / size))  # NaN if any residual is NaN
    judged = r2 > _RATIO_FLOOR * size
    ratios = r1[judged] / r2[judged]
    # A run that judges no ratio has not tested the h^2 law.
    passed = bool(max_rel < 1e-5 and len(ratios)
                  and np.all((ratios > 3.5) & (ratios < 4.5)))
    _say(args, f"samples: {args.samples}")
    _say(args, f"max residual / (kappa |Phi0|): {max_rel:.3e}")
    if len(ratios):
        _say(args, f"convergence ratios: min {ratios.min():.3f} "
                   f"max {ratios.max():.3f} (target 4)")
    _say(args, "PASS" if passed else "FAIL")
    report = {
        "config": _resolved_config(args),
        "max_relative_residual": max_rel,
        "ratio_min": float(ratios.min()) if len(ratios) else None,
        "ratio_max": float(ratios.max()) if len(ratios) else None,
        "passed": passed,
    }
    _emit(report, args)
    return EXIT_OK if passed else EXIT_FAILED


# d/dt and d/dphi have no h^2 law to test: their residual is the roundoff of
# the differences, a few eps times the size of the Lie derivative's terms
# (killing_residual's scale); over kappa 0.01 to 1000 it stays below 0.2 eps.
_EXACT_LABELS = ((5, 0), (1, 2))
_EXACT_ULPS = 4


def _killing_label(text: str):
    """The canonical label of `--label a,b`; any other value raises a
    ValueError naming the flag and its form."""
    try:
        a, b = map(int, text.split(","))
        return normalize_label((a, b))[0]
    except ValueError:
        raise ValueError("--label must be a,b: two different integers in "
                         f"0..5, got {text!r}") from None


def _cmd_verify_killing(args):
    k = ModelConstants(args.kappa)
    rng = np.random.default_rng(args.seed)
    if args.label is not None:
        labels = [_killing_label(args.label)]
    else:
        labels = list(ALL_LABELS)
    # Every point first, in the rng's order, one block per label.  t and r
    # are drawn in units of 1/kappa, where the fields and the metric vary,
    # and killing_residual steps them by h / kappa, so the residual's h^2 law
    # holds at any kappa.
    n = max(1, args.samples // len(labels))
    points = np.array([[rng.standard_normal() / k.kappa,
                        (0.8 + 2.0 * rng.random()) / k.kappa, 0.3 + 2.5 * rng.random(),
                        0.3 + 2.5 * rng.random(), 2 * math.pi * rng.random()]
                       for _ in range(n * len(labels))]).T
    h = 1e-3
    passed = True
    rows = []
    for i, lab in enumerate(labels):
        x = points[:, i * n:(i + 1) * n]
        r1, scale = killing_residual(lab, x, h, k)
        worst = float(np.max(r1))  # NaN if any residual is NaN
        if lab in _EXACT_LABELS:
            exact = bool(np.all(r1 <= _EXACT_ULPS * np.finfo(float).eps * scale))
            passed = passed and exact
            worst_ratio = None
            note = " (exact)" if exact else " (FAIL: not exact to roundoff)"
        else:
            ratios = (r1 / killing_residual(lab, x, h / 2, k)[0]).tolist()
            # The ratio that decides the verdict: the one farthest from 4.
            worst_ratio = max(ratios, key=lambda q: math.inf if math.isnan(q)
                              else abs(q - 4))
            passed = passed and all(3.5 < q < 4.5 for q in ratios)
            note = f", ratio {worst_ratio:.2f}"
        rows.append({"label": list(lab), "max_residual": worst,
                     "ratio": worst_ratio})
        _say(args, f"U_{lab[0]}{lab[1]}: max residual {worst:.3e}{note}")
    _say(args, "PASS" if passed else "FAIL")
    report = {"config": _resolved_config(args), "fields": rows, "passed": passed}
    _emit(report, args)
    return EXIT_OK if passed else EXIT_FAILED


def _charges_report(cs: ChargeSet, args, q: QuadratureSpec):
    rep = {
        "config": _resolved_config(args, {"radii_resolved": list(q.radii)}),
        "charges": cs.as_dict(),
    }
    return rep


def _cmd_charges(args):
    model = _load_model(args)
    q = _quadrature(args)
    cs = compute_charges(model, q)
    for name, val in zip(CHARGE_NAMES, cs.values()):
        diag = cs.diagnostics.get(name)
        note = " DIVERGED" if diag and diag.diverged else ""
        _say(args, f"{name:>4}: {val: .12e}{note}")
    _emit(_charges_report(cs, args, q), args)
    return EXIT_DIVERGED if cs.any_diverged else EXIT_OK


def _finite(value, name: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"charges file: {name} must be a finite number, got {value!r}")
    return float(value)


def _charge_set_from_report(path) -> ChargeSet:
    """A `charges` report's charges, or a bare charges object; a field missing
    or not of its kind (JSON true is no number) raises a ValueError naming it.

    A charge that the report's diagnostics mark diverged may be NaN, as
    `charges` writes it, and the set carries that mark; any other NaN is an
    error."""
    with open(path) as fh:
        data = json.load(fh)
    ch = data["charges"] if isinstance(data, dict) and "charges" in data else data
    if not isinstance(ch, dict):
        raise ValueError("charges file: the charges must be a JSON object")
    for key in ("c", "cp"):
        if not (isinstance(ch.get(key), list) and len(ch[key]) == 4):
            raise ValueError(f"charges file: {key} must be a list of 4 numbers")
    if not isinstance(ch.get("j"), dict):
        raise ValueError("charges file: j must be a JSON object keyed 12 ... 34")
    reported = ch.get("diagnostics")
    reported = reported if isinstance(reported, dict) else {}
    diverged = {name: d for name, d in reported.items() if name in CHARGE_NAMES
                and isinstance(d, dict) and d.get("diverged") is True}

    def charge(value, name, field):
        if name in diverged and isinstance(value, float) and math.isnan(value):
            return value
        return _finite(value, field)

    c, cp = (np.array([charge(x, f"{key}{i + 1}", f"{key}[{i}]")
                       for i, x in enumerate(ch[key])]) for key in ("c", "cp"))
    j = np.array([charge(ch["j"].get(key), f"j{key}", f"j[{key}]")
                  for key in ("12", "13", "14", "23", "24", "34")])
    diagnostics = {name: ChargeDiagnostics(
        residual=math.inf, diverged=True,
        quadrature_converged=d.get("quadrature_converged") is True)
        for name, d in diverged.items()}
    return ChargeSet(e0=charge(ch.get("e0"), "e0", "e0"), c=c, cp=cp, j=j,
                     diagnostics=diagnostics)


def _qreport(cs: ChargeSet) -> dict:
    rigid = rigidity_check(cs)
    bounds = theorem_bounds(cs)
    return {
        "q": [[[float(z.real), float(z.imag)] for z in row] for row in rigid.q],
        "eigenvalues": [float(v) for v in rigid.psd.eigenvalues],
        "psd": rigid.psd.psd,
        "min_eigenvalue": float(rigid.psd.min_eigenvalue),
        "bounds": bounds.as_dict(),
        "verdict": bounds.satisfied,
        "rigidity": rigid.as_dict(),
    }


def _cmd_qmatrix(args):
    cs = _charge_set_from_report(args.charges)
    if cs.any_diverged:
        # A diverged charge is NaN, so Q and the bounds are undefined.
        _say(args, "verdict: diverged")
        _emit({"config": _resolved_config(args), "charges": cs.as_dict()}, args)
        return EXIT_DIVERGED
    rep = _qreport(cs)
    _say(args, f"PSD: {rep['psd']} (min eigenvalue {rep['min_eigenvalue']:.3e})")
    b = rep["bounds"]
    _say(args, "bounds:", " ".join(f"B{i}={b[f'b{i}']:.6e}" for i in range(1, 6)))
    _say(args, f"E0 = {b['e0']:.6e}, verdict: "
               + ("pass" if rep["verdict"] else "FAIL"))
    rep["config"] = _resolved_config(args)
    _emit(rep, args)
    return EXIT_OK if rep["verdict"] else EXIT_FAILED


def _cmd_bound(args):
    model = _load_model(args)
    q = _quadrature(args)
    cs = compute_charges(model, q)
    rep = _charges_report(cs, args, q)
    _say(args, f"E0 = {cs.e0:.6e}")
    if cs.any_diverged:
        # A diverged charge is NaN, so Q and the bounds are undefined.
        _say(args, "verdict: diverged")
        _emit(rep, args)
        return EXIT_DIVERGED
    rep.update(_qreport(cs))
    b = rep["bounds"]
    _say(args, "bounds:", " ".join(f"B{i}={b[f'b{i}']:.6e}" for i in range(1, 6)))
    _say(args, "verdict: " + ("pass" if rep["verdict"] else "FAIL"))
    _emit(rep, args)
    return EXIT_OK if rep["verdict"] else EXIT_FAILED


def _cmd_identity(args):
    model = _load_model(args)
    q = _quadrature(args)
    vals = [float(x) for x in args.lam.split(",")]
    if len(vals) != 8:
        raise ValueError("--lambda needs 8 comma-separated values")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"--lambda values must be finite, got {args.lam}")
    if not any(vals):
        raise ValueError("--lambda must not be all zero")
    lam = KillingParams(*(complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)))
    rep = boundary_identity(model, lam, q, args.mode)
    _say(args, f"lhs = {rep.lhs:.10e}")
    _say(args, f"rhs = {rep.rhs:.10e}")
    _say(args, f"relative gap = {rep.gap:.3e}")
    out = rep.as_dict()
    out["config"] = _resolved_config(args)
    _emit(out, args)
    if rep.diverged:
        return EXIT_DIVERGED
    return EXIT_OK if rep.gap < 1e-5 else EXIT_FAILED


def _block_bounds(sample):
    """The failure count, the worst margin and the least A - 2 sqrt(2) W of
    one block of samples."""
    e0, c, cp, j, _ = sample
    # The bounds reuse the momentum-only terms the sampler computed.
    b = theorem_bounds(ChargeSet(e0=e0, c=c, cp=cp, j=j), terms=sample.terms)
    return (int(np.count_nonzero(~b.satisfied)), b.margin.min(),
            np.min(sample.terms.d.a_total - 2 * math.sqrt(2) * b.w))


def _cmd_sample_psd(args):
    # One block of rows at a time; _block_bounds keeps none of its arrays.  A
    # count and two minima reduce block by block to their one-array values;
    # np.minimum, as ndarray.min, keeps a NaN, which Python's min would drop.
    failures, worst, min_clamped = 0, math.inf, math.inf
    for sample in sample_blocks(args.seed, args.n):
        count, margin, clamped = _block_bounds(sample)
        failures += count
        worst = np.minimum(worst, margin)
        min_clamped = np.minimum(min_clamped, clamped)
    worst, min_clamped = float(worst), float(min_clamped)
    passed = failures == 0
    _say(args, f"{args.n - failures}/{args.n} bound checks pass")
    _say(args, f"worst margin: {worst:.3e}")
    _say(args, f"empirical min of A - 2 sqrt(2) W: {min_clamped:.6e}")
    report = {
        "config": _resolved_config(args),
        "n": args.n,
        "failures": failures,
        "worst_margin": worst,
        "min_a_minus_2sqrt2_w": min_clamped,
        "passed": passed,
    }
    _emit(report, args)
    return EXIT_OK if passed else EXIT_FAILED


def _cmd_decay(args):
    model = _load_model(args)
    q = _quadrature(args)
    rep = decay_validate(model, q.radii, args.ntheta, args.npsi, args.nphi)
    _say(args, f"tau = {rep.tau}, sigma_a = {rep.sigma_a}, "
               f"sigma_grad_a = {rep.sigma_grad_a}, sigma_h = {rep.sigma_h}")
    _say(args, "PASS" if rep.passed else "FAIL")
    out = rep.as_dict()
    out["config"] = _resolved_config(args)
    _emit(out, args)
    return EXIT_OK if rep.passed else EXIT_FAILED


_COMMANDS = {
    "charges": _cmd_charges,
    "qmatrix": _cmd_qmatrix,
    "bound": _cmd_bound,
    "identity": _cmd_identity,
    "sample-psd": _cmd_sample_psd,
    "decay": _cmd_decay,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "verify":
            handler = {
                "clifford": _cmd_verify_clifford,
                "spinors": _cmd_verify_spinors,
                "killing": _cmd_verify_killing,
            }[args.what]
            return handler(args)
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
