"""Tests for the slice geometry, quadrature and radial extrapolation."""

import math

import numpy as np
import pytest

from adspet import geometry
from adspet.charges import CHARGE_NAMES, compute_charges
from adspet.geometry import (
    DegenerateCoordinateError,
    ModelConstants,
    NumericalError,
    QuadratureSpec,
    frame_scales,
    radial_limit,
    sphere_grid,
    spin_connection_grid,
)
from adspet.initial_data import OffdiagMomentumModel, RadialBumpModel

K1 = ModelConstants(1.0)


def test_constants_validation():
    for kappa in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ModelConstants(kappa)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nphi=7)
    with pytest.raises(ValueError):
        QuadratureSpec(radii=(4.0, 4.0, 5.0))
    with pytest.raises(ValueError):
        QuadratureSpec(radii=(4.0, 5.0))
    with pytest.raises(ValueError):
        QuadratureSpec(ntheta=2)
    for radii in ((4.0, 5.0, math.nan, 7.0), (math.nan, 5.0, 6.0),
                  (4.0, 5.0, math.inf), (-math.inf, 5.0, 6.0)):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(radii=radii)


def test_frame_scales():
    s = frame_scales(2.0, math.pi / 3, math.pi / 4, K1)
    f = math.sinh(2.0)
    assert s[0] == 1.0
    assert s[1] == pytest.approx(f)
    assert s[2] == pytest.approx(f * math.sin(math.pi / 3))
    assert s[3] == pytest.approx(f * math.sin(math.pi / 3) * math.sin(math.pi / 4))
    # Arrays broadcast together, one leading axis for the four scales.
    grid = frame_scales(np.array([1.0, 2.0])[:, None, None],
                        np.linspace(0.3, 2.8, 3)[None, :, None],
                        np.linspace(0.3, 2.8, 4)[None, None, :], K1)
    assert grid.shape == (4, 2, 3, 4)
    assert grid[3, 1, 0, 0] == pytest.approx(f * math.sin(0.3) ** 2)


def test_frame_scale_kappa_dependence():
    k2 = ModelConstants(2.0)
    assert frame_scales(1.0, math.pi / 2, math.pi / 2, k2)[1] == pytest.approx(
        math.sinh(2.0) / 2.0)


def test_measure_density_and_pole_errors():
    # The area form e^2 ^ e^3 ^ e^4 has the density s_2 s_3 s_4.
    s = frame_scales(1.0, math.pi / 2, math.pi / 2, K1)
    assert np.prod(s[1:]) == pytest.approx(math.sinh(1.0) ** 3)
    # At a theta pole the angular scales vanish; the connection is singular.
    r, theta, psi = 1.0, 0.0, 1.0
    assert np.all(frame_scales(r, theta, psi, K1)[2:] == 0.0)
    with pytest.raises(DegenerateCoordinateError):
        spin_connection_grid(r, theta, psi, K1)


def test_spin_connection_values():
    # Radial coefficients are kappa*coth(kappa r) for each angular leg.
    # om[a, b, c] holds omega_{ab c} with 0-based frame indices.
    om = spin_connection_grid(1.5, 1.0, 1.2, K1)
    coth = 1.0 / math.tanh(1.5)
    for a in (1, 2, 3):
        assert om[a, 0, a] == pytest.approx(coth)
        assert om[0, a, a] == pytest.approx(-coth)
    inv_f = 1.0 / math.sinh(1.5)
    assert om[2, 1, 2] == pytest.approx(inv_f / math.tan(1.0))
    assert om[3, 1, 3] == pytest.approx(inv_f / math.tan(1.0))
    assert om[3, 2, 3] == pytest.approx(inv_f / (math.tan(1.2) * math.sin(1.0)))
    # anything not in the closed-form list vanishes
    assert om[1, 2, 0] == 0.0
    assert om[0, 1, 0] == 0.0


def test_a_radial_lookup_computes_only_the_function_asked_for(monkeypatch):
    # The radial table is cached per function: the spin connection at a
    # spinor sample's radius fills coth and 1/f, not all seven functions.
    computed = []
    for name, fn in geometry._RADIAL_FUNCTIONS.items():
        monkeypatch.setitem(geometry._RADIAL_FUNCTIONS, name,
                            lambda x, kappa, name=name, fn=fn:
                            computed.append(name) or fn(x, kappa))
    spin_connection_grid(1.2345678901, 1.0, 1.2, K1)
    assert computed == ["coth", "inv_f"]


def test_spin_connection_antisymmetry():
    grid = spin_connection_grid(2.0, np.linspace(0.4, 2.7, 5)[:, None],
                                np.linspace(0.4, 2.7, 4)[None, :], K1)
    assert np.allclose(grid, -np.swapaxes(grid, 0, 1))


def test_spin_connection_metric_compatibility():
    # Structure check d e^a = -omega^a_b ^ e^b via a finite-difference probe
    # of the frame one-forms: for the diagonal frame e^a = s_a dx^a the
    # component identity reads d_mu s_a(nu-leg) - d_nu s_a(mu-leg) =
    # -(omega_{ab mu-frame} s_mu_frame applied)...; instead of unpacking the
    # full identity we verify the Levi-Civita property indirectly through the
    # derivative of frame scales: omega_{a1 a} = e_a(log s_a) evaluated along
    # the radial leg, and omega_{a2 a} = (1/f) d_theta log s_a, a = 3, 4.
    r, th, ps = 1.7, 0.9, 1.1
    om = spin_connection_grid(r, th, ps, K1)
    f = math.sinh(r)
    h = 1e-6

    def s3(rr, tt):
        return math.sinh(rr) * math.sin(tt)

    d_r = (s3(r + h, th) - s3(r - h, th)) / (2 * h) / s3(r, th)
    assert om[2, 0, 2] == pytest.approx(d_r, rel=1e-8)
    d_th = (s3(r, th + h) - s3(r, th - h)) / (2 * h) / s3(r, th) / f
    assert om[2, 1, 2] == pytest.approx(d_th, rel=1e-8)

    def s4(rr, tt, pp):
        return math.sinh(rr) * math.sin(tt) * math.sin(pp)

    d_ps = (s4(r, th, ps + h) - s4(r, th, ps - h)) / (2 * h) / s4(r, th, ps)
    assert om[3, 2, 3] == pytest.approx(d_ps / (f * math.sin(th)), rel=1e-8)


def test_sphere_grid_weights_total():
    grid = sphere_grid(16, 16, 16)
    # integral of sin^2(theta) sin(psi) over the angle box is pi/2 * 2 * 2pi
    assert np.sum(grid.weights) == pytest.approx(2 * math.pi**2, rel=1e-13)


def test_surface_integral_s3_volume():
    grid = sphere_grid(16, 16, 16)
    for r in (1.0, 3.0):
        assert grid.integrate(1.0, r, K1) == pytest.approx(
            2 * math.pi**2 * math.sinh(r) ** 3, rel=1e-13
        )


def test_surface_integral_odd_moments_vanish():
    grid = sphere_grid(16, 16, 16)
    t, p, ph = grid.theta, grid.psi, grid.phi
    for f in (
        np.cos(t),
        np.sin(t) * np.sin(p) * np.cos(ph),
        np.sin(t) * np.cos(p),
    ):
        assert abs(grid.integrate(f, 2.0, K1)) < 1e-10


def test_surface_integral_quadratic_moment():
    # integral of n_4^2 = cos^2(theta) over the unit 3-sphere is (1/4) vol.
    grid = sphere_grid(16, 16, 16)
    assert grid.integrate(np.cos(grid.theta) ** 2, 1.0, K1) == pytest.approx(
        0.25 * 2 * math.pi**2 * math.sinh(1.0) ** 3, rel=1e-12
    )


def test_surface_integral_takes_a_batch_of_radii():
    # r of shape B integrates a field of shape B + grid shape, or one that
    # broadcasts to it, at each radius.
    grid = sphere_grid(8, 6, 10)
    radii = np.array([[1.0, 2.5], [3.0, 4.0]])
    field = np.cos(grid.theta) ** 2 + radii[..., None, None, None] * np.sin(grid.phi)
    got = grid.integrate(field, radii, K1)
    assert got.shape == radii.shape
    for i in np.ndindex(radii.shape):
        assert got[i] == pytest.approx(grid.integrate(field[i], radii[i], K1),
                                       rel=1e-14)
    volumes = grid.integrate(1.0, radii, K1)
    assert volumes.shape == radii.shape
    for i in np.ndindex(radii.shape):
        assert volumes[i] == grid.integrate(1.0, radii[i], K1)


@pytest.mark.parametrize("r", [300.0, 800.0, (4.0, 300.0, 301.0)])
def test_surface_integral_overflow_is_a_numerical_failure(r):
    # sinh(r)^3 overflows a float past r ~ 237: math's OverflowError once
    # escaped from the public integrate.
    with pytest.raises(NumericalError, match="overflow at r = (300|800)$"):
        sphere_grid(8, 8, 8).integrate(1.0, np.asarray(r), K1)


@pytest.mark.parametrize("r", [0.0, -1.0, (4.0, 0.0)])
def test_surface_integral_needs_a_positive_radius(r):
    # The area-factor lookup is the one check of r; it names the frame.
    with pytest.raises(DegenerateCoordinateError, match="needs r > 0"):
        sphere_grid(8, 8, 8).integrate(1.0, np.asarray(r), K1)


def test_surface_integral_rejects_nonfinite():
    grid = sphere_grid(8, 8, 8)
    with np.errstate(invalid="ignore"):
        values = np.log(np.cos(grid.theta) - 1.0)
    with pytest.raises(ValueError, match="non-finite value at node"):
        grid.integrate(values, 1.0, K1)


def test_radial_limit_recovers_exponential():
    rs = [4.0, 5.0, 6.0, 7.0]
    vals = [(r, 5.0 + 3.0 * math.exp(-2.0 * r)) for r in rs]
    rl = radial_limit(vals, K1)
    assert not rl.diverged
    assert rl.limit == pytest.approx(5.0, abs=1e-11)
    assert rl.beta == pytest.approx(2.0, rel=1e-9)


def test_radial_limit_negative_amplitude_and_kappa():
    k2 = ModelConstants(2.0)
    rs = [2.0, 2.5, 3.0, 3.5]
    vals = [(r, -1.0 - 0.7 * math.exp(-3.0 * 2.0 * r)) for r in rs]
    rl = radial_limit(vals, k2)
    assert rl.limit == pytest.approx(-1.0, abs=1e-12)
    assert rl.beta == pytest.approx(3.0, rel=1e-6)


def test_radial_limit_constant_sequence():
    rl = radial_limit([(4.0, 1.5), (5.0, 1.5), (6.0, 1.5)], K1)
    assert rl.limit == 1.5
    assert not rl.diverged


def test_radial_limit_flags_divergence():
    vals = [(r, math.exp(r)) for r in (4.0, 5.0, 6.0, 7.0)]
    rl = radial_limit(vals, K1)
    assert rl.diverged
    assert math.isnan(rl.limit)


def test_radial_limit_requires_three_points():
    with pytest.raises(ValueError):
        radial_limit([(4.0, 1.0), (5.0, 2.0)], K1)


def test_radial_limit_recovers_exponential_on_unequal_radii():
    k = ModelConstants(1.3)
    vals = [(r, 0.5 - 3.0 * math.exp(-1.5 * k.kappa * r))
            for r in (2.0, 3.5, 4.0, 6.5)]
    rl = radial_limit(vals, k)
    assert rl.limit == pytest.approx(0.5, rel=1e-12)
    assert rl.beta == pytest.approx(1.5, rel=1e-12)


def test_radial_limit_extrapolates_slow_decay_on_a_wider_last_gap():
    # On radii 3.5, 4, 6.5 a slow decay has d2/d1 > 1, inside the fit's
    # range 0 < d2/d1 < (r3 - r2)/(r2 - r1) = 5.
    k = ModelConstants(1.3)
    vals = [(r, 5.0 - 3.0 * math.exp(-0.8 * k.kappa * r))
            for r in (2.0, 3.5, 4.0, 6.5)]
    rl = radial_limit(vals, k)
    assert abs(rl.limit - 5.0) <= 1e-12
    assert rl.beta == pytest.approx(0.8, rel=1e-12)


@pytest.mark.parametrize("kappa,r0,h", [(1.0, 4.0, 1.0), (0.7, 2.0, 0.5),
                                        (2.0, 3.0, 1.7)])
def test_radial_limit_matches_aitken_on_equal_radii(kappa, r0, h):
    # Through three equally spaced points the fit is Aitken's delta-squared
    # process, in closed form.
    k = ModelConstants(kappa)
    rs = [r0, r0 + h, r0 + 2 * h]
    vs = [0.4 + 1.3 * math.exp(-kappa * r) - 0.6 * math.exp(-2.5 * kappa * r)
          for r in rs]
    d1, d2 = vs[1] - vs[0], vs[2] - vs[1]
    rl = radial_limit(list(zip(rs, vs)), k)
    assert rl.beta == pytest.approx(-math.log(d2 / d1) / (kappa * h), rel=1e-12)
    assert rl.limit == pytest.approx(vs[2] - d2**2 / (d2 - d1), rel=1e-12)


@pytest.mark.parametrize("kappa,r0,h", [(1.0, 4.0, 1.0), (0.7, 2.0, 0.5),
                                        (2.0, 3.0, 1.7)])
def test_fit_takes_one_newton_step_on_equal_radii(kappa, r0, h, monkeypatch):
    # On equal radii d2/d1 = x = exp(-beta kappa h) itself: the ratio is
    # evaluated at the two ends of the beta bracket and once at the start
    # x = d2/d1, whose Newton step is at roundoff and ends the iteration.
    calls = []

    def counted(x, q):
        calls.append(x)
        return increment_ratio(x, q)

    increment_ratio = geometry._increment_ratio
    monkeypatch.setattr(geometry, "_increment_ratio", counted)
    rs = [r0, r0 + h, r0 + 2 * h]
    vs = [0.4 + 1.3 * math.exp(-kappa * r) - 0.6 * math.exp(-2.5 * kappa * r)
          for r in rs]
    rl = radial_limit(list(zip(rs, vs)), ModelConstants(kappa))
    assert rl.beta is not None and len(calls) == 3
    assert calls[-1] == (vs[2] - vs[1]) / (vs[1] - vs[0])


@pytest.mark.parametrize("kappa,radii,beta,rel", [
    # Near the top of the bracket [1e-8, 60]: a fast decay over close radii.
    (1.0, (4.0, 4.1, 4.3), 59.0, 1e-13),
    (1.3, (3.5, 4.0, 6.5), 50.0 / 6.5, 1e-13),
    # Near the bottom: the data barely change, which limits the accuracy of
    # any fit to about 1e-16 / (beta kappa (r2 - r1)).
    (0.5, (2.0, 3.0, 5.5), 1e-4, 1e-8),
    (1.3, (2.0, 3.5, 4.0), 1e-3, 1e-8),
])
def test_fit_on_unequal_radii_near_the_ends_of_the_bracket(kappa, radii, beta,
                                                           rel):
    k = ModelConstants(kappa)
    vals = [(r, 0.5 + 3.0 * math.exp(-beta * kappa * (r - radii[0])))
            for r in radii]
    rl = radial_limit(vals, k)
    assert rl.beta == pytest.approx(beta, rel=rel)
    assert abs(rl.limit - 0.5) <= rel * 3.0 / (beta * kappa)


def test_fit_on_radii_closer_than_the_bracket_resolves():
    # exp(-1e-8 kappa (r2 - r1)) rounds to 1 when r2 - r1 < 1e-8: the fit
    # once divided by zero there, and the CLI ended in a traceback.  The first
    # difference is 4e-12 of the values, so the fit keeps about 4 digits.
    vals = [(r, 0.5 + 3.0 * math.exp(-2.0 * r)) for r in (4.0, 4.0 + 1e-9, 5.0)]
    rl = radial_limit(vals, K1)
    assert rl.beta == pytest.approx(2.0, rel=1e-3)
    assert rl.limit == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("vals", [
    # ratio d2/d1 = 2 >= 1: not a decaying exponential.
    [(4.0, 1.0), (5.0, 1.1), (6.0, 1.3)],
    # ratio 1e-3 < exp(-60 kappa h): no beta in the bracket fits.
    [(4.0, 1.0), (4.1, 2.0), (4.2, 2.001)],
])
def test_radial_limit_falls_back_to_last_value(vals):
    rl = radial_limit(vals, K1)
    assert rl.limit == vals[-1][1]
    assert rl.beta is None and not rl.diverged
    assert rl.residual == abs(vals[-1][1] - vals[-2][1])


def test_radial_limit_residual_is_the_change_between_triples():
    rs = [4.0, 5.0, 6.0, 7.0]
    vals = [(r, 0.5 + 0.3 * math.exp(-2 * r) + 0.2 * math.exp(-3 * r))
            for r in rs]
    # Three radii give one fit and nothing to assess it against.
    assert radial_limit(vals[1:], K1).residual is None
    first, last = radial_limit(vals[:3], K1), radial_limit(vals[1:], K1)
    rl = radial_limit(vals, K1)
    assert rl.limit == last.limit and rl.beta == last.beta
    assert rl.residual == abs(last.limit - first.limit) > 0


# Charges at 8^3 nodes, frozen from the code that found beta with scipy's
# brentq (xtol = rtol = 1e-14).
FROZEN_LIMITS = [
    ((4.0, 5.0, 6.0, 7.0), "bump", "e0", 0.03681553890929258),
    ((4.0, 5.0, 6.0, 7.0), "offdiag", "cp4", -0.0018407769454627763),
    ((2.0, 3.5, 4.0, 6.5), "bump", "e0", 0.03681553891565496),
    ((2.0, 3.5, 4.0, 6.5), "offdiag", "cp4", -0.0018407769454925676),
    ((3.0, 4.5, 5.0, 6.0), "bump", "e0", 0.03681553891028635),
    ((3.0, 4.5, 5.0, 6.0), "offdiag", "cp4", -0.0018407769454635706),
]


@pytest.mark.parametrize("radii,kind,name,frozen", FROZEN_LIMITS)
def test_radial_limit_matches_frozen_charges(radii, kind, name, frozen):
    model = {
        "bump": RadialBumpModel(m=0.1, constants=K1),
        "offdiag": OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                        constants=K1),
    }[kind]
    got = dict(zip(CHARGE_NAMES,
                   compute_charges(model, QuadratureSpec(8, 8, 8, radii)).values()))
    assert got.pop(name) == pytest.approx(frozen, rel=1e-12)
    assert all(v == 0.0 for v in got.values())
