"""Tests for the data models, aspect fields, decay checks and file format."""

import hashlib
import math

import numpy as np
import pytest

from adspet import initial_data
from adspet.geometry import (
    DegenerateCoordinateError,
    ModelConstants,
    NumericalError,
    frame_scales,
    sphere_grid,
    spin_connection_grid,
)
from adspet.initial_data import (
    ANGULAR_PROFILES,
    AdsExactModel,
    GridModel,
    InitialDataModel,
    OffdiagMomentumModel,
    RadialBumpModel,
    _decay_exponent,
    angular_factors,
    decay_validate,
    mass_aspect_grid,
    model_from_config,
    model_registry,
    momentum_aspect_grid,
    read_grid_file,
    write_grid_file,
)

K1 = ModelConstants(1.0)
# A point (r, theta, psi, phi) of the slice.
P = (2.0, 1.1, 0.9, 2.3)


def e1_of(model, r, theta, psi, phi):
    """The mass aspect of a model's own fields at the nodes."""
    nodes = (r, theta, psi, phi)
    return mass_aspect_grid(*model.a_and_da(*nodes), r,
                            angular_factors(theta, psi), model.constants)


def p_of(model, r, theta, psi, phi):
    """The momentum aspect of a model's own fields at the nodes."""
    nodes = (r, theta, psi, phi)
    return momentum_aspect_grid(model.a(*nodes), model.h(*nodes))


def bump_e1(m, sigma, kappa, r):
    # Hand-derived closed form for the radial component of the mass aspect
    # of a = f delta: the divergence term contributes f', the trace gradient
    # -4 f', and the linear correction 3 kappa f + 4 kappa f^2, giving
    # -3 f' + 3 kappa f + 4 kappa f^2 with f = m exp(-sigma kappa r).
    f = m * math.exp(-sigma * kappa * r)
    return 3.0 * (sigma + 1.0) * kappa * f + 4.0 * kappa * f * f


def test_ads_exact_fields_vanish():
    model = AdsExactModel(K1)
    assert np.all(model.a(2.0, 1.0, 1.0, 1.0) == 0.0)
    assert np.all(model.h(2.0, 1.0, 1.0, 1.0) == 0.0)
    assert e1_of(model, *P) == 0.0
    assert np.all(p_of(model, *P) == 0.0)


def test_radial_bump_field_values():
    model = RadialBumpModel(m=0.1, sigma=4.0, constants=K1)
    a = model.a(2.0, 1.0, 1.0, 1.0)
    assert a.shape == (4, 4)
    assert a[0, 0] == pytest.approx(0.1 * math.exp(-8.0))
    assert a[1, 1] == a[0, 0] and a[0, 1] == 0.0
    assert np.all(model.h(2.0, 1.0, 1.0, 1.0) == 0.0)


def test_radial_bump_mass_aspect_closed_form():
    for sigma in (4.0, 3.0):
        model = RadialBumpModel(m=0.1, sigma=sigma, constants=K1)
        e1 = e1_of(model, *P)
        assert e1 == pytest.approx(bump_e1(0.1, sigma, 1.0, P[0]), rel=1e-12)


def test_radial_bump_mass_aspect_other_kappa():
    k2 = ModelConstants(2.0)
    model = RadialBumpModel(m=0.05, sigma=4.0, constants=k2)
    e1 = e1_of(model, 1.5, 1.0, 1.0, 1.0)
    assert e1 == pytest.approx(bump_e1(0.05, 4.0, 2.0, 1.5), rel=1e-12)


def _assert_close(got, want, rel=1e-14):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), np.max(np.abs(got - want))


@pytest.mark.parametrize("kappa", [1.0, 1.7])
def test_radial_bump_derivative_closed_form(kappa):
    # da is the complex step; the closed form d_r a = -sigma kappa a, with
    # no angular derivative, is the reference.  a is the step's real part:
    # a() to the last bit, which numpy's complex exp (the C library's) and
    # its real exp (its own) round apart at a few percent of radii.
    k = ModelConstants(kappa)
    model = RadialBumpModel(m=0.1, sigma=4.0, constants=k)

    def want(r, shape):
        out = np.zeros((4,) + shape + (4, 4))
        out[0] = (-4.0 * kappa * 0.1 * np.exp(-4.0 * kappa * r))[..., None, None] * np.eye(4)
        return out

    a, da = model.a_and_da(2.0, 1.0, 1.0, 1.0)
    _assert_close(da, want(np.float64(2.0), ()))
    _assert_close(a, model.a(2.0, 1.0, 1.0, 1.0), rel=2 ** -52)
    g = sphere_grid(8, 6, 10)
    radii = np.array([4.0, 5.0, 6.5, 7.0]).reshape(-1, 1, 1, 1)
    a, da = model.a_and_da(radii, g.theta, g.psi, g.phi)
    assert da.shape == (4, 4, 1, 1, 1, 4, 4)
    _assert_close(da, want(radii, radii.shape))
    _assert_close(a, model.a(radii, g.theta, g.psi, g.phi), rel=2 ** -52)


class AllCoordinatesModel(InitialDataModel):
    """a = m exp(-4 kappa r) sin(theta) cos(psi) sin(phi) delta_ij, h = 0:
    a field with a derivative along every coordinate and no a_and_da of
    its own."""

    name = "all_coordinates"

    def __init__(self, m, constants):
        super().__init__(4.0, constants)
        self.m = m

    def a(self, r, theta, psi, phi):
        f = (self.m * np.exp(-4.0 * self.constants.kappa * np.asarray(r))
             * np.sin(theta) * np.cos(psi) * np.sin(phi))
        return f[..., None, None] * np.eye(4)

    def h(self, r, theta, psi, phi):
        return np.zeros(np.shape(self.a(r, theta, psi, phi)))


@pytest.mark.parametrize("kappa", [1.0, 1.7])
def test_complex_step_matches_the_closed_form_on_every_axis(kappa):
    k = ModelConstants(kappa)
    model = AllCoordinatesModel(0.3, k)
    g = sphere_grid(8, 6, 10)
    r, t, p, f = np.array([4.0, 5.5]).reshape(-1, 1, 1, 1), g.theta, g.psi, g.phi
    rad = 0.3 * np.exp(-4.0 * kappa * r)
    want = np.stack(np.broadcast_arrays(
        -4.0 * kappa * rad * np.sin(t) * np.cos(p) * np.sin(f),
        rad * np.cos(t) * np.cos(p) * np.sin(f),
        -rad * np.sin(t) * np.sin(p) * np.sin(f),
        rad * np.sin(t) * np.cos(p) * np.cos(f)))[..., None, None] * np.eye(4)
    a, da = model.a_and_da(r, t, p, f)
    _assert_close(da, want)
    _assert_close(a, model.a(r, t, p, f))


def test_complex_step_refuses_a_model_that_drops_it():
    # A cast of the coordinates to float throws the imaginary step away and
    # would read as a zero derivative.
    class CastingModel(RadialBumpModel):
        name = "casting"

        def a(self, r, theta, psi, phi):
            return super().a(np.asarray(r, dtype=float), theta, psi, phi)

    model = CastingModel(m=0.1, constants=K1)
    g = sphere_grid(8, 6, 10)
    with pytest.raises(TypeError, match="model 'casting'.*imaginary part"):
        model.a_and_da(5.0, g.theta, g.psi, g.phi)
    with pytest.raises(TypeError, match="model 'casting'"):
        decay_validate(model, (4.0, 5.0, 6.0))


def test_only_grid_models_define_their_own_derivative():
    # Every analytic model takes the one complex-step a_and_da of the base
    # class; file data are not analytic, so grid models differentiate their
    # samples.
    classes = [cls for cls in vars(initial_data).values()
               if isinstance(cls, type) and issubclass(cls, InitialDataModel)
               and cls is not InitialDataModel]
    assert {cls.name for cls in classes} == {
        "ads_exact", "radial_bump", "offdiag_momentum", "grid"}
    assert [cls for cls in classes if "a_and_da" in vars(cls)] == [GridModel]
    assert not any(hasattr(cls, "da_coord") for cls in classes + [InitialDataModel])
    assert not any(hasattr(cls, "fd_step") for cls in classes + [InitialDataModel])


def test_mass_aspect_quadratic_remainder():
    # The aspect has a linear and a quadratic part in the amplitude:
    # E(2m) - 2 E(m) isolates the quadratic term, which scales by 4.
    def e1(m):
        return e1_of(RadialBumpModel(m=m, constants=K1), *P)

    quad_1 = e1(0.2) - 2.0 * e1(0.1)
    quad_2 = e1(0.4) - 2.0 * e1(0.2)
    assert quad_2 == pytest.approx(4.0 * quad_1, rel=1e-9)


def test_offdiag_momentum_aspect():
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                 constants=K1)
    pa = p_of(model, *P)
    expect = 0.05 * math.exp(-4.0 * P[0]) * math.sin(P[1])
    # trace-free field, so the aspect equals h itself
    assert pa[1, 0] == pytest.approx(expect, rel=1e-13)
    assert pa[0, 1] == pytest.approx(expect, rel=1e-13)
    assert pa[2, 2] == 0.0


def test_momentum_aspect_trace_adjustment():
    class DiagH(OffdiagMomentumModel):
        def h(self, r, theta, psi, phi):
            shape = np.broadcast(
                np.asarray(r, dtype=float), np.asarray(theta, dtype=float),
                np.asarray(psi, dtype=float), np.asarray(phi, dtype=float),
            ).shape
            return np.broadcast_to(np.eye(4), shape + (4, 4)).copy()

    model = DiagH(q=0.0, axis=2, constants=K1)
    pa = p_of(model, *P)
    # h = Id, tr h = 4, a = 0: P = Id - 4 Id = -3 Id
    assert np.allclose(pa, -3.0 * np.eye(4))


def test_model_validation():
    with pytest.raises(ValueError):
        RadialBumpModel(m=0.1, sigma=1.5, constants=K1)
    with pytest.raises(ValueError):
        OffdiagMomentumModel(q=0.1, axis=1, constants=K1)
    with pytest.raises(ValueError):
        OffdiagMomentumModel(q=0.1, axis=2, profile="nope", constants=K1)


def test_registry_and_config_round_trip():
    model = model_registry("radial_bump", {"m": 0.2, "sigma": 3.0}, K1)
    assert isinstance(model, RadialBumpModel)
    again = model_from_config(model.config(), K1)
    assert again.m == model.m and again.sigma == model.sigma
    text = '{"name": "offdiag_momentum", "params": {"q": 0.1, "axis": 3}}'
    m2 = model_from_config(text, K1)
    assert isinstance(m2, OffdiagMomentumModel) and m2.axis == 3
    with pytest.raises(ValueError):
        model_registry("unknown", {}, K1)


def test_angular_profiles_cover_basic_modes():
    assert set(ANGULAR_PROFILES) == {
        "one", "sin_theta", "cos_theta", "sin_psi", "cos_psi",
        "sin_phi", "cos_phi",
    }
    val = ANGULAR_PROFILES["cos_phi"](0.5, 0.5, np.array([0.0, math.pi]))
    assert np.allclose(val, [1.0, -1.0])


def test_decay_validation_passes_and_fails():
    ok = decay_validate(RadialBumpModel(m=0.1, sigma=4.0, constants=K1),
                        (4.0, 5.0, 6.0, 7.0))
    assert ok.passed and not ok.vacuous
    assert ok.sigma_a == pytest.approx(4.0, abs=1e-6)

    # decays like e^{-kappa r}: slower than its declared order
    class SlowModel(RadialBumpModel):
        def a(self, r, theta, psi, phi):
            return np.exp(-np.asarray(r))[..., None, None] * np.eye(4)

    bad = decay_validate(SlowModel(m=0.1, sigma=4.0, constants=K1),
                         (4.0, 5.0, 6.0, 7.0))
    assert not bad.passed
    assert bad.sigma_a == pytest.approx(1.0, abs=1e-3)


def test_decay_validation_vacuous_on_exact_ads():
    rep = decay_validate(AdsExactModel(K1), (4.0, 5.0, 6.0))
    assert rep.passed and rep.vacuous


def test_grid_file_round_trip(tmp_path):
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                 constants=K1)
    path = tmp_path / "data.aads"
    radii = (4.0, 4.5, 5.0, 5.5)
    write_grid_file(path, model, radii=radii, ntheta=6, npsi=6, nphi=6)
    loaded = read_grid_file(path)
    assert isinstance(loaded, GridModel)
    assert loaded.constants.kappa == 1.0
    assert loaded.tau == model.tau
    g = loaded.grid
    h_orig = np.broadcast_to(model.h(4.5, g.theta, g.psi, g.phi),
                             (6, 6, 6, 4, 4))
    assert np.allclose(loaded.h(4.5, g.theta, g.psi, g.phi), h_orig)
    # exact round trip: repr() of floats preserves every bit
    assert np.array_equal(loaded.h_data[1], h_orig)


def test_grid_model_guards(tmp_path):
    model = RadialBumpModel(m=0.1, constants=K1)
    path = tmp_path / "data.aads"
    write_grid_file(path, model, radii=(4.0, 5.0, 6.0), ntheta=6, npsi=6,
                    nphi=6)
    loaded = read_grid_file(path)
    g = loaded.grid
    with pytest.raises(ValueError):
        loaded.a(4.7, g.theta, g.psi, g.phi)
    with pytest.raises(ValueError):
        loaded.a(4.0, g.theta + 0.01, g.psi, g.phi)


def test_grid_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.aads"
    path.write_text("not-a-grid 7\n")
    with pytest.raises(ValueError):
        read_grid_file(path)


def test_grid_file_rejects_short_body(tmp_path):
    model = RadialBumpModel(m=0.1, constants=K1)
    path = tmp_path / "data.aads"
    write_grid_file(path, model, radii=(4.0, 5.0, 6.0), ntheta=6, npsi=6,
                    nphi=6)
    lines = path.read_text().splitlines()
    (tmp_path / "short.aads").write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(ValueError):
        read_grid_file(tmp_path / "short.aads")


def test_grid_model_angular_derivatives(tmp_path):
    # Spectral differentiation on the sampled grid should reproduce the
    # analytic angular derivative of a smooth profile to high accuracy.
    class AngularBump(RadialBumpModel):
        def a(self, r, theta, psi, phi):
            shape = np.broadcast(
                np.asarray(r, dtype=float), np.asarray(theta, dtype=float),
                np.asarray(psi, dtype=float), np.asarray(phi, dtype=float),
            ).shape
            f = (self.m * np.exp(-4.0 * np.asarray(r, dtype=float))
                 * np.sin(theta) ** 2 * np.ones(shape))
            return f[..., None, None] * np.eye(4)

    model = AngularBump(m=0.1, sigma=4.0, constants=K1)
    path = tmp_path / "ang.aads"
    write_grid_file(path, model, radii=(4.0, 4.2, 4.4), ntheta=12, npsi=8,
                    nphi=8)
    loaded = read_grid_file(path)
    g = loaded.grid
    da = loaded.a_and_da(4.2, g.theta, g.psi, g.phi)[1]
    th = g.theta[:, 0, 0]
    expect = 0.1 * math.exp(-16.8) * 2.0 * np.sin(th) * np.cos(th)
    got = da[1][:, 0, 0, 0, 0]
    assert np.allclose(got, expect, atol=1e-12)


def test_grid_model_radial_derivative_exact_for_quadratics():
    # The three-point stencil differentiates a quadratic in r exactly at
    # every listed radius, the two end radii included, on uneven spacing.
    radii = np.array([4.0, 4.3, 5.1, 5.5, 6.7])
    pattern = np.arange(1.0, 17.0).reshape(4, 4)
    base = np.broadcast_to(pattern, (4, 4, 4, 4, 4))
    a_data = np.stack([(0.7 - 0.2 * r + 0.05 * r**2) * base for r in radii])
    model = GridModel(radii, 4, 4, 4, a_data, np.zeros_like(a_data), 3.0, K1)
    g = model.grid
    for r in radii:
        got = model.a_and_da(r, g.theta, g.psi, g.phi)[1][0]
        expect = (-0.2 + 0.1 * r) * base
        assert np.allclose(got, expect, rtol=1e-12, atol=0.0), r


def test_mass_aspect_grid_shape():
    model = RadialBumpModel(m=0.1, constants=K1)
    th = np.linspace(0.3, 2.8, 4)[:, None]
    ps = np.linspace(0.3, 2.8, 3)[None, :]
    out = e1_of(model, 3.0, th, ps, 0.5)
    assert out.shape == (4, 3)


class TiltedModel(InitialDataModel):
    """a = f(r) (S + g(angles) B) with B off-diagonal, so a_12 and a_13
    feed the cot(theta) and cot(psi) connection terms of e_1."""

    name = "tilted"
    S = np.array([[1.0, 0.3, -0.2, 0.1], [0.3, 0.5, 0.0, 0.2],
                  [-0.2, 0.0, -0.4, 0.0], [0.1, 0.2, 0.0, 0.7]])
    B = np.array([[0.2, 1.0, 0.8, 0.0], [1.0, 0.0, 0.3, 0.0],
                  [0.8, 0.3, 0.0, -0.5], [0.0, 0.0, -0.5, 0.1]])

    def __init__(self, m):
        super().__init__(4.0, K1)
        self.m = m

    def _fields(self, r, t, p, f):
        r, t, p, f = np.broadcast_arrays(*(np.asarray(x, float) for x in (r, t, p, f)))
        rad = self.m * np.exp(-4.0 * r)
        g = np.sin(t) * np.cos(p) + 0.5 * np.cos(f) * np.sin(p)
        dg = (np.cos(t) * np.cos(p),
              -np.sin(t) * np.sin(p) + 0.5 * np.cos(f) * np.cos(p),
              -0.5 * np.sin(f) * np.sin(p))
        return rad[..., None, None], g[..., None, None], [d[..., None, None] for d in dg]

    def a(self, r, theta, psi, phi):
        rad, g, _ = self._fields(r, theta, psi, phi)
        return rad * (self.S + g * self.B)

    def h(self, r, theta, psi, phi):
        return np.zeros_like(self.a(r, theta, psi, phi))

    def a_and_da(self, r, theta, psi, phi):
        rad, g, dg = self._fields(r, theta, psi, phi)
        return rad * (self.S + g * self.B), np.stack(
            [-4.0 * rad * (self.S + g * self.B)] + [rad * d * self.B for d in dg])


def test_mass_aspect_frozen_on_angle_dependent_data():
    # e_1 frozen from the dense four-component connection contraction.
    model = TiltedModel(0.3)
    frozen = {
        (2.0, 1.1, 0.9, 2.3): 0.0006651606772866113,
        (1.5, 0.4, 2.6, 0.7): 0.004752255545457063,
        (3.0, 2.7, 0.3, 5.1): 1.1809406147049255e-05,
    }
    for point, e1 in frozen.items():
        assert e1_of(model, *point) == pytest.approx(e1, rel=1e-12)


def dense_mass_aspect(model, r, theta, psi, phi):
    """e_1 from the whole (4, 4, 4) spin connection, contracted as
    (nabla_j a)_{1j} = e_j(a_1j) - omega_{k1 j} a_kj - omega_{kj j} a_1k.

    Returns e_1 and the largest absolute value of its terms."""
    k = model.constants
    a, da = model.a_and_da(r, theta, psi, phi)
    scales = frame_scales(r, theta, psi, k)
    omega = spin_connection_grid(r, theta, psi, k)
    terms = [da[j][..., 0, j] / scales[j] for j in range(4)]
    terms.append(-np.einsum("kj...,...kj->...", omega[:, 0, :], a))
    terms.append(-np.einsum("k...,...k->...", np.einsum("kjj...->k...", omega),
                            a[..., 0, :]))
    terms.append(-np.einsum("...ii->...", da[0]))
    tra = np.einsum("...ii->...", a)
    terms.append(-k.kappa * (a[..., 0, 0] - (1.0 + a[..., 0, 0]) * tra))
    return sum(terms), max(np.max(np.abs(t)) for t in terms)


class FixedFieldsModel(InitialDataModel):
    """Given a and da at every node of one grid, at any radius."""

    name = "fixed"

    def __init__(self, a, da, constants):
        super().__init__(4.0, constants)
        self._a, self._da = a, da

    def a(self, r, theta, psi, phi):
        return self._a

    def h(self, r, theta, psi, phi):
        return np.zeros_like(self._a)

    def a_and_da(self, r, theta, psi, phi):
        return self._a, self._da


@pytest.mark.parametrize("kappa", [1.0, 1.7])
def test_mass_aspect_closed_form_matches_the_dense_contraction(kappa):
    # The closed form reads three connection factors; the oracle contracts
    # the whole connection, on angle-dependent data with every component
    # of a and da nonzero (and a not symmetric, so no index may be swapped).
    k = ModelConstants(kappa)
    grid = sphere_grid(6, 8, 10)
    angles = (grid.theta, grid.psi, grid.phi)
    rng = np.random.default_rng(int(10 * kappa))
    tilted = TiltedModel(0.3)
    tilted.constants = k
    models = [tilted, FixedFieldsModel(rng.standard_normal(grid.shape + (4, 4)),
                                       rng.standard_normal((4,) + grid.shape + (4, 4)),
                                       k)]
    for model in models:
        for r in (1.5, 4.0, 7.0):
            got = e1_of(model, r, *angles)
            want, scale = dense_mass_aspect(model, r, *angles)
            assert got.shape == want.shape == grid.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (model.name, r)


def test_mass_aspect_rejects_poles_and_nonpositive_radii():
    model = RadialBumpModel(m=0.1, constants=K1)
    for r, theta, psi in ((2.0, 0.0, 1.0), (2.0, math.pi, 1.0), (2.0, 1.0, 0.0),
                          (2.0, 1.0, math.pi), (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0)):
        with pytest.raises(DegenerateCoordinateError):
            e1_of(model, r, theta, psi, 0.5)
    # One pole node on a grid is enough.
    with pytest.raises(DegenerateCoordinateError, match="theta pole"):
        e1_of(model, 2.0, np.array([0.5, 0.0])[:, None, None],
              np.full((1, 3, 1), 1.0), 0.5)


@pytest.mark.parametrize("r", [800.0,
                               np.array([4.0, 800.0, 900.0])[:, None, None, None]])
def test_mass_aspect_overflow_is_a_numerical_failure(r):
    # 1/f = kappa / sinh(kappa r) needs sinh, which overflows a float past
    # r ~ 710: math's OverflowError once escaped from the public function.
    g = sphere_grid(8, 8, 8)
    with pytest.raises(NumericalError, match="overflow at r = 800$"):
        e1_of(RadialBumpModel(m=0.1, constants=K1), r, g.theta, g.psi, g.phi)


def test_mass_aspect_takes_a_batch_of_radii():
    g = sphere_grid(6, 8, 10)
    radii = np.array([1.5, 4.0, 7.0])
    model = TiltedModel(0.3)
    got = e1_of(model, radii[:, None, None, None], g.theta, g.psi, g.phi)
    assert got.shape == (3,) + g.shape
    for i, r in enumerate(radii):
        assert np.array_equal(got[i], e1_of(model, r, g.theta, g.psi, g.phi))


def test_grid_model_takes_a_batch_of_radii(tmp_path):
    # Radii on an axis of their own ahead of the angles give each field at
    # every listed radius, as the surface pass asks for them.
    radii = (4.0, 4.3, 5.1, 5.5)
    path = tmp_path / "data.aads"
    write_grid_file(path, TiltedModel(0.3), radii, 6, 4, 6)
    model = read_grid_file(path)
    g = model.grid
    angles = (g.theta, g.psi, g.phi)
    batch = np.array([5.1, 4.0, 5.5])
    fields = {"a": model.a, "h": model.h,
              "a of a_and_da": lambda *x: model.a_and_da(*x)[0],
              "da": lambda *x: model.a_and_da(*x)[1]}
    for name, f in fields.items():
        got = f(batch[:, None, None, None], *angles)
        want = np.stack([f(r, *angles) for r in batch], axis=-6)
        assert np.array_equal(got, want), name
    with pytest.raises(ValueError, match="own radii"):
        model.a(np.array([4.0, 4.7])[:, None, None, None], *angles)


# Field shapes S of a and h on the 32^3 sphere grid: length 1 along every
# angle the bundled model does not depend on.
OWN_SHAPES = [
    (AdsExactModel(K1), (1, 1, 1), (1, 1, 1)),
    (RadialBumpModel(m=0.1, constants=K1), (1, 1, 1), (1, 1, 1)),
    (OffdiagMomentumModel(0.1, 2, "one", constants=K1), (1, 1, 1), (1, 1, 1)),
    (OffdiagMomentumModel(0.1, 2, "sin_theta", constants=K1), (1, 1, 1), (32, 1, 1)),
    (OffdiagMomentumModel(0.1, 4, "cos_psi", constants=K1), (1, 1, 1), (1, 32, 1)),
    (OffdiagMomentumModel(0.1, 3, "sin_phi", constants=K1), (1, 1, 1), (1, 1, 32)),
]


@pytest.mark.parametrize("model,shape_a,shape_h", OWN_SHAPES,
                         ids=[m.config()["params"].get("profile", m.name)
                              for m, _, _ in OWN_SHAPES])
def test_analytic_fields_keep_their_own_angular_shape(model, shape_a, shape_h):
    g = sphere_grid(32, 32, 32)
    angles = (g.theta, g.psi, g.phi)
    (a, da), h = model.a_and_da(5.0, *angles), model.h(5.0, *angles)
    assert a.shape == shape_a + (4, 4)
    assert h.shape == shape_h + (4, 4)
    assert da.shape == (4,) + shape_a + (4, 4)
    # The same values as with the angles spread to every node.
    full = np.broadcast_arrays(*angles)
    for own, f in ((a, model.a), (h, model.h)):
        assert np.array_equal(np.broadcast_to(own, g.shape + (4, 4)),
                              np.broadcast_to(f(5.0, *full), g.shape + (4, 4)))


def test_radial_bump_mass_aspect_has_no_phi_axis():
    g = sphere_grid(32, 32, 32)
    e1 = e1_of(RadialBumpModel(m=0.1, constants=K1), 5.0,
                          g.theta, g.psi, g.phi)
    assert e1.size <= 32 * 32
    assert np.all(e1 == pytest.approx(bump_e1(0.1, 4.0, 1.0, 5.0), rel=1e-12))


# sha256 of write_grid_file output at radii 4, 5, 6 on a 4 x 4 x 6 grid,
# taken from the code that evaluated every field at every node.
FROZEN_GRID_FILES = {
    '{"name": "radial_bump", "params": {"m": 0.3}}':
        "e7b99162302fb1fb29602f2f33c1f03b0ccc3d6922bd6920886a02f871ccf9dc",
    '{"name": "offdiag_momentum", "params": {"q": 0.2, "axis": 2, "profile": "sin_phi"}}':
        "7cf54a584fa6add816976e0f8463b19658a4848adbf86176a14b328003230382",
}


@pytest.mark.parametrize("config", sorted(FROZEN_GRID_FILES))
def test_write_grid_file_bytes_frozen(tmp_path, config):
    path = tmp_path / "model.aads"
    write_grid_file(path, model_from_config(config), [4.0, 5.0, 6.0], 4, 4, 6)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FROZEN_GRID_FILES[config]


def _count_field_calls(model, monkeypatch):
    # The radii each field is called with, one entry per call.
    calls = {}
    for name in ("a", "h", "a_and_da"):
        def counted(*args, _name=name, _f=getattr(model, name)):
            calls.setdefault(_name, []).append(np.shape(args[0])[-4:])
            return _f(*args)
        monkeypatch.setattr(model, name, counted)
    return calls


DECAY_MODELS = [AdsExactModel(K1), RadialBumpModel(m=0.1, constants=K1),
                OffdiagMomentumModel(0.05, 3, "sin_phi", constants=K1)]


@pytest.mark.parametrize("model", DECAY_MODELS, ids=lambda m: m.name)
def test_decay_evaluates_every_radius_at_once(model, monkeypatch):
    # Each field is evaluated once, with the radii on an axis of their own
    # (a once, at the four complex steps inside a_and_da, whose real part is
    # a itself); the exponents are those of one sphere at a time, bit for bit.
    radii = (4.0, 5.0, 6.5, 7.0)
    g = sphere_grid(8, 8, 8)
    norms = {name: [np.max(np.abs(f(r, g.theta, g.psi, g.phi)))
                    for r in radii]
             for name, f in (("a", model.a), ("h", model.h),
                             ("da", lambda *x: model.a_and_da(*x)[1][0]))}
    calls = _count_field_calls(model, monkeypatch)
    rep = decay_validate(model, radii)
    every = (len(radii), 1, 1, 1)
    assert calls == {"a": [every], "h": [every], "a_and_da": [every]}
    for field, name in (("sigma_a", "a"), ("sigma_h", "h"), ("sigma_grad_a", "da")):
        assert getattr(rep, field) == _decay_exponent(norms[name], radii, 1.0)


def test_write_grid_file_evaluates_every_radius_at_once(tmp_path, monkeypatch):
    model = OffdiagMomentumModel(0.05, 3, "sin_phi", constants=K1)
    calls = _count_field_calls(model, monkeypatch)
    write_grid_file(tmp_path / "data.aads", model, (4.0, 5.0, 6.0), 4, 4, 6)
    assert calls == {"a": [(3, 1, 1, 1)], "h": [(3, 1, 1, 1)]}
