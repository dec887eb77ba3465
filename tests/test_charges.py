"""Tests for the fifteen charges: oracles, selection rules, extrapolation."""

import math
import tracemalloc

import numpy as np
import pytest

from adspet import charges
from adspet.charges import (
    CHARGE_NAMES,
    J_ORDER,
    ChargeSet,
    _COSH,
    _PREFACTOR,
    _grid_and_factors,
    _radial_factor_table,
    _radial_factors,
    _reduced_table,
    _surface_integrals,
    charge_surface_values,
    compute_charges,
    derived,
)
from adspet.geometry import (
    _RADIAL_FUNCTIONS,
    DegenerateCoordinateError,
    ModelConstants,
    NumericalError,
    QuadratureSpec,
    _radial_table,
    _radial_values,
    sphere_grid,
)
from adspet.initial_data import (
    ANGULAR_PROFILES,
    AdsExactModel,
    InitialDataModel,
    OffdiagMomentumModel,
    RadialBumpModel,
    angular_factors,
    mass_aspect_grid,
    read_grid_file,
    write_grid_file,
)
from adspet.killing import killing_radial_scale, killing_vector_frame

K1 = ModelConstants(1.0)
Q_STD = QuadratureSpec(16, 16, 16, (4.0, 5.0, 6.0, 7.0))

# All fifteen charges at Q_STD, frozen from the code that built every
# Killing frame per radius and all four mass-aspect components.
FROZEN = {
    "radial_bump": (
        RadialBumpModel(m=0.1, constants=K1),
        {"e0": 0.03681553890929254},
    ),
    "offdiag_sin_theta": (
        OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta", constants=K1),
        {"cp4": -0.0018407769454627737},
    ),
    "offdiag_sin_phi": (
        OffdiagMomentumModel(q=0.05, axis=2, profile="sin_phi", constants=K1),
        {"j24": -0.0009638285550122062},
    ),
    "ads_exact": (AdsExactModel(K1), {}),
}

# Independent Gauss-Legendre quadrature of the energy integrand at r = 10
# with 64 nodes per angle, frozen from a standalone script.  Its residual
# against the closed form 15 pi m / 128 is 4.13e-9.
BUMP_E0_BRUTE = 0.03681553875749043


def test_exact_ads_all_charges_vanish():
    cs = compute_charges(AdsExactModel(K1), Q_STD)
    assert np.all(np.abs(cs.values()) < 1e-10)
    assert not cs.any_diverged


def test_radial_bump_energy_against_oracles():
    cs = compute_charges(RadialBumpModel(m=0.1, sigma=4.0, constants=K1), Q_STD)
    closed = 15.0 * math.pi * 0.1 / 128.0
    assert cs.e0 == pytest.approx(BUMP_E0_BRUTE, rel=1e-6)
    assert cs.e0 == pytest.approx(closed, rel=1e-8)
    others = cs.values()[1:]
    assert np.all(np.abs(others) < 1e-8)
    assert cs.diagnostics["e0"].quadrature_converged


def test_energy_scales_with_amplitude():
    # the quadratic correction dies at infinity, so E0 is linear in m
    cs1 = compute_charges(RadialBumpModel(m=0.05, constants=K1), Q_STD)
    cs2 = compute_charges(RadialBumpModel(m=0.1, constants=K1), Q_STD)
    assert cs2.e0 == pytest.approx(2.0 * cs1.e0, rel=1e-9)


def test_energy_kappa_scaling():
    # E0 = 15 pi m / (128 kappa^2)
    k2 = ModelConstants(2.0)
    q = QuadratureSpec(16, 16, 16, (2.0, 2.5, 3.0, 3.5))
    cs = compute_charges(RadialBumpModel(m=0.1, constants=k2), q)
    assert cs.e0 == pytest.approx(15.0 * math.pi * 0.1 / (128.0 * 4.0),
                                  rel=1e-8)


def test_offdiag_momentum_selection():
    # hand-derived: h_12 = q e^{-4r} sin(theta) activates only c'_4, with
    # closed form -3 pi q / 256 from the sin^4(theta) angular moment.
    cs = compute_charges(
        OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                             constants=K1), Q_STD
    )
    assert cs.cp[3] == pytest.approx(-3.0 * math.pi * 0.05 / 256.0, rel=1e-9)
    assert cs.cp[3] == pytest.approx(-0.001840776945462779, rel=1e-12)
    mask = np.abs(cs.values()) > 1e-12
    assert list(np.nonzero(mask)[0]) == [CHARGE_NAMES.index("cp4")]


def test_offdiag_momentum_linear_in_q():
    def cp4(q):
        model = OffdiagMomentumModel(q=q, axis=2, profile="sin_theta",
                                     constants=K1)
        return compute_charges(model, Q_STD).cp[3]

    assert cp4(0.1) == pytest.approx(2.0 * cp4(0.05), rel=1e-12)


def test_offdiag_angular_momentum_selection():
    # h_12 ~ sin(phi) sources exactly one angular momentum: pairing with the
    # theta leg of the (2, 4) rotation gives J_24 = -q pi^2 / 512 by hand
    # (angular moments pi/2 * pi/2 * pi, radial limit q/16).
    cs = compute_charges(
        OffdiagMomentumModel(q=0.05, axis=2, profile="sin_phi",
                             constants=K1), Q_STD
    )
    assert cs.j[J_ORDER.index((2, 4))] == pytest.approx(
        -0.05 * math.pi**2 / 512.0, rel=1e-9)
    mask = np.abs(cs.values()) > 1e-12
    assert list(np.nonzero(mask)[0]) == [CHARGE_NAMES.index("j24")]


def test_surface_values_settle_with_radius():
    model = RadialBumpModel(m=0.1, constants=K1)
    v6 = charge_surface_values(model, 6.0, 16, 16, 16).values[0]
    v8 = charge_surface_values(model, 8.0, 16, 16, 16).values[0]
    closed = 15.0 * math.pi * 0.1 / 128.0
    assert abs(v8 - closed) < abs(v6 - closed)
    assert v8 == pytest.approx(closed, rel=1e-6)


def test_radii_schedule_stability():
    model = RadialBumpModel(m=0.1, constants=K1)
    alt = QuadratureSpec(16, 16, 16, (4.5, 5.5, 6.5, 7.5))
    cs_a = compute_charges(model, Q_STD)
    cs_b = compute_charges(model, alt)
    assert cs_a.e0 == pytest.approx(cs_b.e0, rel=1e-9)


def test_derived_quantities_examples():
    cs = ChargeSet(e0=2.0, c=np.zeros(4), cp=np.zeros(4),
                   j=np.array([1.0, 0, 0, 0, 0, 0]))  # J12 = 1
    d = derived(cs)
    assert np.allclose(d.jhat, [0.0, 0.0, 1.0])
    assert d.l_squared == pytest.approx(2.0)
    assert d.a_total == pytest.approx(1.0)

    cs2 = ChargeSet(e0=3.0, c=np.array([0, 0, 0, 3.0]), cp=np.zeros(4),
                    j=np.zeros(6))
    d2 = derived(cs2)
    assert d2.a_total == pytest.approx(9.0)
    assert d2.l_squared == 0.0


def test_charge_set_as_dict():
    cs = ChargeSet(e0=1.5, c=np.arange(4.0), cp=np.zeros(4), j=np.zeros(6))
    d = cs.as_dict()
    assert d["e0"] == 1.5
    assert d["c"] == [0.0, 1.0, 2.0, 3.0]
    assert d["j"]["12"] == 0.0


def test_values_ordering():
    cs = ChargeSet(e0=1.0, c=np.array([2, 3, 4, 5.0]),
                   cp=np.array([6, 7, 8, 9.0]),
                   j=np.array([10, 11, 12, 13, 14, 15.0]))
    assert np.array_equal(cs.values(), np.arange(1.0, 16.0))
    assert len(CHARGE_NAMES) == 15


@pytest.mark.parametrize("kind", sorted(FROZEN))
def test_charges_match_frozen_values(kind):
    model, nonzero = FROZEN[kind]
    frozen = np.array([nonzero.get(name, 0.0) for name in CHARGE_NAMES])
    got = compute_charges(model, Q_STD).values()
    scale = np.max(np.abs(frozen))
    assert np.max(np.abs(got - frozen)) <= 1e-12 * scale
    if kind == "ads_exact":
        assert np.all(got == 0.0)


def test_charges_linear_down_to_tiny_amplitudes():
    # The zero-column cutoff is relative to the data, so a charge stays at
    # its closed form however small the amplitude.
    for amp in (1e-15, 1e-13, 1e-11, 1e-8, 1e-4, 1.0):
        bump = compute_charges(RadialBumpModel(m=amp, constants=K1), Q_STD)
        assert bump.e0 / amp == pytest.approx(15.0 * math.pi / 128.0, rel=1e-9)
        assert bump.diagnostics["e0"].quadrature_converged
        mom = compute_charges(
            OffdiagMomentumModel(q=amp, axis=2, profile="sin_theta",
                                 constants=K1), Q_STD
        )
        assert mom.cp[3] / amp == pytest.approx(-3.0 * math.pi / 256.0, rel=1e-9)
        assert list(np.nonzero(mom.values())[0]) == [CHARGE_NAMES.index("cp4")]


def test_charge_report_carries_beta():
    cs = compute_charges(RadialBumpModel(m=0.1, constants=K1), Q_STD)
    diags = cs.as_dict()["diagnostics"]
    assert diags["e0"]["beta"] == cs.diagnostics["e0"].beta
    assert diags["e0"]["beta"] > 0
    assert diags["c1"]["beta"] is None


def test_nonfinite_surface_data_names_the_node():
    class NanBump(RadialBumpModel):
        def a(self, r, theta, psi, phi):
            out = super().a(r, theta, psi, phi).copy()
            out[0, 0, 0] = np.nan
            return out

    with pytest.raises(ValueError, match="non-finite value at node"):
        compute_charges(NanBump(m=0.1, constants=K1), Q_STD)


def test_charges_of_vanishing_data_are_zero():
    # Every charge of these models vanishes analytically.  Each column is
    # judged against its own absolute integral, so roundoff is not reported
    # as a charge, and none reaches the radial fit.
    q = QuadratureSpec(8, 8, 8, (4.0, 5.0, 6.0, 7.0))
    for axis, profile in ((3, "cos_psi"), (4, "cos_psi"), (2, "cos_theta"),
                          (4, "cos_theta")):
        model = OffdiagMomentumModel(q=0.3, axis=axis, profile=profile,
                                     constants=K1)
        cs = compute_charges(model, q)
        assert list(cs.values()) == [0.0] * 15, (axis, profile)
        assert not cs.any_diverged


# The Killing field behind each column, in CHARGE_NAMES order: U^(0) against
# e_1 for the first five, U^(2..4) against P_21, P_31, P_41 for the rest.
E_FIELDS = ((5, 0), (1, 5), (2, 5), (3, 5), (4, 5))
P_FIELDS = ((1, 0), (2, 0), (3, 0), (4, 0)) + J_ORDER
GRID = (6, 8, 10)


@pytest.mark.parametrize("shape", [(1, 1, 1), (6, 8, 1), (1, 1, 10), (1, 8, 1),
                                   (6, 8, 10)])
def test_reduced_contraction_matches_the_broadcast_sum(shape):
    # Data of shape S are contracted against tables summed over the axes
    # where S has length 1; the oracle spreads them over every node.
    grid = sphere_grid(*GRID)
    angles = (grid.theta, grid.psi, grid.phi)
    rng = np.random.default_rng(len(shape) + sum(shape))
    e1 = rng.standard_normal(shape)
    p1 = rng.standard_normal((4,) + shape)
    values, scales = _surface_integrals(*GRID, K1, e1, p1)

    full_e = np.broadcast_to(e1, grid.shape)
    full_p = np.broadcast_to(p1, (4,) + grid.shape)[1:]

    def table(field):
        # The frame components U^(0), U^(2..4) over the full grid, without
        # their radial factor.
        u = killing_vector_frame(field, (1.0, *angles), K1)
        scale = killing_radial_scale(field, 1.0, K1)
        return np.stack(np.broadcast_arrays(*(u[m] / scale for m in (0, 2, 3, 4))))

    expected, expected_abs = [], []
    for field in E_FIELDS:
        wt = grid.weights * table(field)[0]
        expected.append(np.sum(wt * full_e))
        expected_abs.append(np.sum(np.abs(wt) * np.abs(full_e)))
    for field in P_FIELDS:
        wt = grid.weights * table(field)[1:]
        expected.append(np.sum(wt * full_p))
        expected_abs.append(np.sum(np.abs(wt) * np.abs(full_p)))
    expected, expected_abs = np.array(expected), np.array(expected_abs)

    assert np.all(expected_abs > 0)
    assert np.all(np.abs(values - expected) <= 1e-12 * expected_abs)
    assert np.all(np.abs(scales - expected_abs) <= 1e-12 * expected_abs)


def test_reduction_cache_stays_bounded():
    # One reduced table per (grid, table, data shape): a second pass over the
    # same models adds no entry, and the cache has a fixed size.
    q = QuadratureSpec(8, 8, 8, (4.0, 5.0, 6.0, 7.0))
    models = [RadialBumpModel(m=0.1, constants=K1), AdsExactModel(K1)]
    models += [OffdiagMomentumModel(q=0.1, axis=2, profile=profile, constants=K1)
               for profile in ("sin_theta", "sin_phi", "cos_psi")]
    for model in models:
        compute_charges(model, q)
    info = _reduced_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for model in models:
        compute_charges(model, q)
    assert _reduced_table.cache_info().misses == info.misses


def test_a_surface_pass_keeps_no_full_killing_table():
    # The tables are outer products of per-angle sums: a pass at 32^3 from
    # empty caches allocates at no time as much as one (4,) + grid table of
    # Killing frame components (1 MiB; building the tables field by field
    # over the full grid peaked at 4.4 MiB), and afterwards less memory stays
    # allocated than one full (10, 3) + grid table of P-side rows would take.
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_phi", constants=K1)
    radii = np.array([4.0, 5.0, 6.0, 7.0])
    charge_surface_values(model, radii, 8, 8, 8)  # imports done once
    for cached in vars(charges).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        surface = charge_surface_values(model, radii, 32, 32, 32)
        del surface
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 4 * 32 ** 3 * 8
    assert kept - before < 10 * 3 * 32 ** 3 * 8


@pytest.mark.parametrize("kappa", [1.0, 1.7])
@pytest.mark.parametrize("r", [0.3, 4.0, 7.0])
def test_radial_factors_match_the_per_label_scales(r, kappa):
    # The cosh/sinh choice is read once per label at import; per radius the
    # factors are bit-identical to one killing_radial_scale call per label.
    k = ModelConstants(kappa)
    kr = kappa * r
    per_label = np.array([killing_radial_scale(label, r, k)
                          for label in E_FIELDS + P_FIELDS])
    assert np.array_equal(np.where(_COSH, math.cosh(kr), math.sinh(kr)), per_label)
    expected = per_label * (_PREFACTOR * kappa * (math.sinh(kr) / kappa) ** 3)
    assert np.array_equal(_radial_factors(r, k), expected)


@pytest.mark.parametrize("r", [200.0, 300.0, 800.0])
def test_overflowing_radial_factors_are_a_numerical_failure(r):
    # cosh(r) sinh(r)^3 overflows a float past r ~ 178, sinh(r)^3 past
    # r ~ 237 and sinh(r) past r ~ 710: each is a NumericalError, not an
    # OverflowError escaping from math or a non-finite charge.
    with pytest.raises(NumericalError, match="overflow at r = "):
        charge_surface_values(RadialBumpModel(m=0.1, constants=K1), r, 8, 8, 8)


def test_cached_grid_and_radial_arrays_are_read_only():
    # The caches hand the same arrays to every caller.
    radii = np.array([4.0, 5.0, 6.0])
    arrays = [*_grid_and_factors(8, 8, 8)[1], _radial_factors(radii, K1)]
    arrays += [_radial_values(name, radii, K1, "test") for name in _RADIAL_FUNCTIONS]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_errors_are_raised_on_a_cache_hit_as_on_a_miss():
    model = RadialBumpModel(m=0.1, constants=K1)
    grid = sphere_grid(8, 8, 8)

    def e1(r, theta=grid.theta, psi=grid.psi):
        nodes = (r, theta, psi, grid.phi)
        return mass_aspect_grid(*model.a_and_da(*nodes), r,
                                angular_factors(theta, psi), K1)

    # Warm the grid's tables and the radial scalars at r = 4.
    e1(4.0)
    charge_surface_values(model, 4.0, 8, 8, 8)
    cases = [
        (lambda: e1(4.0, theta=np.array([0.5, 0.0])[:, None, None]),
         DegenerateCoordinateError, "theta pole"),
        (lambda: e1(0.0), DegenerateCoordinateError, "needs r > 0"),
        (lambda: charge_surface_values(model, np.array([-1.0, 4.0]), 8, 8, 8),
         DegenerateCoordinateError, "needs r > 0"),
        (lambda: e1(np.array([4.0, 800.0])[:, None, None, None]),
         NumericalError, "overflow at r = 800$"),
        (lambda: charge_surface_values(model, np.array([4.0, 800.0]), 8, 8, 8),
         NumericalError, "overflow at r = 800$"),
        (lambda: grid.integrate(1.0, 300.0, K1), NumericalError,
         "overflow at r = 300$"),
    ]
    for call, error, match in cases:
        for attempt in ("miss", "hit"):
            hits = (_radial_table.cache_info().hits
                    + _radial_factor_table.cache_info().hits)
            with pytest.raises(error, match=match):
                call()
            if attempt == "hit" and error is NumericalError:
                assert (_radial_table.cache_info().hits
                        + _radial_factor_table.cache_info().hits) > hits


def test_surface_pass_calls_the_public_mass_aspect(monkeypatch):
    # The charges compute e_1 with the library's one mass-aspect function,
    # once per grid for every radius.
    calls = []

    def counted(a, da, r, angular, k):
        calls.append(np.shape(r))
        return mass_aspect_grid(a, da, r, angular, k)

    monkeypatch.setattr(charges, "mass_aspect_grid", counted)
    compute_charges(RadialBumpModel(m=0.1, constants=K1), Q_STD)
    assert calls == [(4, 1, 1, 1)] * 2


class _OneNodeModel(InitialDataModel):
    """a_00 = amp exp(-4 kappa (r - 4)) at the first node of the grid and 0
    at every other, h = 0: data that are zero everywhere but at one node."""

    name = "one_node"

    def __init__(self, amp):
        super().__init__(4.0, K1)
        self.amp = amp

    def a(self, r, theta, psi, phi):
        out = np.zeros(np.broadcast_shapes(*map(np.shape, (r, theta, psi, phi)))
                       + (4, 4), dtype=np.result_type(r, theta, psi, phi))
        out[..., 0, 0, 0, 0, 0] = self.amp * np.exp(-4.0 * (r[..., 0, 0, 0] - 4.0))
        return out

    def h(self, r, theta, psi, phi):
        return np.zeros((1, 1, 1, 1, 4, 4))


def test_only_exactly_zero_sources_skip_the_mass_aspect(monkeypatch):
    # Data that are zero but at one node, even at 1e-300 there, are not
    # exactly zero: the mass aspect is evaluated on both grids, and E0 is
    # linear in the amplitude.  (The skip tests ndarray.any; a pass that
    # evaluates every aspect passes this test too.)  The surface integrals
    # are formed before their radial factors (about e^{4 kappa r}), so at
    # 1e-300 they are subnormal floats, with fewer bits: 2e-8 relative here.
    calls = []

    def counted(a, da, r, angular, k):
        calls.append(np.shape(r))
        return mass_aspect_grid(a, da, r, angular, k)

    monkeypatch.setattr(charges, "mass_aspect_grid", counted)
    unit = {}
    for amp in (1e-300, 1e-290, 1e-150, 1e-20):
        calls.clear()
        unit[amp] = compute_charges(_OneNodeModel(amp), Q_STD).e0 / amp
        assert calls == [(4, 1, 1, 1)] * 2
    assert unit[1e-20] > 0
    for amp, tol in ((1e-300, 1e-7), (1e-290, 1e-12), (1e-150, 1e-12)):
        assert abs(unit[amp] / unit[1e-20] - 1) <= tol, (amp, unit)


# Every bundled model kind: each offdiag_momentum axis and profile.
BUNDLED = [AdsExactModel(K1), RadialBumpModel(m=0.1, constants=K1),
           RadialBumpModel(m=0.3, sigma=3.0, constants=ModelConstants(1.7))]
BUNDLED += [OffdiagMomentumModel(q=0.05, axis=axis, profile=profile,
                                 constants=K1)
            for axis in (2, 3, 4) for profile in sorted(ANGULAR_PROFILES)]
RADII = (4.0, 5.0, 6.5, 7.0)


def _check_batched_pass(model, nodes, monkeypatch, a_calls=1):
    # The model's fields are evaluated once, every radius at once (a once
    # for an analytic model, at the four complex steps inside a_and_da,
    # whose real part is a itself); the result is each radius's own pass,
    # stacked.
    calls = {}
    for name in ("a", "h", "a_and_da"):
        def counted(*args, _name=name, _f=getattr(model, name)):
            calls.setdefault(_name, []).append(np.shape(args[0])[-4:])
            return _f(*args)
        monkeypatch.setattr(model, name, counted)
    batch = charge_surface_values(model, np.array(RADII), *nodes)
    every = (len(RADII), 1, 1, 1)
    want = {"a": [every] * a_calls, "h": [every], "a_and_da": [every]}
    assert calls == {name: shapes for name, shapes in want.items() if shapes}
    alone = [charge_surface_values(model, r, *nodes) for r in RADII]
    assert batch.values.shape == batch.scales.shape == (len(RADII), 15)
    assert np.array_equal(batch.r, RADII)
    for i, s in enumerate(alone):
        assert s.values.shape == (15,) and s.r == RADII[i]
        tol = 1e-12 * s.scales
        assert np.all(np.abs(batch.values[i] - s.values) <= tol)
        assert np.all(np.abs(batch.scales[i] - s.scales) <= tol)
        # The fields keep their own shapes; spread to every node, radius i
        # of the batch is the field of radius i alone.
        grid = s.grid.shape
        for got, want, head, tail in ((batch.a, s.a, (), (4, 4)),
                                      (batch.e1, s.e1, (), ()),
                                      (batch.p1, s.p1, (4,), ())):
            got = np.broadcast_to(got, head + (len(RADII),) + grid + tail)
            want = np.broadcast_to(want, head + grid + tail)
            assert np.allclose(got[(slice(None),) * len(head) + (i,)], want,
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("model", BUNDLED,
                         ids=[f"{m.name}-{m.params().get('axis', '')}"
                              f"{m.params().get('profile', m.constants.kappa)}"
                              for m in BUNDLED])
def test_batched_surface_pass_matches_each_radius_alone(model, monkeypatch):
    _check_batched_pass(model, (8, 6, 10), monkeypatch)


def test_batched_surface_pass_on_full_shape_data(tmp_path, monkeypatch):
    # A grid model returns every field at every node (S = B + grid shape):
    # the case where the reduction sums over nothing.
    path = tmp_path / "sin_phi.aads"
    source = OffdiagMomentumModel(q=0.05, axis=3, profile="sin_phi", constants=K1)
    write_grid_file(path, source, RADII, 8, 6, 10)
    model = read_grid_file(path)
    assert model.a(np.array(RADII)[:, None, None, None],
                   *(getattr(model.grid, x) for x in ("theta", "psi", "phi"))
                   ).shape == (len(RADII), 8, 6, 10, 4, 4)
    # Its a_and_da differentiates the file's data and does not call a.
    _check_batched_pass(model, (8, 6, 10), monkeypatch, a_calls=0)
