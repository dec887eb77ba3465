"""Tests for the fifteen charges: oracles, selection rules, extrapolation."""

import math

import numpy as np
import pytest

from adspet.charges import (
    CHARGE_NAMES,
    J_ORDER,
    ChargeSet,
    _reduced_table,
    _surface_integrals,
    charge_surface_values,
    compute_charges,
    derived,
)
from adspet.geometry import ModelConstants, QuadratureSpec, sphere_grid
from adspet.initial_data import (
    AdsExactModel,
    OffdiagMomentumModel,
    RadialBumpModel,
)
from adspet.killing import killing_frame_table

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
    expected, expected_abs = [], []
    for field in E_FIELDS:
        wt = grid.weights * killing_frame_table(field, *angles, K1)[0]
        expected.append(np.sum(wt * full_e))
        expected_abs.append(np.sum(np.abs(wt) * np.abs(full_e)))
    for field in P_FIELDS:
        wt = grid.weights * killing_frame_table(field, *angles, K1)[1:]
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
