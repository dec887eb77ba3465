"""Tests for the fifteen Killing vector fields of the static AdS background."""

import math

import numpy as np
import pytest

from adspet.geometry import DegenerateCoordinateError, ModelConstants, sphere_grid
from adspet.killing import (
    ALL_LABELS,
    ads_metric_diag,
    killing_frame_factors,
    killing_radial_scale,
    killing_residual,
    killing_vector_frame,
    normalize_label,
    spacetime_killing_vector,
)

K1 = ModelConstants(1.0)


def test_label_normalization():
    assert normalize_label((5, 0)) == ((5, 0), 1.0)
    assert normalize_label((0, 5)) == ((5, 0), -1.0)
    assert normalize_label((2, 1)) == ((1, 2), -1.0)
    with pytest.raises(ValueError):
        normalize_label((1, 1))
    with pytest.raises(ValueError):
        normalize_label((1, 6))


def test_time_translation_components():
    ct, cr, cth, cps, cph = spacetime_killing_vector(
        (5, 0), (0.0, 2.0, 1.0, 1.0, 1.0), K1
    )
    assert ct == pytest.approx(1.0)
    assert cr == 0.0 and cth == 0.0 and cps == 0.0 and cph == 0.0
    k2 = ModelConstants(2.0)
    ct2 = spacetime_killing_vector((5, 0), (0.0, 2.0, 1.0, 1.0, 1.0), k2)[0]
    assert ct2 == pytest.approx(0.5)


def test_azimuthal_rotation_components():
    comps = spacetime_killing_vector((1, 2), (0.0, 3.0, 0.7, 1.1, 2.0), K1)
    assert comps[4] == pytest.approx(1.0)
    assert all(c == 0.0 for c in comps[:4])


def test_boost_at_pole_aligned_axis():
    # The (4, 0) field at theta = pi/2 is purely angular: -coth(r) d/dtheta.
    r = 2.0
    ct, cr, cth, cps, cph = spacetime_killing_vector(
        (4, 0), (0.0, r, math.pi / 2, 1.0, 1.0), K1
    )
    assert ct == 0.0
    assert cr == pytest.approx(0.0, abs=1e-15)
    assert cth == pytest.approx(-1.0 / math.tanh(r))
    assert cps == 0.0 and cph == 0.0


def test_radial_boost_along_axis():
    # At theta = 0 the (4, 0) field is radial with magnitude 1/kappa.  The
    # pole is a coordinate singularity, so read the frame components.
    comps = killing_vector_frame((4, 0), (1.5, 0.0, 1.0, 1.0), K1)
    assert comps[1] == pytest.approx(1.0)
    assert comps[2] == pytest.approx(0.0, abs=1e-15)


def test_time_boost_frame_value():
    # (4, 5) at theta = 0: U^(0) = tanh(r) cosh(r) = sinh(r).
    frame = killing_vector_frame((4, 5), (2.0, 0.0, 1.0, 1.0), K1)
    assert frame[0] == pytest.approx(math.sinh(2.0))
    assert all(abs(f) < 1e-15 for f in frame[1:])


# A theta or psi pole as (theta, psi), and the unit step into the interior.
POLES = (((0.0, 1.0), (1, 0)), ((math.pi, 1.0), (-1, 0)),
         ((1.0, 0.0), (0, 1)), ((1.0, math.pi), (0, -1)))


def test_pole_guard():
    # Coordinate components are singular at a theta or psi pole.
    for lab in ALL_LABELS:
        for (theta, psi), _ in POLES:
            with pytest.raises(DegenerateCoordinateError):
                spacetime_killing_vector(lab, (0.0, 1.0, theta, psi, 1.0), K1)


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_frame_components_are_finite_at_the_poles(kappa):
    # The frame components are trigonometric polynomials in the angles:
    # finite at a pole and continuous into it.
    k = ModelConstants(kappa)
    delta = 1e-7
    for lab in ALL_LABELS:
        for (theta, psi), (d_theta, d_psi) in POLES:
            pole = np.array(killing_vector_frame(lab, (1.3, theta, psi, 0.7), k))
            near = np.array(killing_vector_frame(
                lab, (1.3, theta + delta * d_theta, psi + delta * d_psi, 0.7), k))
            assert np.all(np.isfinite(pole)), (lab, theta, psi)
            assert np.max(np.abs(pole - near)) < 10 * delta * max(1.0, np.max(np.abs(near)))


def _sample_points(rng, n, kappa=1.0):
    """n points (t, r, theta, psi, phi) off the poles: shape (5, n)."""
    return np.array([rng.standard_normal(n) / kappa,
                     (0.8 + 2.0 * rng.random(n)) / kappa,
                     0.3 + 2.5 * rng.random(n),
                     0.3 + 2.5 * rng.random(n),
                     2 * math.pi * rng.random(n)])


def test_killing_equation_all_labels():
    rng = np.random.default_rng(17)
    for lab in ALL_LABELS:
        x = np.array(
            [
                rng.standard_normal(),
                0.8 + 2.0 * rng.random(),
                0.3 + 2.5 * rng.random(),
                0.3 + 2.5 * rng.random(),
                2 * math.pi * rng.random(),
            ]
        )
        r1, _ = killing_residual(lab, x, 1e-3, K1)
        if lab in ((5, 0), (1, 2)):
            continue  # coordinate symmetry (d/dt, d/dphi), exact up to roundoff
        r2, _ = killing_residual(lab, x, 5e-4, K1)
        assert 3.5 < r1 / r2 < 4.5, lab


def test_symmetry_labels_exact():
    x = np.array([0.4, 2.0, 1.1, 0.9, 2.7])
    assert killing_residual((5, 0), x, 1e-3, K1)[0] < 1e-11
    assert killing_residual((1, 2), x, 1e-3, K1)[0] < 1e-11


@pytest.mark.parametrize("kappa", [1.0, 5.0, 30.0, 100.0])
def test_symmetry_residuals_are_roundoff_of_their_terms(kappa):
    # d/dt and d/dphi leave a residual below one eps of the size of the Lie
    # derivative's terms; every other field's h^2 error stands far above it
    # at kappa 1.
    k = ModelConstants(kappa)
    x = _sample_points(np.random.default_rng(3), 200, kappa)
    eps = np.finfo(float).eps
    for lab in ALL_LABELS:
        residual, scale = killing_residual(lab, x, 1e-3, k)
        assert residual.shape == scale.shape == (200,)
        assert np.all(residual <= scale)
        if lab in ((5, 0), (1, 2)):
            assert np.all(residual <= eps * scale), lab
        elif kappa == 1.0:
            assert np.all(residual > 100 * eps * scale), lab


def test_residual_of_a_batch_is_each_point_alone():
    # A single point is a batch with P = (): each point of a batch gets the
    # bits it gets alone, for every label and step.
    for kappa in (1.0, 30.0):
        k = ModelConstants(kappa)
        x = _sample_points(np.random.default_rng(5), 12, kappa)
        grid = x.reshape(5, 3, 4)
        for lab in ALL_LABELS:
            for h in (1e-3, 5e-4):
                batch = killing_residual(lab, grid, h, k)
                alone = np.moveaxis(np.array([killing_residual(lab, x[:, i], h, k)
                                              for i in range(12)]), 0, -1)
                assert np.shape(batch) == (2, 3, 4) and alone.shape == (2, 12)
                assert np.all(np.abs(np.reshape(batch, (2, 12)) - alone)
                              <= 1e-12 * np.abs(alone)), (lab, h, kappa)


def test_fields_and_metric_take_a_batch_of_points():
    x = _sample_points(np.random.default_rng(9), 6)
    for lab in ALL_LABELS:
        batch = spacetime_killing_vector(lab, x, K1)
        assert batch.shape == (5, 6)
        for i in range(6):
            alone = spacetime_killing_vector(lab, x[:, i], K1)
            assert np.array_equal(batch[:, i], alone)
    g = ads_metric_diag(x, K1)
    assert g.shape == (5, 6)
    assert np.array_equal(g[:, 2], ads_metric_diag(x[:, 2], K1))


def test_killing_equation_other_kappa():
    k2 = ModelConstants(2.0)
    x = np.array([0.2, 1.4, 0.8, 1.9, 0.5])
    for lab in ((4, 0), (3, 5), (2, 3)):
        r1, _ = killing_residual(lab, x, 1e-3, k2)
        r2, _ = killing_residual(lab, x, 5e-4, k2)
        assert 3.5 < r1 / r2 < 4.5, lab


def test_metric_diagonal():
    g = ads_metric_diag((0.0, 1.0, math.pi / 2, math.pi / 2, 0.0), K1)
    assert g[0] == pytest.approx(-math.cosh(1.0) ** 2)
    assert g[1] == 1.0
    assert g[2] == pytest.approx(math.sinh(1.0) ** 2)
    assert g[3] == pytest.approx(math.sinh(1.0) ** 2)
    assert g[4] == pytest.approx(math.sinh(1.0) ** 2)


def test_frame_components_asymptotics():
    # Boost fields grow like e^{kappa r} in the frame; the ratio between
    # consecutive radii stabilizes at e^{kappa}.
    vals = []
    for r in (6.0, 7.0, 8.0):
        frame = killing_vector_frame((4, 5), (r, 0.5, 1.0, 1.0), K1)
        vals.append(frame[0])
    assert vals[1] / vals[0] == pytest.approx(math.e, rel=1e-4)
    assert vals[2] / vals[1] == pytest.approx(math.e, rel=1e-5)


# Signature of R^{4,2}, whose rotation generators are the Killing fields.
ETA6 = (-1.0, 1.0, 1.0, 1.0, 1.0, -1.0)


def _generator(label):
    """The so(4,2) matrix M of a label: the field is u = M y on R^{4,2},
    with u^b = eta_a y^a and u^a = -eta_b y^b."""
    (a, b), sign = normalize_label(label)
    m = np.zeros((6, 6))
    m[b, a] = sign * ETA6[a]
    m[a, b] = -sign * ETA6[b]
    return m


def test_commutator_closure():
    # For every pair, the bracket of the two fields, by central differences
    # at an off-slice point, is the field of the matrix commutator: the
    # linear fields u = M y and v = N y have [u, v] = (N M - M N) y.  Any
    # label with the wrong sign or the wrong field breaks its brackets.
    x0 = np.array([0.3, 1.7, 1.1, 0.8, 2.2])
    h = 1e-5
    basis = np.array([_generator(lab).ravel() for lab in ALL_LABELS]).T
    fields = np.array([spacetime_killing_vector(lab, x0, K1) for lab in ALL_LABELS])
    jac = np.zeros((len(ALL_LABELS), 5, 5))  # jac[L, mu] = d_mu U_L
    for mu in range(5):
        step = np.zeros(5)
        step[mu] = h
        for i, lab in enumerate(ALL_LABELS):
            jac[i, mu] = (spacetime_killing_vector(lab, x0 + step, K1)
                          - spacetime_killing_vector(lab, x0 - step, K1)) / (2 * h)
    for i, a in enumerate(ALL_LABELS):
        for j, b in enumerate(ALL_LABELS[i + 1:], start=i + 1):
            ma, mb = _generator(a), _generator(b)
            commutator = (mb @ ma - ma @ mb).ravel()
            coeffs = np.linalg.lstsq(basis, commutator, rcond=None)[0]
            assert np.allclose(basis @ coeffs, commutator, atol=1e-12)
            bracket = fields[i] @ jac[j] - fields[j] @ jac[i]
            assert np.allclose(bracket, coeffs @ fields, rtol=0, atol=1e-8), (a, b)


def test_antisymmetry_of_labels():
    p = (1.3, 0.9, 1.4, 2.1)
    u = spacetime_killing_vector((3, 0), (0.0, *p), K1)
    v = spacetime_killing_vector((0, 3), (0.0, *p), K1)
    assert np.allclose(u, -v)


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_frame_table_factors_at_every_radius(kappa):
    # U^(m) = R(r) c T_theta T_psi T_phi, m = 0, 2, 3, 4, against the direct
    # frame components: each factor varies along its own angle only.
    k = ModelConstants(kappa)
    grid = sphere_grid(6, 5, 8)
    angles = (grid.theta, grid.psi, grid.phi)
    for label in ALL_LABELS:
        factors = killing_frame_factors(label, *angles, k)
        assert len(factors) == 4
        for coef, per_angle in factors:
            for axis, f in enumerate(per_angle):
                assert all(n == 1 for i, n in enumerate(np.shape(f)) if i != axis)
        for r in (0.3, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0, 10.0):
            u = killing_vector_frame(label, (r, *angles), k)
            direct = np.stack(np.broadcast_arrays(*(u[m] for m in (0, 2, 3, 4))))
            factored = killing_radial_scale(label, r, k) * np.stack(
                [np.broadcast_to(c * t * p * f, grid.shape)
                 for c, (t, p, f) in factors])
            assert factored.shape == (4,) + grid.shape
            assert np.max(np.abs(factored - direct)) <= 1e-12 * np.max(np.abs(direct))
