"""Tests for the closed-form spinor family and its defining equation."""

import math

import numpy as np
import pytest

from adspet.geometry import DegenerateCoordinateError, ModelConstants
from adspet.spinors import (
    KillingParams,
    killing_spinor_grid,
    killing_spinor_residual,
    profiles,
)

K1 = ModelConstants(1.0)


def test_profiles_at_coordinate_origin():
    # theta = psi = phi = 0 collapses the half-angle factors, leaving the
    # bare parameters: u+ = l1, u- = i l3, v+ = i l2, v- = -l4.
    lam = KillingParams(1.0, 2.0, 3.0, 4.0)
    up, um, vp, vm = profiles(lam, 0.0, 0.0, 0.0)
    assert up == pytest.approx(1.0)
    assert um == pytest.approx(3j)
    assert vp == pytest.approx(2j)
    assert vm == pytest.approx(-4.0)


def test_spinor_at_r_zero_first_parameter():
    lam = KillingParams(1.0, 0.0, 0.0, 0.0)
    phi = killing_spinor_grid(lam, 0.0, 0.0, 0.0, 0.0, K1)
    assert np.allclose(phi, [1.0, 0.0, 1j, 0.0])


def test_profiles_equator_example():
    # theta = pi: cos(theta/2) = 0, so the first pair drops out entirely.
    lam = KillingParams(5.0, -2.0, 0.0, 0.0)
    up, um, vp, vm = profiles(lam, math.pi, 0.3, 0.7)
    assert up == pytest.approx(0.0, abs=1e-15)
    assert vp == pytest.approx(0.0, abs=1e-15)
    em = np.exp(-0.35j)
    ep = np.exp(0.35j)
    a12 = 5.0 * em * math.cos(0.15) - 2.0 * ep * math.sin(0.15)
    assert um == pytest.approx(-1j * a12)


def test_linearity_in_parameters():
    rng = np.random.default_rng(3)
    angles = (1.1, 0.8, 2.3)
    l_a = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    l_b = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    l_sum = KillingParams(*(l_a.as_array() + 2.0 * l_b.as_array()))
    pa = np.array(profiles(l_a, *angles))
    pb = np.array(profiles(l_b, *angles))
    ps = np.array(profiles(l_sum, *angles))
    assert np.allclose(ps, pa + 2.0 * pb)


def test_four_pi_periodicity():
    # Half angles: a 2 pi shift in phi flips the sign, 4 pi restores it.
    lam = KillingParams(1.0, 1j, -0.5, 2.0)
    base = np.array(profiles(lam, 0.9, 1.3, 0.4))
    flipped = np.array(profiles(lam, 0.9, 1.3, 0.4 + 2 * math.pi))
    restored = np.array(profiles(lam, 0.9, 1.3, 0.4 + 4 * math.pi))
    assert np.allclose(flipped, -base)
    assert np.allclose(restored, base)


def test_norm_asymptotics():
    # |Phi|^2 -> 2 (|u+|^2 + |v+|^2) e^{kappa r} for large r.
    lam = KillingParams(0.3 + 1j, -0.7, 2.0, 0.1j)
    th, ps, ph = 0.7, 1.9, 2.5
    up, _, vp, _ = profiles(lam, th, ps, ph)
    r = 8.0
    phi = killing_spinor_grid(lam, r, th, ps, ph, K1)
    norm2 = float(np.sum(np.abs(phi) ** 2))
    target = 2.0 * (abs(up) ** 2 + abs(vp) ** 2) * math.exp(r)
    assert norm2 == pytest.approx(target, rel=1e-6)


def _norm(lam, p, k):
    """|Phi| at the points p = (r, theta, psi, phi)."""
    return np.linalg.norm(killing_spinor_grid(lam, *p, k), axis=0)


def test_residual_second_order_all_directions():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lam = KillingParams(
            *(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        )
        p = (0.5 + 2.0 * rng.random(), 0.4 + 2.3 * rng.random(),
             0.4 + 2.3 * rng.random(), 2 * math.pi * rng.random())
        d = int(rng.integers(1, 5))
        r1 = killing_spinor_residual(lam, p, d, 1e-3, K1)
        r2 = killing_spinor_residual(lam, p, d, 5e-4, K1)
        norm = _norm(lam, p, K1)
        assert r1 < 1e-5 * norm
        if r2 > 1e-13:
            assert 3.5 < r1 / r2 < 4.5


def test_residual_scales_with_kappa():
    k3 = ModelConstants(3.0)
    lam = KillingParams(1.0, 0.5j, -1.0, 0.2)
    p = (1.2, 1.0, 1.4, 0.6)
    for d in (1, 2, 3, 4):
        r1 = killing_spinor_residual(lam, p, d, 1e-3, k3)
        norm = _norm(lam, p, k3)
        assert r1 < 1e-4 * norm


def test_residual_direction_validation():
    lam = KillingParams(1.0, 0.0, 0.0, 0.0)
    p = (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(IndexError):
        killing_spinor_residual(lam, p, 0, 1e-3, K1)
    with pytest.raises(IndexError):
        killing_spinor_residual(lam, p, np.array([1, 5]), 1e-3, K1)
    with pytest.raises(DegenerateCoordinateError):
        killing_spinor_residual(lam, (1.0, 0.0, 1.0, 1.0), 2, 1e-3, K1)


@pytest.mark.parametrize("kappa", [1.0, 30.0])
def test_residual_of_a_batch_is_each_point_alone(kappa):
    # Points, directions, steps and lambdas over a common shape P; a single
    # point is a batch with P = () and gets the bits it gets in the batch.
    k = ModelConstants(kappa)
    rng = np.random.default_rng(13)
    n = 12
    lams = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    p = ((0.5 + 2.5 * rng.random(n)) / kappa, 0.3 + 2.5 * rng.random(n),
         0.3 + 2.5 * rng.random(n), 2 * math.pi * rng.random(n))
    for d in (1, 2, 3, 4):
        h = 1e-3 / kappa if d == 1 else 1e-3
        batch = killing_spinor_residual(
            KillingParams(*lams.reshape(4, 3, 4)),
            tuple(c.reshape(3, 4) for c in p), d, h, k)
        alone = np.array([killing_spinor_residual(
            KillingParams(*lams[:, i]), tuple(c[i] for c in p), d, h, k)
            for i in range(n)])
        assert batch.shape == (3, 4) and alone.shape == (n,)
        assert np.all(np.abs(batch.ravel() - alone) <= 1e-12 * alone), d
    # A direction and a step per point.
    d = rng.integers(1, 5, n)
    h = np.where(d == 1, 1e-3 / kappa, 1e-3)
    mixed = killing_spinor_residual(KillingParams(*lams), p, d, h, k)
    for i in range(n):
        alone = killing_spinor_residual(KillingParams(*lams[:, i]),
                                        tuple(c[i] for c in p), d[i], h[i], k)
        assert abs(mixed[i] - alone) <= 1e-12 * alone


def test_grid_broadcasting():
    lam = KillingParams(1.0, 2.0, 3.0, 4.0)
    th = np.linspace(0.2, 2.9, 5)[:, None]
    ph = np.linspace(0.0, 6.0, 7)[None, :]
    out = killing_spinor_grid(lam, 2.0, th, 1.0, ph, K1)
    assert out.shape == (4, 5, 7)
    single = killing_spinor_grid(lam, 2.0, th[2, 0], 1.0, ph[0, 3], K1)
    assert np.allclose(out[:, 2, 3], single)
