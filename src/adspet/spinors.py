"""Closed-form imaginary Killing spinors on the hyperbolic slice.

The four angular profiles u+, u-, v+, v- are degree-1 trigonometric
polynomials in the half angles, linear in four free complex parameters.
The full spinor combines them with radial weights exp(+-kappa r / 2), so
the profiles of one lambda and grid serve every radius.
A finite-difference residual evaluator verifies the defining first-order
equation numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import gamma
from .geometry import ModelConstants, frame_scales, spin_connection_grid

__all__ = [
    "KillingParams",
    "profiles",
    "killing_spinor_grid",
    "killing_spinor_residual",
]


@dataclass(frozen=True)
class KillingParams:
    """Four free complex parameters of the spinor family."""

    lam1: complex
    lam2: complex
    lam3: complex
    lam4: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.lam1, self.lam2, self.lam3, self.lam4], dtype=complex)


def profiles(lam: KillingParams, theta, psi, phi):
    """Angular profiles (u+, u-, v+, v-) at (theta, psi, phi), vectorized."""
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    em = np.exp(-0.5j * phi)
    ep = np.exp(0.5j * phi)
    cth, sth = np.cos(theta / 2), np.sin(theta / 2)
    cps, sps = np.cos(psi / 2), np.sin(psi / 2)
    l1, l2, l3, l4 = lam.lam1, lam.lam2, lam.lam3, lam.lam4

    a12 = l1 * em * cps + l2 * ep * sps
    a34 = l3 * em * cps + l4 * ep * sps
    b12 = -l1 * em * sps + l2 * ep * cps
    b34 = l3 * em * sps - l4 * ep * cps

    # Each profile x cx + y cy is accumulated in its own array, with y cy
    # written to one scratch array shared by all four, so no full-shape
    # array is allocated per term.
    scratch = np.empty(np.broadcast_shapes(np.shape(a12), np.shape(cth)), dtype=complex)

    def combine(x, cx, y, cy):
        out = np.multiply(x, cx)
        out += np.multiply(y, cy, out=scratch)
        return out

    u_plus = combine(a12, cth, a34, sth)
    u_minus = combine(-1j * a12, sth, 1j * a34, cth)
    v_plus = combine(1j * b12, cth, 1j * b34, sth)
    v_minus = combine(-b12, sth, b34, cth)
    return u_plus, u_minus, v_plus, v_minus


def killing_spinor_grid(lam: KillingParams, r, theta, psi, phi, k: ModelConstants):
    """Killing spinor components, shape (4,) + broadcast shape of r and the
    angles: the angular profiles (u+, u-, v+, v-) times exp(+-kappa r / 2)."""
    up, um, vp, vm = profiles(lam, theta, psi, phi)
    e_plus = np.exp(0.5 * k.kappa * np.asarray(r, dtype=float))
    e_minus = np.exp(-0.5 * k.kappa * np.asarray(r, dtype=float))
    return np.stack(
        np.broadcast_arrays(
            up * e_plus + um * e_minus,
            vp * e_plus + vm * e_minus,
            1j * (up * e_plus - um * e_minus),
            1j * (vp * e_plus - vm * e_minus),
        )
    )


# gamma_b gamma_c for the spatial frame b, c = 1..4, indexed [b - 1, c - 1],
# and gamma_a for a = 1..4, indexed [a - 1].
_GAMMA_SPATIAL = np.array([gamma(a) for a in range(1, 5)])
_GAMMA_PAIRS = _GAMMA_SPATIAL[:, None] @ _GAMMA_SPATIAL[None, :]


def killing_spinor_residual(lam: KillingParams, p, direction, h, k: ModelConstants):
    """Norm of nabla_{e_a} Phi + (kappa i / 2) gamma_a Phi, a = direction,
    at the points p = (r, theta, psi, phi) of the slice; O(h^2) for the
    closed-form family.

    The coordinates, the directions (in 1..4), the steps h and the
    parameters of lam broadcast to a common shape P, the shape of the
    result.  nabla_{e_a} Phi is the central difference of Phi with step h
    along coordinate a, divided by the frame factor, plus the connection
    term.
    """
    direction = np.asarray(direction)
    if not np.all(np.isin(direction, (1, 2, 3, 4))):
        raise IndexError(f"direction must be in 1..4, got {direction}")
    arrays = np.broadcast_arrays(*p, direction, h, *lam.as_array())
    # One flat axis even for a single point: numpy's array loops give a point
    # the same bits in any batch, where its scalar arithmetic would not.
    *coords, direction, h, l1, l2, l3, l4 = (c.reshape(-1) for c in arrays)
    x = np.array(coords, dtype=float)
    lam = KillingParams(l1, l2, l3, l4)
    a = direction - 1
    # omega_{bc a} for the direction a of each point.
    omega = spin_connection_grid(*x[:3], k)  # raises at a pole
    omega = np.take_along_axis(omega, a[None, None, None], axis=2)[:, :, 0]
    on_axis = np.arange(4)[:, None] == a
    step = np.where(on_axis, h, 0.0)
    phi_p = killing_spinor_grid(lam, *(x + step), k)
    phi_m = killing_spinor_grid(lam, *(x - step), k)
    scale = np.take_along_axis(frame_scales(*x[:3], k), a[None], axis=0)[0]
    deriv = (phi_p - phi_m) / (2.0 * h * scale)
    phi0 = killing_spinor_grid(lam, *x, k)
    # Sign fixed so the closed-form family closes the residual test;
    # equivalent to d + (1/4) omega gamma gamma with the opposite orientation
    # convention for omega.
    conn = -0.25 * np.einsum("bcn,bcij,jn->in", omega, _GAMMA_PAIRS, phi0)
    rotation = 0.5j * k.kappa * np.einsum("nij,jn->in", _GAMMA_SPATIAL[a], phi0)
    return np.linalg.norm(deriv + conn + rotation, axis=0).reshape(arrays[0].shape)
