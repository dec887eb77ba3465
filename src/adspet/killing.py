"""The fifteen Killing vector fields of the (4+1)-dimensional AdS spacetime.

Coordinate components are given in (t, r, theta, psi, phi); frame components
contract the coordinate basis against the orthonormal frame factors.  A
finite-difference Lie-derivative residual verifies the Killing equation
against the closed-form metric.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    _POLE_TOL,
    DegenerateCoordinateError,
    ModelConstants,
    frame_scales,
)

__all__ = [
    "ALL_LABELS",
    "normalize_label",
    "killing_vector_coord",
    "killing_vector_frame",
    "killing_radial_scale",
    "killing_frame_table",
    "spacetime_killing_vector",
    "embedding_killing_vector",
    "killing_residual",
    "ads_metric_diag",
]

# Canonical unordered pairs (alpha, beta), 0 <= alpha != beta <= 5.
ALL_LABELS = (
    (5, 0),
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (1, 5),
    (2, 5),
    (3, 5),
    (4, 5),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 4),
    (3, 4),
)


def normalize_label(label):
    """Map (alpha, beta) to the canonical label and its sign (U_ba = -U_ab)."""
    a, b = int(label[0]), int(label[1])
    if a == b or not (0 <= a <= 5 and 0 <= b <= 5):
        raise ValueError(f"label must be an unordered pair in 0..5, got {label}")
    if (a, b) in ALL_LABELS:
        return (a, b), 1.0
    if (b, a) in ALL_LABELS:
        return (b, a), -1.0
    raise ValueError(f"unknown Killing label {label}")


def _coord_components(label, r, theta, psi, phi, k: ModelConstants):
    """Components (c_t, c_r, c_theta, c_psi, c_phi), vectorized over angles."""
    kappa = k.kappa
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    shape = np.broadcast(r, theta, psi, phi).shape
    zero = np.zeros(shape)
    one = np.ones(shape)
    sth, cth = np.sin(theta), np.cos(theta)
    sps, cps = np.sin(psi), np.cos(psi)
    sph, cph = np.sin(phi), np.cos(phi)
    coth = 1.0 / np.tanh(kappa * r)
    tanh = np.tanh(kappa * r)

    def need_sin_theta():
        if np.any(np.abs(sth) < _POLE_TOL):
            raise DegenerateCoordinateError("label requires sin(theta) != 0")

    def need_sin_psi():
        if np.any(np.abs(sps) < _POLE_TOL):
            raise DegenerateCoordinateError("label requires sin(psi) != 0")

    if label == (5, 0):
        return (one / kappa, zero, zero, zero, zero)
    if label == (1, 0):
        need_sin_theta()
        need_sin_psi()
        return (
            zero,
            sth * sps * cph / kappa,
            coth * cth * sps * cph,
            coth * cps * cph / sth,
            -coth * sph / (sth * sps),
        )
    if label == (2, 0):
        need_sin_theta()
        need_sin_psi()
        return (
            zero,
            sth * sps * sph / kappa,
            coth * cth * sps * sph,
            coth * cps * sph / sth,
            coth * cph / (sth * sps),
        )
    if label == (3, 0):
        need_sin_theta()
        return (
            zero,
            sth * cps / kappa,
            coth * cth * cps,
            -coth * sps / sth,
            zero,
        )
    if label == (4, 0):
        return (zero, cth / kappa, -coth * sth * one, zero, zero)
    if label == (1, 5):
        return (tanh * sth * sps * cph / kappa, zero, zero, zero, zero)
    if label == (2, 5):
        return (tanh * sth * sps * sph / kappa, zero, zero, zero, zero)
    if label == (3, 5):
        return (tanh * sth * cps / kappa, zero, zero, zero, zero)
    if label == (4, 5):
        return (tanh * cth / kappa, zero, zero, zero, zero)
    if label == (1, 2):
        return (zero, zero, zero, zero, one)
    if label == (1, 3):
        need_sin_psi()
        return (zero, zero, zero, -cph * one, cps * sph / sps)
    if label == (1, 4):
        need_sin_theta()
        need_sin_psi()
        return (
            zero,
            zero,
            -sps * cph,
            -cth * cps * cph / sth,
            cth * sph / (sth * sps),
        )
    if label == (2, 3):
        need_sin_psi()
        return (zero, zero, zero, -sph * one, -cps * cph / sps)
    if label == (2, 4):
        need_sin_theta()
        need_sin_psi()
        return (
            zero,
            zero,
            -sps * sph,
            -cth * cps * sph / sth,
            -cth * cph / (sth * sps),
        )
    if label == (3, 4):
        need_sin_theta()
        return (zero, zero, -cps * one, cth * sps / sth, zero)
    raise AssertionError(f"unhandled label {label}")


def killing_vector_coord(label, p, k: ModelConstants):
    """Coordinate components (d/dt, d/dr, d/dtheta, d/dpsi, d/dphi) at the
    broadcastable arrays p = (r, theta, psi, phi)."""
    canonical, sign = normalize_label(label)
    comps = _coord_components(canonical, *p, k)
    return tuple(sign * c for c in comps)


def killing_vector_frame(label, p, k: ModelConstants):
    """Frame components U^(0..4) against the orthonormal AdS frame."""
    r, theta, psi, _ = p
    ct, cr, cth, cps, cph = killing_vector_coord(label, p, k)
    s = frame_scales(r, theta, psi, k)
    return (ct * np.cosh(k.kappa * r), cr * s[0], cth * s[1], cps * s[2],
            cph * s[3])


def killing_radial_scale(label, r: float, k: ModelConstants) -> float:
    """Radial scalar R(r) of the frame components U^(0) and U^(2..4).

    Each of those components is R(r) times a function of the angles alone:
    R = cosh(kappa r) for the time translation and the (i,0) boosts, and
    R = sinh(kappa r) for the (i,5) boosts and the rotations.  U^(1) of the
    (i,0) boosts does not depend on r and does not factor this way.
    """
    (_, b), _ = normalize_label(label)
    return math.cosh(k.kappa * r) if b == 0 else math.sinh(k.kappa * r)


def killing_frame_table(label, theta, psi, phi, k: ModelConstants) -> np.ndarray:
    """Angular factors T with U^(m) = R(r) T^(m), for m = 0, 2, 3, 4.

    Returns shape (4,) + broadcast angle shape.  The factorization holds at
    every radius, so T is read off the frame components at kappa r = 1.
    """
    r_ref = 1.0 / k.kappa
    u = killing_vector_frame(label, (r_ref, theta, psi, phi), k)
    scale = killing_radial_scale(label, r_ref, k)
    return np.stack(np.broadcast_arrays(*(u[m] / scale for m in (0, 2, 3, 4))))


def ads_metric_diag(x, k: ModelConstants) -> np.ndarray:
    """Diagonal of the AdS metric in coordinates x = (t, r, theta, psi, phi):
    -cosh^2(kappa r), then the squared frame factors."""
    _, r, theta, psi, _ = x
    lapse2 = np.cosh(k.kappa * r) ** 2
    return np.concatenate([[-lapse2], frame_scales(r, theta, psi, k) ** 2])


# Flat metric of the embedding space, indices 0..5 with 0 and 5 timelike.
_ETA6 = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, -1.0])



def _embedding(x, k):
    """Hyperboloid point y^A and Jacobian dy^A/dx^mu, x = (t,r,theta,psi,phi)."""
    kappa = k.kappa
    t, r, theta, psi, phi = x
    sth, cth = np.sin(theta), np.cos(theta)
    sps, cps = np.sin(psi), np.cos(psi)
    sph, cph = np.sin(phi), np.cos(phi)
    n = np.array([sth * sps * cph, sth * sps * sph, sth * cps, cth])
    dn = np.array(
        [
            [cth * sps * cph, cth * sps * sph, cth * cps, -sth],  # d/dtheta
            [sth * cps * cph, sth * cps * sph, -sth * sps, 0.0],  # d/dpsi
            [-sth * sps * sph, sth * sps * cph, 0.0, 0.0],        # d/dphi
        ]
    )
    ch, sh = np.cosh(kappa * r), np.sinh(kappa * r)
    st, ct_ = np.sin(kappa * t), np.cos(kappa * t)
    # On the 0-slice y^0 = cosh(kappa r)/kappa is the nonvanishing timelike
    # coordinate, so the (i,0) generators restrict to boosts there.
    y = np.empty(6)
    y[0] = ch * ct_ / kappa
    y[1:5] = sh * n / kappa
    y[5] = ch * st / kappa
    jac = np.zeros((6, 5))
    jac[0, 0] = -ch * st
    jac[5, 0] = ch * ct_
    jac[0, 1] = sh * ct_
    jac[1:5, 1] = ch * n
    jac[5, 1] = sh * st
    for m, mu in enumerate((2, 3, 4)):
        jac[1:5, mu] = sh * dn[m] / kappa
    return y, jac


def embedding_killing_vector(label, x, k: ModelConstants) -> np.ndarray:
    """Coordinate components (t, r, theta, psi, phi) of the full Killing field.

    This is the flat rotation generator of the embedding space pulled back to
    the hyperboloid; it restricts to the slice expressions at t = 0.
    """
    canonical, sign = normalize_label(label)
    a, b = canonical
    y, jac = _embedding(np.asarray(x, dtype=float), k)
    u6 = np.zeros(6)
    u6[b] = _ETA6[a] * y[a]
    u6[a] = -_ETA6[b] * y[b]
    u_low = jac.T @ (_ETA6 * u6)
    g = ads_metric_diag(x, k)
    return sign * u_low / g


def spacetime_killing_vector(label, x, k: ModelConstants) -> np.ndarray:
    """Full Killing field in coordinates (t, r, theta, psi, phi).

    The time translation and the spatial rotations are t-independent, so
    their closed-form slice components are valid everywhere; evaluating them
    directly keeps the exact symmetry zeros free of the roundoff the
    embedding pullback would introduce.  The boost families genuinely depend
    on t and go through the pullback.
    """
    canonical, sign = normalize_label(label)
    a, b = canonical
    if b == 0 and a != 5 or b == 5:
        return embedding_killing_vector(label, x, k)
    _, r, theta, psi, phi = np.asarray(x, dtype=float)
    comps = _coord_components(canonical, r, theta, psi, phi, k)
    return sign * np.array([float(c) for c in comps])


def killing_residual(label, x, h: float, k: ModelConstants) -> float:
    """Max-norm of the central-difference Lie derivative of the AdS metric.

    x = (t, r, theta, psi, phi).  Both the vector field derivatives and the
    metric derivatives are taken by central differences, so coordinate
    symmetries (t- and phi-independence) give exact zeros up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    dU = np.zeros((5, 5))  # dU[mu, rho] = d_mu U^rho
    dg = np.zeros((5, 5))  # dg[rho, mu] = d_rho g_{mu mu}
    for mu in range(5):
        step = np.zeros(5)
        step[mu] = h
        up = spacetime_killing_vector(label, x + step, k)
        dn = spacetime_killing_vector(label, x - step, k)
        dU[mu] = (up - dn) / (2 * h)
        dg[mu] = (ads_metric_diag(x + step, k) - ads_metric_diag(x - step, k)) / (
            2 * h
        )
    U = spacetime_killing_vector(label, x, k)
    g = ads_metric_diag(x, k)
    lie = np.zeros((5, 5))
    for mu in range(5):
        for nu in range(5):
            val = np.dot(U, dg[:, mu]) if mu == nu else 0.0
            val += g[nu] * dU[mu, nu] + g[mu] * dU[nu, mu]
            lie[mu, nu] = val
    return float(np.max(np.abs(lie)))
