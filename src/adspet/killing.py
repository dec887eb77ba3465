"""The fifteen Killing vector fields of the (4+1)-dimensional AdS spacetime.

AdS is the hyperboloid <y, y> = -1/kappa^2 in R^{4,2}, and each field is the
generator of the rotations of one plane (a, b) there.  On the t = 0 slice its
frame components are products of the ambient frame vectors, with no division
by sin(theta) or sin(psi); off the slice, in coordinates (t, r, theta, psi,
phi), they are the same products turned by kappa t and divided by the frame
factors.  A finite-difference Lie-derivative residual verifies the Killing
equation against the closed-form metric.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    ModelConstants,
    _require_off_poles,
    frame_scales,
)

__all__ = [
    "ALL_LABELS",
    "normalize_label",
    "killing_vector_frame",
    "killing_radial_scale",
    "killing_frame_factors",
    "spacetime_killing_vector",
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


# Signature of the embedding space R^{4,2}, indices 0..5 with 0 and 5 timelike.
_ETA6 = (-1.0, 1.0, 1.0, 1.0, 1.0, -1.0)
# The (theta, psi, phi) factors of a vanishing and of a constant component.
_ZERO, _ONE = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)


def _ambient_components(i, theta, psi, phi):
    """Component i of the ambient vectors (u0, n, e2, e3, e4, u5) of R^{4,2},
    each as its (theta, psi, phi) factors.

    u0 and u5 are the unit vectors along the timelike axes y^0 and y^5.  n is
    the unit vector of S^3 in the axes 1..4, and e2 = d_theta n,
    e3 = d_psi n / sin(theta) and e4 = d_phi n / (sin(theta) sin(psi)) its
    orthonormal tangent frame, written without those divisions.  Every
    component is a product of one function of each angle, and the factors of
    a vector agree across the components 1..3 (theta) and 1..2 (psi), so the
    products that cancel in a frame component cancel exactly.
    """
    zero, one = _ZERO, _ONE
    if i in (0, 5):
        return tuple(one if v == i else zero for v in range(6))
    sth, cth = np.sin(theta), np.cos(theta)
    if i == 4:
        return (zero, (cth, 1.0, 1.0), (-sth, 1.0, 1.0), zero, zero, zero)
    sps, cps = np.sin(psi), np.cos(psi)
    if i == 3:
        return (zero, (sth, cps, 1.0), (cth, cps, 1.0), (1.0, -sps, 1.0), zero,
                zero)
    p, p_perp = (np.cos(phi), -np.sin(phi)) if i == 1 else (np.sin(phi), np.cos(phi))
    return (zero, (sth, sps, p), (cth, sps, p), (1.0, cps, p), (1.0, 1.0, p_perp),
            zero)


def killing_vector_frame(label, p, k: ModelConstants):
    """Frame components U^(0..4) against the orthonormal AdS frame at the
    broadcastable arrays p = (r, theta, psi, phi) of the t = 0 slice, each of
    their broadcast shape.

    The field (a, b) is the generator eta_a y_a d_b - eta_b y_b d_a of
    R^{4,2} at the slice point y = (cosh(kappa r) u0 + sinh(kappa r) n)/kappa,
    so U^(m) = omega(y, e_m) with omega(v, w) = eta_a eta_b (v_a w_b - v_b w_a),
    e_1 = d_r y and e_0 = -u5 (the frame's time axis is u5; lowering it flips
    the sign).  Each field reads only the components a and b of the ambient
    vectors.
    """
    (a, b), sign = normalize_label(label)
    r, theta, psi, phi = p
    va, vb = (_ambient_components(i, theta, psi, phi) for i in (a, b))
    eta = sign * _ETA6[a] * _ETA6[b]

    def product(x, y):
        # Angle by angle, so that equal products round to equal values.
        return (x[0] * y[0]) * (x[1] * y[1]) * (x[2] * y[2])

    def omega(v, w):
        return eta * (product(va[v], vb[w]) - product(vb[v], va[w]))

    x = k.kappa * np.asarray(r, dtype=float)
    ch, sh = np.cosh(x), np.sinh(x)
    shape = np.broadcast_shapes(*(np.shape(c) for c in p))
    # y and e_1 both grow like e^{kappa r}: omega(y, e_1) = omega(u0, n)/kappa
    # holds exactly, while the product form would cancel e^{2 kappa r}.
    u = (-(ch * omega(0, 5) + sh * omega(1, 5)) / k.kappa,
         omega(0, 1) / k.kappa,
         *((ch * omega(0, m) + sh * omega(1, m)) / k.kappa for m in (2, 3, 4)))
    return tuple(np.broadcast_to(c, shape) for c in u)


def killing_radial_scale(label, r: float, k: ModelConstants) -> float:
    """Radial scalar R(r) of the frame components U^(0) and U^(2..4).

    Each of those components is R(r) times a function of the angles alone:
    R = cosh(kappa r) for the time translation and the (i,0) boosts, and
    R = sinh(kappa r) for the (i,5) boosts and the rotations.  U^(1) of the
    (i,0) boosts does not depend on r and does not factor this way.
    """
    (_, b), _ = normalize_label(label)
    return math.cosh(k.kappa * r) if b == 0 else math.sinh(k.kappa * r)


def _omega_factors(va, vb, v, w, coef):
    """coef (va_v vb_w - vb_v va_w), the omega(v, w) / eta of two ambient
    vectors' components, as (coefficient, (theta, psi, phi) factors).

    Each of the two products is one product of per-angle factors.  Where
    both are live they share the factors of two angles exactly, so their
    difference is those two times the difference of the third.
    """
    terms = [(c, tuple(f * g for f, g in zip(p, q)))
             for c, p, q in ((coef, va[v], vb[w]), (-coef, vb[v], va[w]))
             if p is not _ZERO and q is not _ZERO]
    if len(terms) < 2:
        return terms[0] if terms else (0.0, _ZERO)
    (_, x), (_, y) = terms
    differ = [i for i in range(3) if not np.array_equal(x[i], y[i])]
    if not differ:
        return 0.0, _ZERO
    (d,) = differ  # one angle, for every label and component
    return coef, tuple(x[i] - y[i] if i == d else x[i] for i in range(3))


def killing_frame_factors(label, theta, psi, phi, k: ModelConstants):
    """The frame components U^(m), m = 0, 2, 3, 4, of a Killing field on the
    t = 0 slice, each as a coefficient c and one factor per angle:
    U^(m) = R(r) c T_theta(theta) T_psi(psi) T_phi(phi), with R the
    killing_radial_scale of the label, at every radius.

    Returns four pairs (c, (T_theta, T_psi, T_phi)); a factor is a float or
    an array of its angle's shape.  Of the two terms of each component in
    killing_vector_frame, omega(0, .) and omega(1, .), only the one whose
    radial factor is R is nonzero on the slice.
    """
    (a, b), sign = normalize_label(label)
    va, vb = (_ambient_components(i, theta, psi, phi) for i in (a, b))
    coef = sign * _ETA6[a] * _ETA6[b] / k.kappa
    x = 0 if b == 0 else 1
    return tuple(_omega_factors(va, vb, x, m, -coef if m == 5 else coef)
                 for m in (5, 2, 3, 4))


def ads_metric_diag(x, k: ModelConstants) -> np.ndarray:
    """Diagonal of the AdS metric at points x = (t, r, theta, psi, phi) of
    shape (5,) + P: -cosh^2(kappa r), then the squared frame factors, shape
    (5,) + P."""
    _, r, theta, psi, _ = x
    lapse2 = np.cosh(k.kappa * r) ** 2
    return np.concatenate([[-lapse2], frame_scales(r, theta, psi, k) ** 2])


def spacetime_killing_vector(label, x, k: ModelConstants) -> np.ndarray:
    """Full Killing field at points x = (t, r, theta, psi, phi) of shape
    (5,) + P, in coordinates: shape (5,) + P.

    Time evolution is the rotation by kappa t in the embedding's (0, 5)
    plane.  It leaves the time translation and the rotations unchanged and
    turns the boosts into each other, so at time t the (i, 0) field has the
    slice frame components of cos(kappa t) U_i0 - sin(kappa t) U_i5 and the
    (i, 5) field those of cos(kappa t) U_i5 + sin(kappa t) U_i0.  Dividing by
    the coordinate scales (cosh(kappa r), frame_scales) gives the components.
    """
    t, r, theta, psi, phi = np.asarray(x, dtype=float)
    _require_off_poles(np.sin(theta), np.sin(psi))
    (a, b), sign = normalize_label(label)
    if (a, b) == (1, 2):
        # d_phi in closed form: from the frame products it keeps about 1e-11
        # of roundoff in the Lie-derivative residual, where it must be 0.
        u = np.zeros((5,) + t.shape)
        u[4] = sign
        return u
    p = (r, theta, psi, phi)
    u = np.array(killing_vector_frame((a, b), p, k))
    if a != 5 and b in (0, 5):
        c, s = np.cos(k.kappa * t), np.sin(k.kappa * t)
        partner = np.array(killing_vector_frame((a, 5 - b), p, k))
        u = c * u + (s if b == 5 else -s) * partner
    scales = np.concatenate([[np.cosh(k.kappa * r)], frame_scales(r, theta, psi, k)])
    return sign * u / scales


def _lie_metric(u, g, du, dg):
    """(L_U g)_{mu nu} = delta_{mu nu} U^rho d_rho g_{mu mu} + g_{nu nu}
    d_mu U^nu + g_{mu mu} d_nu U^mu, from the diagonal metric g and the field
    U (shape (5,) + P) and their derivatives du[mu, nu] = d_mu U^nu and
    dg[rho, mu] = d_rho g_{mu mu} (shape (5, 5) + P): shape (5, 5) + P."""
    terms = g * du
    lie = terms + np.swapaxes(terms, 0, 1)
    mu = np.arange(5)
    lie[mu, mu] += np.sum(u[:, None] * dg, axis=0)
    return lie


def killing_residual(label, x, h: float, k: ModelConstants):
    """Central-difference Lie derivative L_U g of the AdS metric along a
    Killing field at points x = (t, r, theta, psi, phi) of shape (5,) + P,
    with step h / kappa in t and r (the fields' scale) and h in the angles.

    Returns (residual, scale) over P: the max-norm of L_U g, whose h^2 law
    tests every field but d/dt and d/dphi, and the max-norm of the same sum
    of the sizes of its terms, each difference f(x + s) - f(x - s) read as
    |f(x + s)| + |f(x - s)|.  The differences round on that scale, so the
    residual of an exact field, as d/dt and d/dphi are, is a few eps * scale.
    """
    x = np.asarray(x, dtype=float)
    tail = (1,) * (x.ndim - 1)
    step = np.array([h / k.kappa] * 2 + [h] * 3)
    # x shifted by +-step[mu] along coordinate mu: axes (coordinate, sign, mu).
    shift = np.stack([np.diag(step), -np.diag(step)], axis=1)
    shifted = x[:, None, None] + shift.reshape((5, 2, 5) + tail)
    two_step = (2 * step).reshape((5, 1) + tail)

    def central(f):
        """d_mu f^nu and the size of its operands, each [mu, nu] + P."""
        up, dn = np.moveaxis(f(shifted), 0, 2)
        return (up - dn) / two_step, (abs(up) + abs(dn)) / two_step

    du, du_size = central(lambda y: spacetime_killing_vector(label, y, k))
    dg, dg_size = central(lambda y: ads_metric_diag(y, k))
    u = spacetime_killing_vector(label, x, k)
    g = ads_metric_diag(x, k)
    lie = _lie_metric(u, g, du, dg)
    size = _lie_metric(abs(u), abs(g), du_size, dg_size)
    return np.max(abs(lie), axis=(0, 1)), np.max(size, axis=(0, 1))
