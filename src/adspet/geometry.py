"""Hyperbolic 4-slice geometry: frames, measures, spin connection, quadrature.

The slice metric is dr^2 + f(r)^2 (dtheta^2 + sin^2 theta (dpsi^2 +
sin^2 psi dphi^2)) with f(r) = sinh(kappa r)/kappa; the ambient static
metric adds -cosh^2(kappa r) dt^2.  Surface integrals over the geodesic
spheres S_r use a Gauss-Legendre product rule in (theta, psi) and a uniform
periodic rule in phi.  Radial limits are taken by a three-point
exponential fit L + b exp(-beta kappa r): its decay rate beta is read from
x = exp(-beta kappa (r2 - r1)), the root of a monotone function of x found
by a safeguarded Newton iteration; numpy and the standard library are the
only dependencies.

The scalar functions of kappa r that the surface integrals read are
evaluated once per (function, radii, kappa) and cached (_radial_table).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateCoordinateError",
    "NumericalError",
    "ModelConstants",
    "QuadratureSpec",
    "frame_scales",
    "spin_connection_grid",
    "SphereGrid",
    "sphere_grid",
    "RadialLimit",
    "radial_limit",
]

_POLE_TOL = 1e-12


class DegenerateCoordinateError(ValueError):
    """Raised when a frame quantity is evaluated at a coordinate pole."""


class NumericalError(ValueError):
    """An internal numerical failure, not a fault in the caller's input:
    non-finite surface data, radial factors that overflow a float at a large
    radius, or a charge matrix that is not finite or not Hermitian."""


@dataclass(frozen=True)
class ModelConstants:
    """Curvature scale kappa > 0; the cosmological constant is -6 kappa^2."""

    kappa: float = 1.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts, radii schedule and tolerance for sphere integrals."""

    ntheta: int = 16
    npsi: int = 16
    nphi: int = 16
    radii: tuple = (4.0, 5.0, 6.0, 7.0)
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.ntheta < 4 or self.npsi < 4:
            raise ValueError("ntheta and npsi must be >= 4")
        if self.nphi < 4 or self.nphi % 2:
            raise ValueError("nphi must be even and >= 4")
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.radii) < 3:
            raise ValueError("at least 3 radii are required")
        if not all(map(math.isfinite, self.radii)):
            raise ValueError(f"radii must be finite, got {self.radii}")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


def frame_scales(r, theta, psi, k: ModelConstants) -> np.ndarray:
    """Coordinate-to-frame factors s_a, so that d/dx_a = s_a * frame_a.

    Returns shape (4,) + broadcast(r, theta, psi).shape, for the axes r,
    theta, psi, phi: (1, f, f sin theta, f sin theta sin psi) with
    f = sinh(kappa r)/kappa.  At a coordinate pole the angular factors are 0.
    """
    f = np.sinh(k.kappa * np.asarray(r, dtype=float)) / k.kappa
    f_th = f * np.sin(theta)
    return np.stack(np.broadcast_arrays(np.ones_like(f), f, f_th,
                                        f_th * np.sin(psi)))


def _require_off_poles(sin_theta, sin_psi):
    """Raise DegenerateCoordinateError at a theta or psi pole, where the
    frame is singular."""
    if np.any(np.abs(sin_theta) < _POLE_TOL):
        raise DegenerateCoordinateError("evaluation at a theta pole")
    if np.any(np.abs(sin_psi) < _POLE_TOL):
        raise DegenerateCoordinateError("evaluation at a psi pole")


# The scalar functions of x = kappa r, given kappa, that the surface
# integrals read: the Killing fields' radial factors, the area factor f^3
# with f = sinh(kappa r)/kappa, the connection scalars kappa coth(kappa r)
# and 1/f of the mass aspect, and the spinor weights exp(+-kappa r).
_RADIAL_FUNCTIONS = {
    "cosh": lambda x, kappa: math.cosh(x),
    "sinh": lambda x, kappa: math.sinh(x),
    "area": lambda x, kappa: (math.sinh(x) / kappa) ** 3,
    "coth": lambda x, kappa: kappa / math.tanh(x),
    "inv_f": lambda x, kappa: kappa / math.sinh(x),
    "exp": lambda x, kappa: math.exp(x),
    "exp_neg": lambda x, kappa: math.exp(-x),
}


@functools.lru_cache(maxsize=8 * len(_RADIAL_FUNCTIONS))
def _radial_table(name: str, radii: tuple, kappa: float):
    """The function `name` of _RADIAL_FUNCTIONS at every radius of `radii`:
    (read-only values of shape (len(radii),), the first radius at which the
    function overflows a float, or None).

    Each value is computed by the math module, one radius at a time: numpy's
    vectorised cosh, sinh and exp may round differently in the last bit, and
    a value at one radius should not depend on the batch it came in.
    """
    fn = _RADIAL_FUNCTIONS[name]
    values, overflow = [], None
    for r in radii:
        try:
            value = fn(kappa * r, kappa)
        except (OverflowError, ZeroDivisionError):  # coth and 1/f at 0
            value = math.inf
        if math.isinf(value) and overflow is None:
            overflow = r
        values.append(value)
    values = np.array(values)
    values.setflags(write=False)
    return values, overflow


def _radial_values(name: str, r, k: ModelConstants, what: str) -> np.ndarray:
    """The function `name` of _RADIAL_FUNCTIONS at every radius of r (a
    float or an array), in r's shape, read-only; `what` names the quantity.

    Raises DegenerateCoordinateError at r <= 0, where the frame is singular,
    and NumericalError naming the first radius at which the function
    overflows a float.  So a caller that looks up its radial factors before
    evaluating a model's fields rejects a bad radius before the model sees it.
    """
    r = np.asarray(r, dtype=float)
    radii = tuple(r.ravel().tolist())
    if any(x <= 0 for x in radii):
        raise DegenerateCoordinateError(f"{what}: the frame needs r > 0")
    values, overflow = _radial_table(name, radii, k.kappa)
    if overflow is not None:
        raise NumericalError(f"{what} overflow at r = {overflow:g}")
    return values.reshape(r.shape)


def spin_connection_grid(r, theta, psi, k: ModelConstants) -> np.ndarray:
    """omega_{ab c} arrays over broadcastable (theta, psi) at radius r.

    Returns shape (4, 4, 4) + broadcast(theta, psi).shape, 0-based frame
    indices (frame a = index a-1).  Its callers are the Killing-spinor
    residual verifier and the tests; the mass aspect writes the three
    connection factors it reads in closed form.
    """
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    _require_off_poles(np.sin(theta), np.sin(psi))
    shape = np.broadcast(theta, psi).shape
    omega = np.zeros((4, 4, 4) + shape)
    what = "the spin connection"
    coth = _radial_values("coth", r, k, what)
    inv_f = _radial_values("inv_f", r, k, what)
    ones = np.ones(shape)
    # Radial family: omega_{a1 a} = kappa coth(kappa r), a = 2, 3, 4.
    for a in (1, 2, 3):
        omega[a, 0, a] = coth * ones
    # Round-S3 terms scaled by kappa / sinh(kappa r).
    cot_th = inv_f * np.cos(theta) / np.sin(theta)
    omega[2, 1, 2] = cot_th * ones
    omega[3, 1, 3] = cot_th * ones
    omega[3, 2, 3] = inv_f * np.cos(psi) / (np.sin(psi) * np.sin(theta)) * ones
    omega -= np.swapaxes(omega, 0, 1)
    return omega


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S_r: GL(theta) x GL(psi) x uniform(phi).

    The weight of a node is the product of one weight per angle, each with
    its part of the angular measure sin^2 theta sin psi.
    """

    theta: np.ndarray  # shape (ntheta, 1, 1)
    psi: np.ndarray    # shape (1, npsi, 1)
    phi: np.ndarray    # shape (1, 1, nphi)
    axis_weights: tuple  # the weights of theta, psi and phi, in their shapes

    @property
    def shape(self):
        return (self.theta.size, self.psi.size, self.phi.size)

    @property
    def weights(self) -> np.ndarray:
        """The node weights, shape (ntheta, npsi, nphi)."""
        w_theta, w_psi, w_phi = self.axis_weights
        return w_theta * w_psi * w_phi

    def require_finite(self, values):
        """Raise NumericalError naming the first node where values is not
        finite.

        The last three axes of values are the grid axes.
        """
        finite = np.isfinite(values)
        if not finite.all():
            it, ip, iph = np.argwhere(~finite)[0][-3:]
            raise NumericalError(
                "non-finite value at node (theta=%g, psi=%g, phi=%g)"
                % (self.theta[it, 0, 0], self.psi[0, ip, 0], self.phi[0, 0, iph])
            )

    def integrate(self, values, r, k: ModelConstants):
        """Integral over S_r, against the area form, of a field given at the
        nodes.

        r is a radius or an array of radii of shape B; values broadcasts to
        B + grid shape, and the result has shape B.  Raises
        DegenerateCoordinateError at r <= 0.
        """
        r = np.asarray(r, dtype=float)
        area = _radial_values("area", r, k, "the area factors of S_r")
        values = np.broadcast_to(values, r.shape + self.shape)
        self.require_finite(values)
        return np.sum(values * self.weights, axis=(-3, -2, -1)) * area


def sphere_grid(ntheta: int, npsi: int, nphi: int) -> SphereGrid:
    """Build the quadrature grid; nodes avoid the poles by construction."""
    xt, wt = np.polynomial.legendre.leggauss(ntheta)
    xp, wp = np.polynomial.legendre.leggauss(npsi)
    theta = (math.pi / 2) * (xt + 1.0)
    psi = (math.pi / 2) * (xp + 1.0)
    wt = wt * (math.pi / 2)
    wp = wp * (math.pi / 2)
    phi = 2 * math.pi * np.arange(nphi) / nphi
    wphi = np.full(nphi, 2 * math.pi / nphi)
    # The angular part of the measure density, sin^2 theta * sin psi.
    return SphereGrid(
        theta=theta[:, None, None],
        psi=psi[None, :, None],
        phi=phi[None, None, :],
        axis_weights=((wt * np.sin(theta) ** 2)[:, None, None],
                      (wp * np.sin(psi))[None, :, None],
                      wphi[None, None, :]),
    )


@dataclass(frozen=True)
class RadialLimit:
    """The extrapolated limit.  residual is |limit - previous limit| between
    the last two overlapping triples, at least |v_n - v_(n-1)| when the last
    triple is not fitted, and None when three radii leave a fitted limit
    unassessed."""

    limit: float
    residual: float | None
    diverged: bool
    beta: float | None = None


# The decay-rate bracket of the fit: beta in [1e-8, 60].
_BETA_BRACKET = (1e-8, 60.0)


def _increment_ratio(x, q):
    """G(x) = x (1 - x^q) / (1 - x) and dG/dx, for 0 < x < 1 and q > 0.

    Through v = L + b x^((r - r1)/(r2 - r1)) at r1 < r2 < r3, with q =
    (r3 - r2)/(r2 - r1), G(x) is the ratio (v3 - v2)/(v2 - v1).  It rises
    from 0 at x -> 0 to q at x -> 1, and is x itself on equal spacing
    (q = 1).  With s = 1 - x and t = 1 - x^q, written without cancellation,
    G = x t / s and dG/dx = (t - q (1 - t) s) / s^2.
    """
    s = 1.0 - x
    t = -math.expm1(q * math.log(x))
    return x * t / s, (t - q * (1.0 - t) * s) / (s * s)


def _solve_increment_ratio(ratio, q, lo, hi):
    """The root x in [lo, hi] of G(x) = ratio, G(lo) <= ratio <= G(hi).

    Newton's method from x = ratio, kept inside a bracket that every
    evaluation narrows; a step that leaves the bracket bisects it instead.
    On equal spacing G(x) = x, so the first step lands on the root.
    """
    x = min(max(ratio, lo), hi)
    for _ in range(100):
        g, dg = _increment_ratio(x, q)
        f = g - ratio
        if f > 0:
            hi = x
        elif f < 0:
            lo = x
        else:
            return x
        # A slope that is not positive (roundoff near x = 1) bisects.
        step = -f / dg if dg > 0 else math.nan
        x_new = x + step
        if not lo < x_new < hi:  # also a NaN step
            x_new = 0.5 * (lo + hi)
        elif abs(step) <= 1e-14 * x:
            return x_new
        x = x_new
    return x


def _fit_triple(rs, vs, kappa):
    """Fit v = L + b exp(-beta kappa r) through three points.

    Returns (limit, residual, beta): the fitted limit with residual None, or
    v3 with residual |v3 - v2| and beta None when no decaying exponential
    with beta in [1e-8, 60] passes through the points.
    """
    r1, r2, r3 = rs
    v1, v2, v3 = vs
    d1 = v2 - v1
    d2 = v3 - v2
    scale = max(abs(v1), abs(v2), abs(v3), 1e-300)
    if abs(d1) < 1e-14 * scale or abs(d2) < 1e-14 * scale:
        return float(v3), abs(d2), None
    ratio = d2 / d1
    q = (r3 - r2) / (r2 - r1)
    # d2/d1 = G(x) with x = exp(-beta kappa (r2 - r1)), which falls from q at
    # beta -> 0 to 0 at beta -> oo.
    if not 0 < ratio < q:
        # Not a monotone decaying exponential; take the last value.
        return float(v3), abs(d2), None
    h2 = kappa * (r2 - r1)
    # The x of each end of the beta bracket, kept inside (0, 1) where
    # exp(-60 h2) underflows or exp(-1e-8 h2) rounds to 1.
    lo = max(math.exp(-_BETA_BRACKET[1] * h2), math.ulp(0.0))
    hi = min(math.exp(-_BETA_BRACKET[0] * h2), math.nextafter(1.0, 0.0))
    if _increment_ratio(lo, q)[0] > ratio or _increment_ratio(hi, q)[0] < ratio:
        return float(v3), abs(d2), None
    x = _solve_increment_ratio(ratio, q, lo, hi)
    # v3 - L = b x^(1 + q) = d2 x^q / (x^q - 1).
    xq = x**q
    return float(v3 + d2 * xq / (1.0 - xq)), None, -math.log(x) / h2


def radial_limit(values: Sequence, k: ModelConstants) -> RadialLimit:
    """Extrapolate (r_k, v_k) to r -> infinity by an exponential fit.

    Declares divergence when |v_k| grows monotonically by a factor > 1.5
    across the last three radii.
    """
    pairs = sorted((float(r), float(v)) for r, v in values)
    if len(pairs) < 3:
        raise ValueError("at least 3 radii are required for extrapolation")
    rs = [p[0] for p in pairs]
    vs = [p[1] for p in pairs]
    a1, a2, a3 = (abs(v) for v in vs[-3:])
    if a2 > 1.5 * a1 and a3 > 1.5 * a2:
        return RadialLimit(limit=math.nan, residual=math.inf, diverged=True)
    limit, resid, beta = _fit_triple(rs[-3:], vs[-3:], k.kappa)
    if len(pairs) >= 4:
        prev = _fit_triple(rs[-4:-1], vs[-4:-1], k.kappa)[0]
        resid = max(resid or 0.0, abs(limit - prev))
    return RadialLimit(limit=limit, residual=resid, diverged=False, beta=beta)
