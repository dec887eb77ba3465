"""Asymptotically AdS initial data: perturbation fields, aspects, ingestion.

A model carries the metric perturbation a_ij and the second fundamental
form h_ij as frame-component fields over (r, theta, psi, phi), a decay
order tau, and the curvature scale.  The mass aspect combines covariant
divergence and trace terms of a; the momentum aspect is the trace-adjusted
h.  `mass_aspect_grid` is the library's one e_1 function: the charges call
it with the angular factors of their grid (`angular_factors`), built once
per grid.  Decay validation and the grid-file writer, like the surface
pass, evaluate each field once, with every radius at once.  Analytic models
write only a and h; grid models, read from the "AADS-ID v1" text format,
also differentiate their samples.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    ModelConstants,
    _radial_values,
    _require_off_poles,
    sphere_grid,
)

__all__ = [
    "InitialDataModel",
    "AdsExactModel",
    "RadialBumpModel",
    "OffdiagMomentumModel",
    "GridModel",
    "ANGULAR_PROFILES",
    "model_registry",
    "model_from_config",
    "angular_factors",
    "mass_aspect_grid",
    "momentum_aspect_grid",
    "decay_validate",
    "write_grid_file",
    "read_grid_file",
]

# h of a_and_da's complex step Im a(x + i h e_k) / h: it takes no difference,
# so h may lie far below roundoff (the error is O(h^2) relative).
COMPLEX_STEP = 1e-30
_STEPS = 1j * COMPLEX_STEP * np.eye(4)  # row k: the step along coordinate k

# Row-major order of the 10 independent components of a symmetric 4x4 field.
SYM_ORDER = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def _ndim(*coords) -> int:
    """Number of axes of broadcast(*coords)."""
    return max(np.ndim(c) for c in coords)


def _leading_axes(x, *coords) -> np.ndarray:
    """x as an array of its own dtype (complex at a_and_da's complex step)
    with length-1 axes prepended, up to the number of axes of
    broadcast(*coords); numpy broadcasting aligns them the same way."""
    x = np.asarray(x)
    return x.reshape((1,) * (_ndim(*coords) - x.ndim) + x.shape)


def _finite(name: str, value) -> float:
    """A model parameter as a float; ValueError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _zero_field(r, theta, psi, phi) -> np.ndarray:
    """A vanishing field: shape (1,) * ndim + (4, 4)."""
    return np.zeros((1,) * _ndim(r, theta, psi, phi) + (4, 4))


# Angular profiles g(theta, psi, phi).  Each returns an array with as many
# axes as broadcast(theta, psi, phi), of length 1 along every angle it does
# not depend on: on the sphere grid, sin_theta has shape (ntheta, 1, 1) and
# one has shape (1, 1, 1).
ANGULAR_PROFILES: dict[str, Callable] = {
    "one": lambda t, p, f: _leading_axes(1.0, t, p, f),
    "sin_theta": lambda t, p, f: _leading_axes(np.sin(t), t, p, f),
    "cos_theta": lambda t, p, f: _leading_axes(np.cos(t), t, p, f),
    "sin_psi": lambda t, p, f: _leading_axes(np.sin(p), t, p, f),
    "cos_psi": lambda t, p, f: _leading_axes(np.cos(p), t, p, f),
    "sin_phi": lambda t, p, f: _leading_axes(np.sin(f), t, p, f),
    "cos_phi": lambda t, p, f: _leading_axes(np.cos(f), t, p, f),
}


class InitialDataModel:
    """Base class: immutable fields a_ij, h_ij with decay order tau."""

    name = "abstract"

    def __init__(self, tau: float, constants: ModelConstants):
        tau = _finite("decay order tau", tau)
        if not tau > 2:
            raise ValueError(f"decay order tau must exceed 2, got {tau}")
        self.tau = tau
        self.constants = constants

    def a(self, r, theta, psi, phi) -> np.ndarray:
        """Metric perturbation, shape S + (4, 4): the field shape S has as
        many axes as broadcast(r, theta, psi, phi) and broadcasts to it.

        An axis the field does not depend on may have length 1, so on the
        sphere grid a purely radial field has S = (1, 1, 1); a model may
        also return the full broadcast shape.  The coordinates may be
        complex (see a_and_da): a() must not cast them to float.
        """
        raise NotImplementedError

    def h(self, r, theta, psi, phi) -> np.ndarray:
        """Second fundamental form, same shape contract as a()."""
        raise NotImplementedError

    def a_and_da(self, r, theta, psi, phi) -> tuple:
        """a and its coordinate derivatives da, of shapes S + (4, 4) and
        (4,) + S + (4, 4), with the field shape S of the a() contract.

        Axis 0 of da enumerates d/dr, d/dtheta, d/dpsi, d/dphi, each the
        complex step Im a(x + i h e_k) / h, h = COMPLEX_STEP, from one call
        of a() with the four directions on a leading axis; a is the real
        part of the first direction: a(x) to O(h^2) relative, and to the
        last bit where complex arithmetic rounds apart from real (numpy's
        complex exp is the C library's).  TypeError if a() drops the
        imaginary part (a cast to float: numpy's ComplexWarning).
        """
        coords = (r, theta, psi, phi)
        steps = _STEPS.reshape((4, 4) + (1,) * _ndim(*coords))
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            try:
                a = self.a(*(c + steps[:, k] for k, c in enumerate(coords)))
            except np.exceptions.ComplexWarning as exc:
                raise TypeError(f"model {self.name!r}: a() dropped the imaginary "
                                f"part of the complex step ({exc})") from None
        # A field that depends on no coordinate has length 1 on the leading
        # axis; the division spreads it to the four directions.
        da = np.divide(np.imag(a), COMPLEX_STEP, out=np.empty((4,) + np.shape(a)[1:]))
        return np.real(a[0]), da

    def params(self) -> dict:
        return {}

    def config(self) -> dict:
        return {"name": self.name, "params": self.params()}


class AdsExactModel(InitialDataModel):
    """Unperturbed hyperbolic slice: a = h = 0."""

    name = "ads_exact"

    def __init__(self, constants: ModelConstants = ModelConstants(), tau: float = 4.0):
        super().__init__(tau, constants)

    def _zeros(self, r, theta, psi, phi):
        return _zero_field(r, theta, psi, phi)

    a = _zeros
    h = _zeros


class RadialBumpModel(InitialDataModel):
    """a_ij = m exp(-sigma kappa r) delta_ij, h = 0."""

    name = "radial_bump"

    def __init__(self, m: float, sigma: float = 4.0,
                 constants: ModelConstants = ModelConstants()):
        super().__init__(sigma, constants)
        self.m = _finite("m", m)
        self.sigma = self.tau

    def a(self, r, theta, psi, phi):
        f = self.m * np.exp(-self.sigma * self.constants.kappa * np.asarray(r))
        return _leading_axes(f, r, theta, psi, phi)[..., None, None] * np.eye(4)

    def h(self, r, theta, psi, phi):
        return _zero_field(r, theta, psi, phi)

    def params(self):
        return {"m": self.m, "sigma": self.sigma}


class OffdiagMomentumModel(InitialDataModel):
    """h_{1k} = h_{k1} = q exp(-sigma kappa r) profile(angles); a = 0."""

    name = "offdiag_momentum"

    def __init__(self, q: float, axis: int, profile: str = "one", sigma: float = 4.0,
                 constants: ModelConstants = ModelConstants()):
        if axis not in (2, 3, 4):
            raise ValueError(f"axis must be 2, 3 or 4, got {axis}")
        if profile not in ANGULAR_PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; choose from {sorted(ANGULAR_PROFILES)}"
            )
        super().__init__(sigma, constants)
        self.q = _finite("q", q)
        self.axis = int(axis)
        self.profile = profile
        self.sigma = self.tau

    def a(self, r, theta, psi, phi):
        return _zero_field(r, theta, psi, phi)

    def h(self, r, theta, psi, phi):
        radial = self.q * np.exp(
            -self.sigma * self.constants.kappa * np.asarray(r, dtype=float)
        )
        w = ANGULAR_PROFILES[self.profile](theta, psi, phi)
        field = _leading_axes(radial * w, r, theta, psi, phi)
        out = np.zeros(field.shape + (4, 4))
        kk = self.axis - 1
        out[..., 0, kk] = field
        out[..., kk, 0] = field
        return out

    def params(self):
        return {"q": self.q, "axis": self.axis, "profile": self.profile,
                "sigma": self.sigma}


def _barycentric_diffmat(nodes: np.ndarray) -> np.ndarray:
    """Polynomial differentiation matrix on arbitrary distinct nodes."""
    n = len(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _fourier_diffmat(n: int) -> np.ndarray:
    """Spectral differentiation matrix for the uniform periodic phi grid."""
    freqs = np.fft.fftfreq(n, d=1.0 / n) * 1j
    F = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(freqs[:, None] * F, axis=0))


class GridModel(InitialDataModel):
    """Sampled initial data on a fixed product grid (AADS-ID v1 files)."""

    name = "grid"

    def __init__(self, radii, ntheta, npsi, nphi, a_data, h_data, tau,
                 constants: ModelConstants, path: str | None = None):
        super().__init__(tau, constants)
        self.radii = np.asarray(radii, dtype=float)
        if not np.all(np.isfinite(self.radii)):
            raise ValueError(f"grid radii must be finite, got {self.radii}")
        if len(self.radii) < 3 or np.any(np.diff(self.radii) <= 0):
            raise ValueError("grid radii must be >= 3 and strictly increasing")
        self.grid = sphere_grid(ntheta, npsi, nphi)
        shape = (len(self.radii), ntheta, npsi, nphi, 4, 4)
        self.a_data = np.asarray(a_data, dtype=float).reshape(shape)
        self.h_data = np.asarray(h_data, dtype=float).reshape(shape)
        self.path = path
        self._dth = _barycentric_diffmat(self.grid.theta[:, 0, 0])
        self._dps = _barycentric_diffmat(self.grid.psi[0, :, 0])
        self._dph = _fourier_diffmat(nphi) * (nphi / (2 * math.pi))

    def _radius_index(self, r) -> np.ndarray:
        """Index into the file's radii of r: a radius, or radii of shape
        B + (1, 1, 1) as on the sphere grid, giving an index of shape B."""
        r = np.asarray(r, dtype=float)
        r = r.reshape(r.shape[:-3] if r.ndim > 3 else ())
        idx = np.argmin(np.abs(self.radii - r[..., None]), axis=-1)
        if np.any(np.abs(self.radii[idx] - r) > 1e-9):
            raise ValueError(
                f"grid model evaluable only at its own radii; got r={r}"
            )
        return idx

    def _check_angles(self, theta, psi, phi):
        g = self.grid
        if not (
            np.allclose(np.unique(np.asarray(theta)), g.theta[:, 0, 0])
            and np.allclose(np.unique(np.asarray(psi)), g.psi[0, :, 0])
            and np.allclose(np.unique(np.asarray(phi)), g.phi[0, 0, :])
        ):
            raise ValueError("grid model requires its own angular grid")

    def a(self, r, theta, psi, phi):
        self._check_angles(theta, psi, phi)
        return self.a_data[self._radius_index(r)]

    def h(self, r, theta, psi, phi):
        self._check_angles(theta, psi, phi)
        return self.h_data[self._radius_index(r)]

    def a_and_da(self, r, theta, psi, phi):
        self._check_angles(theta, psi, phi)
        i = self._radius_index(r)
        # Radial derivative of the quadratic through the nearest three radii.
        lo = np.clip(i - 1, 0, len(self.radii) - 3)
        x0, x1, x2 = (self.radii[lo + n] for n in range(3))
        f0, f1, f2 = (self.a_data[lo + n] for n in range(3))
        x = self.radii[i]
        w0, w1, w2 = (np.reshape(w, np.shape(w) + (1,) * 5) for w in (
            (2 * x - x1 - x2) / ((x0 - x1) * (x0 - x2)),
            (2 * x - x0 - x2) / ((x1 - x0) * (x1 - x2)),
            (2 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))))
        dr = w0 * f0 + w1 * f1 + w2 * f2
        slab = self.a_data[i]
        dth = np.einsum("ij,...jabkl->...iabkl", self._dth, slab)
        dps = np.einsum("ij,...ajbkl->...aibkl", self._dps, slab)
        dph = np.einsum("ij,...abjkl->...abikl", self._dph, slab)
        return slab, np.stack([dr, dth, dps, dph])

    def params(self):
        return {"file": self.path}


def model_registry(name: str, params: dict | None = None,
                   constants: ModelConstants = ModelConstants()) -> InitialDataModel:
    """Construct a bundled model by name; a name that is not a string,
    params that are not a dict or None, and bad params raise ValueError."""
    if not isinstance(name, str):
        raise ValueError(f"model name must be a string, got {name!r}")
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"model params must be an object, got {params!r}")
    params = dict(params or {})
    if name == "grid":
        if "file" not in params:
            raise ValueError("model 'grid' needs the param 'file'")
        return read_grid_file(params["file"])
    classes = {cls.name: cls for cls in (AdsExactModel, RadialBumpModel,
                                         OffdiagMomentumModel)}
    if name not in classes:
        raise ValueError(f"unknown model {name!r}")
    try:
        return classes[name](constants=constants, **params)
    except TypeError as exc:  # a missing, unknown or non-numeric parameter
        raise ValueError(f"bad params for model {name!r}: {exc}") from exc


def model_from_config(config, constants: ModelConstants = ModelConstants()):
    """Build a model from a JSON object/string {"name": ..., "params": {...}}."""
    if isinstance(config, str):
        config = json.loads(config)
    if not isinstance(config, dict):
        raise ValueError(f"a model config must be a JSON object, got {config!r}")
    if "name" not in config:
        raise ValueError(f"model config {config!r} has no 'name'")
    return model_registry(config["name"], config.get("params"), constants)


def angular_factors(theta, psi) -> tuple:
    """The angular factors of e_1 at broadcastable (theta, psi): sin theta,
    sin theta sin psi, 2 cot theta and cot psi / sin theta, each in the
    broadcast shape of its angles.

    Raises DegenerateCoordinateError at a theta or psi pole.  The sphere
    grid's nodes avoid the poles; the charges build its factors once per
    grid.
    """
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    sin_th, sin_ps = np.sin(theta), np.sin(psi)
    _require_off_poles(sin_th, sin_ps)
    sin_th_ps = sin_th * sin_ps
    return (sin_th, sin_th_ps, 2 * np.cos(theta) / sin_th,
            np.cos(psi) / sin_th_ps)


def mass_aspect_grid(a, da, r, angular: tuple, k: ModelConstants) -> np.ndarray:
    """Radial mass aspect e_1 of the fields a (shape S + (4, 4)) and their
    coordinate derivatives da ((4,) + S + (4, 4)), as a model's `a` and
    `a_and_da` return them at (r, theta, psi, phi), with `angular` =
    angular_factors(theta, psi); shape broadcast(S, theta, psi).

    r > 0 is a radius or an array of radii that broadcasts against the
    angles, as the model was evaluated at, e.g. shape B + (1, 1, 1) on the
    sphere grid.

    e_1 is the frame divergence of a along e_1, minus the radial derivative
    of tr a, minus kappa (a_11 - g_11 tr a), with g = delta + a.  The
    divergence (nabla_j a)_{1j} = e_j(a_1j) - omega_{k1 j} a_kj -
    omega_{kj j} a_1k reads three nonzero connection factors, 1, cot theta
    and cot psi / sin theta, times the radial scalars coth = kappa
    coth(kappa r) and 1/f = kappa / sinh(kappa r).  With 0-based frame
    indices and da_x the coordinate derivatives of a,

        e_1 = da_r[00] + (da_theta[01] + da_psi[02] / sin theta
                          + da_phi[03] / (sin theta sin psi)) / f
              - coth (a11 + a22 + a33) + 3 coth a00
              + (2 cot theta a01 + cot psi / sin theta a02) / f
              - tr da_r - kappa (a00 - (1 + a00) tr a).

    The angular factors keep the shape of theta and psi, so e_1 has the
    data's own shape along phi.  The radial scalars come from the cached
    table of geometry._radial_values, which raises DegenerateCoordinateError
    at r <= 0 and NumericalError naming the radius where 1/f overflows a
    float (kappa r past about 710).
    """
    coth, inv_f = _mass_aspect_scalars(r, k)
    sin_th, sin_th_ps, two_cot_th, cot_ps_sin_th = angular
    div = da[0][..., 0, 0] + inv_f * (da[1][..., 0, 1] + da[2][..., 0, 2] / sin_th
                                      + da[3][..., 0, 3] / sin_th_ps)
    div = (div - coth * (a[..., 1, 1] + a[..., 2, 2] + a[..., 3, 3])
           + 3 * coth * a[..., 0, 0]
           + inv_f * (two_cot_th * a[..., 0, 1] + cot_ps_sin_th * a[..., 0, 2]))
    grad_tr = np.einsum("...ii->...", da[0])
    tra = np.einsum("...ii->...", a)
    correction = k.kappa * (a[..., 0, 0] - (1.0 + a[..., 0, 0]) * tra)
    return div - grad_tr - correction


def _mass_aspect_scalars(r, k: ModelConstants) -> tuple:
    """The radial scalars of the mass aspect at r: kappa coth(kappa r) and
    1/f = kappa / sinh(kappa r), from the cached table of
    geometry._radial_values, which raises DegenerateCoordinateError at
    r <= 0 and NumericalError naming the radius where one overflows."""
    what = "the radial scalars of the mass aspect"
    return tuple(_radial_values(name, r, k, what) for name in ("coth", "inv_f"))


def momentum_aspect_grid(a, h) -> np.ndarray:
    """Momentum aspect P_{ki} = h_ki - g_ki tr h of the fields a and h, with
    g = delta + a: shape S + (4, 4), S the broadcast of their field shapes."""
    trh = np.einsum("...ii->...", h)
    return h - (np.eye(4) + a) * trh[..., None, None]


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    vacuous: bool
    tau: float
    sigma_a: float | None
    sigma_grad_a: float | None
    sigma_h: float | None

    def as_dict(self):
        return {
            "passed": self.passed,
            "vacuous": self.vacuous,
            "tau": self.tau,
            "sigma_a": self.sigma_a,
            "sigma_grad_a": self.sigma_grad_a,
            "sigma_h": self.sigma_h,
        }


def _decay_exponent(norms, radii, kappa):
    if np.max(norms) < 1e-300:
        return None
    logs = np.log(np.maximum(norms, 1e-300))
    slope = (logs[-1] - logs[0]) / (kappa * (radii[-1] - radii[0]))
    return float(-slope)


def decay_validate(model: InitialDataModel, radii: Sequence[float],
                   ntheta: int = 8, npsi: int = 8, nphi: int = 8) -> DecayReport:
    """Estimate empirical decay exponents of a, grad a and h over spheres."""
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ValueError("at least 3 radii are required")
    k = model.constants
    if isinstance(model, GridModel):
        grid = model.grid
    else:
        grid = sphere_grid(ntheta, npsi, nphi)
    # Every radius at once, on an axis of its own ahead of the angles.  The
    # largest |component| on each sphere has length 1 for a field that does
    # not depend on r, whose exponent is then 0 as with equal norms.
    nodes = (np.reshape(radii, (-1, 1, 1, 1)), grid.theta, grid.psi, grid.phi)
    a, da = model.a_and_da(*nodes)
    sa, sda, sh = (_decay_exponent(np.max(np.abs(f), axis=(-5, -4, -3, -2, -1)),
                                   radii, k.kappa)
                   for f in (a, da[0], model.h(*nodes)))
    vacuous = sa is None and sda is None and sh is None
    threshold = model.tau - 0.1
    passed = all(s is None or s >= threshold for s in (sa, sda, sh))
    return DecayReport(passed=passed, vacuous=vacuous, tau=model.tau,
                       sigma_a=sa, sigma_grad_a=sda, sigma_h=sh)


def write_grid_file(path, model: InitialDataModel, radii, ntheta, npsi, nphi,
                    tau=None):
    """Write an AADS-ID v1 file, sampling a model on the given grid."""
    grid = sphere_grid(ntheta, npsi, nphi)
    r = np.asarray(radii, dtype=float).reshape(-1, 1, 1, 1)
    shape = (len(r),) + grid.shape + (4, 4)
    rows, cols = zip(*SYM_ORDER)
    # One row per node: the SYM_ORDER components of a, then those of h.
    table = np.concatenate([
        np.broadcast_to(f(r, grid.theta, grid.psi, grid.phi), shape)[..., rows, cols]
        for f in (model.a, model.h)
    ], axis=-1).reshape(-1, 20)
    with open(path, "w") as fh:
        fh.write("aads-id 1\n")
        fh.write(f"kappa={model.constants.kappa!r}\n")
        fh.write(f"tau={float(model.tau if tau is None else tau)!r}\n")
        fh.write(f"grid={len(radii)} {ntheta} {npsi} {nphi}\n")
        fh.write("radii=" + " ".join(repr(float(r)) for r in radii) + "\n")
        for row in table.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def read_grid_file(path) -> GridModel:
    """Parse an AADS-ID v1 file into a GridModel."""
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "aads-id 1":
            raise ValueError(f"not an AADS-ID v1 file (header {magic!r})")
        header = {}
        for _ in range(4):
            key, _, val = fh.readline().strip().partition("=")
            header[key] = val
        kappa = float(header["kappa"])
        tau = float(header["tau"])
        nr, ntheta, npsi, nphi = (int(x) for x in header["grid"].split())
        radii = [float(x) for x in header["radii"].split()]
        if len(radii) != nr:
            raise ValueError("radii count does not match grid header")
        count = nr * ntheta * npsi * nphi
        data = np.loadtxt(fh, ndmin=2)
        if data.shape != (count, 20):
            raise ValueError(
                f"expected {count} rows of 20 floats, got shape {data.shape}"
            )
    a_data = np.zeros((count, 4, 4))
    h_data = np.zeros((count, 4, 4))
    for col, (i, j) in enumerate(SYM_ORDER):
        a_data[:, i, j] = a_data[:, j, i] = data[:, col]
        h_data[:, i, j] = h_data[:, j, i] = data[:, 10 + col]
    return GridModel(
        radii=radii, ntheta=ntheta, npsi=npsi, nphi=nphi,
        a_data=a_data.reshape(nr, ntheta, npsi, nphi, 4, 4),
        h_data=h_data.reshape(nr, ntheta, npsi, nphi, 4, 4),
        tau=tau, constants=ModelConstants(kappa), path=str(path),
    )
