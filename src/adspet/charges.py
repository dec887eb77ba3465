"""Conserved charges by surface quadrature and radial extrapolation.

Fifteen quantities are computed: the energy, four boost-type momenta c_i,
four c'_i from the momentum aspect against the (i,0) fields, and six
angular momenta J_ij from the rotational fields.  Each one is a weighted
surface integral evaluated on the radii schedule and extrapolated.  The
surface data are evaluated once per radius and grid (SurfaceData), on the
base and the doubled grid; the boundary identity reads the same pass.

The Killing tables are built once per grid.  Data that keep their own
angular shape S are contracted at S, against the tables summed over every
angle along which S has length 1, so no field is spread to the full grid.
The same reduction of |table| gives each charge's absolute integral, the
scale on which a column is judged to be quadrature roundoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ModelConstants,
    QuadratureSpec,
    RadialLimit,
    SphereGrid,
    radial_limit,
    sphere_grid,
)
from .initial_data import InitialDataModel, mass_aspect_grid, momentum_aspect_grid
from .killing import killing_frame_table, killing_radial_scale

__all__ = [
    "J_ORDER",
    "ZERO_REL",
    "ChargeDiagnostics",
    "ChargeSet",
    "DerivedCharges",
    "SurfaceData",
    "compute_charges",
    "charges_and_surfaces",
    "derived",
    "charge_surface_values",
]

# Fixed order of the six angular-momentum labels.
J_ORDER = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

CHARGE_NAMES = (
    "e0",
    "c1",
    "c2",
    "c3",
    "c4",
    "cp1",
    "cp2",
    "cp3",
    "cp4",
    "j12",
    "j13",
    "j14",
    "j23",
    "j24",
    "j34",
)


@dataclass(frozen=True)
class ChargeDiagnostics:
    residual: float | None
    diverged: bool
    quadrature_converged: bool
    beta: float | None = None


@dataclass(frozen=True)
class ChargeSet:
    """E0, c_1..4, c'_1..4 and J_ij with per-charge diagnostics.

    The fields may carry leading batch axes B: e0 of shape B, c and cp of
    shape B+(4,), j of shape B+(6,).  A single set (B = ()) has a float e0.
    """

    e0: float | np.ndarray
    c: np.ndarray          # shape B+(4,)
    cp: np.ndarray         # shape B+(4,)
    j: np.ndarray          # shape B+(6,), order J_ORDER
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        e0 = np.asarray(self.e0, dtype=float)
        for name, n in (("c", 4), ("cp", 4), ("j", 6)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != e0.shape + (n,):
                raise ValueError(f"{name} must have shape {e0.shape + (n,)} "
                                 f"for e0 of shape {e0.shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "e0", float(e0) if e0.ndim == 0 else e0)

    def values(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.e0)[..., None], self.c, self.cp,
                               self.j], axis=-1)

    def as_dict(self) -> dict:
        out = {"e0": self.e0,
               "c": [float(v) for v in self.c],
               "cp": [float(v) for v in self.cp],
               "j": {f"{i}{jj}": float(self.j[n]) for n, (i, jj) in enumerate(J_ORDER)}}
        if self.diagnostics:
            out["diagnostics"] = {
                name: {
                    "residual": d.residual,
                    "diverged": d.diverged,
                    "quadrature_converged": d.quadrature_converged,
                    "beta": d.beta,
                }
                for name, d in self.diagnostics.items()
            }
        return out

    @property
    def any_diverged(self) -> bool:
        return any(d.diverged for d in self.diagnostics.values())


@dataclass(frozen=True)
class DerivedCharges:
    """Derived charges of a ChargeSet, with its batch axes B."""

    jhat: np.ndarray   # (J23, -J13, J12), shape B+(3,)
    j4: np.ndarray     # (J14, J24, J34), shape B+(3,)
    c3: np.ndarray     # (c1, c2, c3), shape B+(3,)
    cp3: np.ndarray    # (c'1, c'2, c'3), shape B+(3,)
    l_squared: float | np.ndarray
    a_total: float | np.ndarray


# Positions in J_ORDER of the components of Jhat (with signs) and of J4.
_JHAT = [J_ORDER.index(p) for p in ((2, 3), (1, 3), (1, 2))]
_JHAT_SIGN = np.array([1.0, -1.0, 1.0])
_J4 = [J_ORDER.index(p) for p in ((1, 4), (2, 4), (3, 4))]


# Three-vector algebra of the derived charges, written per component: for a
# single set (B = ()) that costs a few microseconds, where np.cross and
# np.sum take tens, and it rounds exactly as they do.
def _parts(v):
    """The three components of a B+(3,) array, each of shape B.  For B = ()
    `[()]` makes each a numpy scalar, whose arithmetic costs a fraction of a
    0-d array's."""
    return v[..., 0][()], v[..., 1][()], v[..., 2][()]


def _dot(a, b):
    """a . b of two component triples, summed left to right as np.sum sums a
    last axis of length 3."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """a x b of two component triples, in np.cross's order of operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def derived(cs: ChargeSet) -> DerivedCharges:
    """Derived scalars entering the energy bounds."""
    jhat = cs.j[..., _JHAT] * _JHAT_SIGN
    j4 = cs.j[..., _J4]
    c3 = cs.c[..., :3]
    cp3 = cs.cp[..., :3]
    c3_sq, cp3_sq, jhat_sq, j4_sq = (_dot(v, v) for v in map(
        _parts, (c3, cp3, jhat, j4)))
    cp4_sq = cs.cp[..., 3][()] ** 2
    l_squared = 2.0 * (c3_sq + jhat_sq + cp4_sq)
    a_total = cs.c[..., 3][()] ** 2 + cp4_sq + c3_sq + cp3_sq + jhat_sq + j4_sq
    return DerivedCharges(jhat=jhat, j4=j4, c3=c3, cp3=cp3,
                          l_squared=l_squared, a_total=a_total)


# The Killing field behind each charge.  The charges in _E_LABELS pair its
# frame component U^(0) with e_1; those in _P_LABELS pair U^(2..4) with
# P_{21}, P_{31}, P_{41}.  Together they are CHARGE_NAMES in order.
_E_LABELS = ((5, 0), (1, 5), (2, 5), (3, 5), (4, 5))
_P_LABELS = ((1, 0), (2, 0), (3, 0), (4, 0)) + J_ORDER
_PREFACTOR = np.array([1.0 / (16 * math.pi)] * len(_E_LABELS)
                      + [1.0 / (8 * math.pi)] * len(_P_LABELS))
# A column the data do not source holds quadrature roundoff only, about
# 1e-16 of its own absolute integral (the integral of |T data|); one below
# this fraction of it is zero.
ZERO_REL = 1e-12


@dataclass(frozen=True)
class _ChargeTables:
    """Per-grid Killing tables: node weights times the angular factors of
    the frame components, so each radius reduces with one contraction."""

    grid: SphereGrid
    e: np.ndarray        # (5,) + grid shape: against e_1
    p: np.ndarray        # (10, 3) + grid shape: against P_{21}, P_{31}, P_{41}


@functools.lru_cache(maxsize=2)
def _charge_tables(ntheta: int, npsi: int, nphi: int,
                   k: ModelConstants) -> _ChargeTables:
    grid = sphere_grid(ntheta, npsi, nphi)
    angles = (grid.theta, grid.psi, grid.phi)
    e = np.stack([killing_frame_table(label, *angles, k)[0] * grid.weights
                  for label in _E_LABELS])
    p = np.stack([killing_frame_table(label, *angles, k)[1:] * grid.weights
                  for label in _P_LABELS])
    e.setflags(write=False)
    p.setflags(write=False)
    return _ChargeTables(grid=grid, e=e, p=p)


# The grid axes along which data of a given shape are constant: at most 8
# patterns per table and grid, for the base and the doubled grid.
@functools.lru_cache(maxsize=32)
def _reduced_table(ntheta: int, npsi: int, nphi: int, k: ModelConstants,
                   part: str, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The Killing table `part` ("e" or "p") summed over every grid axis
    along which data of the given shape have length 1, and |table| summed
    the same way, each flattened to (charges, data size).

    Contracting data of that shape against the first gives the charge
    integrals, and |data| against the second their absolute integrals.
    """
    table = getattr(_charge_tables(ntheta, npsi, nphi, k), part)
    axes = tuple(i - 3 for i, n in enumerate(shape) if n == 1)
    # One Killing field at a time, so no temporary is as large as the table.
    out = tuple(np.stack([np.sum(f(row), axis=axes, keepdims=True)
                          for row in table]).reshape(len(table), -1)
                for f in (np.asarray, np.abs))
    for t in out:
        t.setflags(write=False)
    return out


def _surface_integrals(ntheta: int, npsi: int, nphi: int, k: ModelConstants,
                       e1: np.ndarray, p1: np.ndarray):
    """Weighted Killing-table integrals of e_1 (shape S_e) and P_{k1}
    (shape (4,) + S_p), contracted at the data's own shapes.

    Returns (integrals, absolute integrals), each of the fifteen columns in
    CHARGE_NAMES order, without radial factors.
    """
    te, abs_te = _reduced_table(ntheta, npsi, nphi, k, "e", e1.shape)
    tp, abs_tp = _reduced_table(ntheta, npsi, nphi, k, "p", p1.shape[1:])
    e1 = e1.ravel()
    p1 = p1[1:].reshape(-1)
    return (np.concatenate([te @ e1, tp @ p1]),
            np.concatenate([abs_te @ np.abs(e1), abs_tp @ np.abs(p1)]))


@dataclass(frozen=True)
class SurfaceData:
    """The surface data of one model on one sphere S_r and one grid.

    It is evaluated once per (model, radius, grid); the charges and both
    modes of the boundary identity read it.

    The fields keep the model's own shape S, which broadcasts to the grid
    shape and has length 1 along every angle the data do not depend on.
    """

    r: float
    grid: SphereGrid
    constants: ModelConstants
    a: np.ndarray        # metric perturbation, shape S + (4, 4)
    e1: np.ndarray       # radial mass aspect, shape S
    p1: np.ndarray       # P_{k1} for k = 1..4, shape (4,) + S
    values: np.ndarray   # the fifteen pre-limit surface integrals
    scales: np.ndarray   # their absolute integrals, of |Killing field x data|

    def integrate(self, values):
        """Integral over S_r of a field given at the grid nodes."""
        return self.grid.integrate(values, self.r, self.constants)


def charge_surface_values(model: InitialDataModel, r: float, ntheta: int,
                          npsi: int, nphi: int) -> SurfaceData:
    """Evaluate the surface data of a model at radius r on the given grid.

    Its `values` are all fifteen pre-limit surface integrals, in
    CHARGE_NAMES order, including the kappa/16pi and kappa/8pi prefactors;
    its `scales` are the same integrals of the absolute integrand.
    """
    k = model.constants
    grid = _charge_tables(ntheta, npsi, nphi, k).grid
    angles = (grid.theta, grid.psi, grid.phi)
    e1 = mass_aspect_grid(model, r, *angles)
    p1 = np.moveaxis(momentum_aspect_grid(model, r, *angles)[..., :, 0], -1, 0)
    grid.require_finite(e1)
    grid.require_finite(p1)
    kr = k.kappa * r
    radial = np.array([killing_radial_scale(label, r, k)
                       for label in _E_LABELS + _P_LABELS])
    radial *= _PREFACTOR * k.kappa * (math.sinh(kr) / k.kappa) ** 3
    values, scales = _surface_integrals(ntheta, npsi, nphi, k, e1, p1)
    a = model.a(r, *angles)
    return SurfaceData(r=float(r), grid=grid, constants=k, a=a, e1=e1, p1=p1,
                       values=radial * values, scales=radial * scales)


def charges_and_surfaces(model: InitialDataModel, q: QuadratureSpec):
    """Evaluate the surface data once per radius on the base and the doubled
    grid, and extrapolate the charges.

    Returns the ChargeSet and the base-grid SurfaceData of each radius.
    """
    base = tuple(charge_surface_values(model, r, q.ntheta, q.npsi, q.nphi)
                 for r in q.radii)
    fine = np.empty((len(q.radii), len(CHARGE_NAMES)))
    col_scale = np.zeros(len(CHARGE_NAMES))
    for i, r in enumerate(q.radii):
        s = charge_surface_values(model, r, 2 * q.ntheta, 2 * q.npsi, 2 * q.nphi)
        fine[i] = s.values
        np.maximum(col_scale, s.scales, out=col_scale)
    coarse = np.array([s.values for s in base])
    col_max = np.max(np.abs(fine), axis=0)
    negligible = col_max <= ZERO_REL * col_scale
    quad_ok = negligible | (np.max(np.abs(fine - coarse), axis=0)
                            < q.rel_tol * col_max)

    values = np.zeros(15)
    diags = {}
    for idx, name in enumerate(CHARGE_NAMES):
        if negligible[idx]:
            diags[name] = ChargeDiagnostics(
                residual=float(col_max[idx]), diverged=False,
                quadrature_converged=bool(quad_ok[idx]))
            continue
        rl: RadialLimit = radial_limit(list(zip(q.radii, fine[:, idx])),
                                       model.constants)
        values[idx] = rl.limit
        diags[name] = ChargeDiagnostics(
            residual=rl.residual, diverged=rl.diverged,
            quadrature_converged=bool(quad_ok[idx]), beta=rl.beta)
    charges = ChargeSet(
        e0=float(values[0]), c=values[1:5], cp=values[5:9], j=values[9:15],
        diagnostics=diags,
    )
    return charges, base


def compute_charges(model: InitialDataModel, q: QuadratureSpec) -> ChargeSet:
    """Evaluate all charges on the radii schedule and extrapolate."""
    return charges_and_surfaces(model, q)[0]
