"""Conserved charges by surface quadrature and radial extrapolation.

Fifteen quantities are computed: the energy, four boost-type momenta c_i,
four c'_i from the momentum aspect against the (i,0) fields, and six
angular momenta J_ij from the rotational fields.  Each one is a weighted
surface integral evaluated on the radii schedule and extrapolated.  The
surface data are evaluated once per radius and grid (SurfaceData), on the
base and the doubled grid, and reduced against Killing tables built once
per grid; the boundary identity reads the same pass.
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


def derived(cs: ChargeSet) -> DerivedCharges:
    """Derived scalars entering the energy bounds."""
    jhat = cs.j[..., _JHAT] * _JHAT_SIGN
    j4 = cs.j[..., _J4]
    c3 = cs.c[..., :3]
    cp3 = cs.cp[..., :3]
    c3_sq, cp3_sq, jhat_sq, j4_sq = (np.sum(v * v, axis=-1)
                                     for v in (c3, cp3, jhat, j4))
    cp4_sq = cs.cp[..., 3] ** 2
    l_squared = 2.0 * (c3_sq + jhat_sq + cp4_sq)
    a_total = cs.c[..., 3] ** 2 + cp4_sq + c3_sq + cp3_sq + jhat_sq + j4_sq
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
# 1e-16 of the largest surface value; one below this fraction is zero.
_ZERO_REL = 1e-12


@dataclass(frozen=True)
class _ChargeTables:
    """Per-grid Killing tables: node weights times the angular factors of
    the frame components, so each radius reduces with one contraction."""

    grid: SphereGrid
    e: np.ndarray        # (5, N): against e_1
    p: np.ndarray        # (10, 3N): against P_{21}, P_{31}, P_{41} in turn


@functools.lru_cache(maxsize=2)
def _charge_tables(ntheta: int, npsi: int, nphi: int,
                   k: ModelConstants) -> _ChargeTables:
    grid = sphere_grid(ntheta, npsi, nphi)
    angles = (grid.theta, grid.psi, grid.phi)
    e = np.stack([killing_frame_table(label, *angles, k)[0] * grid.weights
                  for label in _E_LABELS]).reshape(len(_E_LABELS), -1)
    p = np.stack([killing_frame_table(label, *angles, k)[1:] * grid.weights
                  for label in _P_LABELS]).reshape(len(_P_LABELS), -1)
    e.setflags(write=False)
    p.setflags(write=False)
    return _ChargeTables(grid=grid, e=e, p=p)


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

    def integrate(self, values):
        """Integral over S_r of a field given at the grid nodes."""
        return self.grid.integrate(values, self.r, self.constants)


def charge_surface_values(model: InitialDataModel, r: float, ntheta: int,
                          npsi: int, nphi: int) -> SurfaceData:
    """Evaluate the surface data of a model at radius r on the given grid.

    Its `values` are all fifteen pre-limit surface integrals, in
    CHARGE_NAMES order, including the kappa/16pi and kappa/8pi prefactors.
    """
    k = model.constants
    tables = _charge_tables(ntheta, npsi, nphi, k)
    grid = tables.grid
    angles = (grid.theta, grid.psi, grid.phi)
    e1 = mass_aspect_grid(model, r, *angles)
    p1 = np.moveaxis(momentum_aspect_grid(model, r, *angles)[..., :, 0], -1, 0)
    grid.require_finite(e1)
    grid.require_finite(p1)
    kr = k.kappa * r
    radial = np.array([killing_radial_scale(label, r, k)
                       for label in _E_LABELS + _P_LABELS])
    radial *= _PREFACTOR * k.kappa * (math.sinh(kr) / k.kappa) ** 3
    # The tables run over every node, so the data are spread to the grid here.
    values = radial * np.concatenate([
        tables.e @ np.broadcast_to(e1, grid.shape).ravel(),
        tables.p @ np.broadcast_to(p1[1:], (3,) + grid.shape).ravel()])
    a = model.a(r, *angles)
    return SurfaceData(r=float(r), grid=grid, constants=k, a=a, e1=e1, p1=p1,
                       values=values)


def charges_and_surfaces(model: InitialDataModel, q: QuadratureSpec):
    """Evaluate the surface data once per radius on the base and the doubled
    grid, and extrapolate the charges.

    Returns the ChargeSet and the base-grid SurfaceData of each radius.
    """
    base = tuple(charge_surface_values(model, r, q.ntheta, q.npsi, q.nphi)
                 for r in q.radii)
    fine = np.array(
        [
            charge_surface_values(model, r, 2 * q.ntheta, 2 * q.npsi,
                                  2 * q.nphi).values
            for r in q.radii
        ]
    )
    coarse = np.array([s.values for s in base])
    col_max = np.max(np.abs(fine), axis=0)
    negligible = col_max <= _ZERO_REL * np.max(col_max)
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
