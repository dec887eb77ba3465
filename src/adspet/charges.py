"""Conserved charges by surface quadrature and radial extrapolation.

Fifteen quantities are computed: the energy, four boost-type momenta c_i,
four c'_i from the momentum aspect against the (i,0) fields, and six
angular momenta J_ij from the rotational fields.  Each one is a weighted
surface integral evaluated on the radii schedule and extrapolated.  The
surface data are evaluated once per grid (SurfaceData), on the base and the
doubled grid, with every radius at once: the radius is a batch axis ahead
of the angles, and a single radius is a batch of shape ().  The boundary
identity reads the same pass.

e_1 comes from initial_data.mass_aspect_grid, the library's one mass-aspect
function.  Its angular factors are built once per grid.  Data that keep
their own angular shape S are contracted at S, against the Killing tables
summed over every angle along which S has length 1, so no field is spread
to the full grid; all radii go through one np.vecdot per table.  Each
Killing frame component and the node weights are products of one factor
per angle, so a summed table is an outer product of per-angle sums, built
once per (grid, table, S), and no table of the grid's shape is formed for
data of a smaller shape.  r
enters only through scalars, evaluated once per (radii, kappa): the radial
factors of each charge, and coth and 1/f in the mass aspect.
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
    NumericalError,
    QuadratureSpec,
    RadialLimit,
    SphereGrid,
    _radial_values,
    radial_limit,
    sphere_grid,
)
from .initial_data import (
    InitialDataModel,
    angular_factors,
    mass_aspect_grid,
    momentum_aspect_grid,
)
from .killing import killing_frame_factors, killing_radial_scale

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


# The sums below accumulate in place (a new scalar for B = ()): on a batch
# that allocates one array per term, not one per term and per partial sum,
# in the same order of operations.
def _dot(a, b):
    """a . b of two component triples, summed left to right as np.sum sums a
    last axis of length 3."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _cross(a, b):
    """a x b of two component triples, in np.cross's order of operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    x, y, z = a1 * b2, a2 * b0, a0 * b1
    x -= a2 * b1
    y -= a0 * b2
    z -= a1 * b0
    return x, y, z


def derived(cs: ChargeSet) -> DerivedCharges:
    """Derived scalars entering the energy bounds."""
    jhat = cs.j[..., _JHAT] * _JHAT_SIGN
    j4 = cs.j[..., _J4]
    c3 = cs.c[..., :3]
    cp3 = cs.cp[..., :3]
    c3_sq, cp3_sq, jhat_sq, j4_sq = (_dot(v, v) for v in map(
        _parts, (c3, cp3, jhat, j4)))
    cp4_sq = cs.cp[..., 3][()] ** 2
    l_squared = c3_sq + jhat_sq
    l_squared += cp4_sq
    l_squared *= 2.0
    a_total = cs.c[..., 3][()] ** 2
    for term in (cp4_sq, c3_sq, cp3_sq, jhat_sq, j4_sq):
        a_total += term
    return DerivedCharges(jhat=jhat, j4=j4, c3=c3, cp3=cp3,
                          l_squared=l_squared, a_total=a_total)


# The Killing field behind each charge.  The charges in _E_LABELS pair its
# frame component U^(0) with e_1; those in _P_LABELS pair U^(2..4) with
# P_{21}, P_{31}, P_{41}.  Together they are CHARGE_NAMES in order.
_E_LABELS = ((5, 0), (1, 5), (2, 5), (3, 5), (4, 5))
_P_LABELS = ((1, 0), (2, 0), (3, 0), (4, 0)) + J_ORDER
_PREFACTOR = np.array([1.0 / (16 * math.pi)] * len(_E_LABELS)
                      + [1.0 / (8 * math.pi)] * len(_P_LABELS))
# The labels whose frame components scale with cosh(kappa r); the others
# scale with sinh(kappa r).  At r = 0 the two are 1 and 0.
_COSH = np.array([killing_radial_scale(label, 0.0, ModelConstants()) == 1.0
                  for label in _E_LABELS + _P_LABELS])
# A column the data do not source holds quadrature roundoff only, about
# 1e-16 of its own absolute integral (the integral of |T data|); one below
# this fraction of it is zero.
ZERO_REL = 1e-12


@functools.lru_cache(maxsize=2)
def _grid_and_factors(ntheta: int, npsi: int, nphi: int) -> tuple:
    """The sphere grid and the mass aspect's angular factors at its nodes."""
    grid = sphere_grid(ntheta, npsi, nphi)
    angular = angular_factors(grid.theta, grid.psi)
    for factor in angular:
        factor.setflags(write=False)
    return grid, angular


# The grid axes along which data of a given shape are constant: at most 8
# patterns per table and grid, for the base and the doubled grid.
@functools.lru_cache(maxsize=32)
def _reduced_table(ntheta: int, npsi: int, nphi: int, k: ModelConstants,
                   part: str, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The Killing table `part` ("e", against e_1, or "p", against P_{21},
    P_{31}, P_{41}), node weights times the angular factors of the frame
    components, summed over every grid axis along which data of the given
    shape have length 1; and |table| summed the same way.  Each is
    flattened to (charges, data size).

    Contracting data of that shape against the first gives the charge
    integrals, and |data| against the second their absolute integrals.
    A frame component is c T_theta T_psi T_phi (killing_frame_factors) and
    the node weight w_theta w_psi w_phi, so each row is the outer product of
    three weighted factors, each summed over its own axis where the data
    are constant along it: no table larger than the data is formed.
    """
    grid = _grid_and_factors(ntheta, npsi, nphi)[0]
    labels, rows = (_E_LABELS, slice(1)) if part == "e" else (_P_LABELS, slice(1, None))
    summed = [n == 1 for n in shape]
    signed, absolute = [], []
    for label in labels:
        for coef, factors in killing_frame_factors(label, grid.theta, grid.psi,
                                                   grid.phi, k)[rows]:
            weighted = [f * w for f, w in zip(factors, grid.axis_weights)]
            for out, row, fs in ((signed, coef, weighted),
                                 (absolute, abs(coef), map(np.abs, weighted))):
                for f, axis_summed in zip(fs, summed):
                    row = row * (np.sum(f, keepdims=True) if axis_summed else f)
                out.append(row)
    out = tuple(np.stack(t).reshape(len(labels), -1) for t in (signed, absolute))
    for t in out:
        t.setflags(write=False)
    return out


def _surface_integrals(ntheta: int, npsi: int, nphi: int, k: ModelConstants,
                       e1: np.ndarray, p1: np.ndarray):
    """Weighted Killing-table integrals of e_1 (shape S_e) and P_{k1}
    (shape (4,) + S_p), contracted at the data's own shapes.

    The last three axes of S_e and S_p are the angles; the leading ones are
    radii (length 1 where the data do not depend on r), and every radius is
    one row of a single matrix product per table.  Returns (integrals,
    absolute integrals), each of shape B + (15,) with B the broadcast of the
    leading axes, the columns in CHARGE_NAMES order, without radial factors.
    """
    te, abs_te = _reduced_table(ntheta, npsi, nphi, k, "e", e1.shape[-3:])
    tp, abs_tp = _reduced_table(ntheta, npsi, nphi, k, "p", p1.shape[-3:])
    lead_e, lead_p = e1.shape[:-3], p1.shape[1:-3]
    lead = np.broadcast_shapes(lead_e, lead_p)
    # One row per radius; a row of P holds P_21, P_31 and P_41 in turn.
    e_rows = e1.reshape(-1, te.shape[1])
    p_rows = np.moveaxis(p1[1:], 0, -4).reshape(-1, tp.shape[1])

    def columns(rows, table, rows_lead):
        # rows @ table.T, as one dot product per (radius, charge): a BLAS
        # matrix product packs its operands into a work buffer, which adds
        # about 0.35 MB to a process's peak memory, and on full-shape data
        # on the doubled grid it takes longer.
        out = np.vecdot(rows[:, None, :], table).reshape(rows_lead + (len(table),))
        return np.broadcast_to(out, lead + (len(table),))

    return tuple(
        np.concatenate([columns(e, t_e, lead_e), columns(p, t_p, lead_p)], axis=-1)
        for e, p, t_e, t_p in ((e_rows, p_rows, te, tp),
                               (np.abs(e_rows), np.abs(p_rows), abs_te, abs_tp)))


@dataclass(frozen=True)
class SurfaceData:
    """The surface data of one model on the spheres S_r of a batch of radii
    r (shape B; a single radius is B = ()), on one grid.

    It is evaluated once per (model, grid), with every radius at once; the
    charges and both modes of the boundary identity read it.

    The fields keep the model's own shape S, which broadcasts to B + grid
    shape and has length 1 along every angle the data do not depend on, and
    along the radii where they do not depend on r.
    """

    r: float | np.ndarray
    grid: SphereGrid
    constants: ModelConstants
    a: np.ndarray        # metric perturbation, shape S + (4, 4)
    e1: np.ndarray       # radial mass aspect, shape S
    p1: np.ndarray       # P_{k1} for k = 1..4, shape (4,) + S
    values: np.ndarray   # the fifteen pre-limit surface integrals, B + (15,)
    scales: np.ndarray   # their absolute integrals, of |Killing field x data|


def _radial_factors(r, k: ModelConstants) -> np.ndarray:
    """The fifteen radial factors of the surface integrals at each radius of
    r (shape B), shape B + (15,), read-only: the Killing fields' cosh or
    sinh(kappa r), the area factor f^3 and the prefactors.

    Raises DegenerateCoordinateError at r <= 0 and NumericalError where one
    of them overflows a float, so a bad radius is rejected before a model's
    fields are evaluated there.
    """
    r = np.asarray(r, dtype=float)
    table = _radial_factor_table(tuple(r.ravel().tolist()), k)
    return table.reshape(r.shape + (15,))


@functools.lru_cache(maxsize=8)
def _radial_factor_table(radii: tuple, k: ModelConstants) -> np.ndarray:
    """_radial_factors at the radii of a tuple, once per (radii, kappa)."""
    what = "the radial factors of the surface integrals"
    r = np.array(radii)
    cosh, sinh, area = (_radial_values(name, r, k, what)[..., None]
                        for name in ("cosh", "sinh", "area"))
    with np.errstate(over="ignore"):
        out = np.where(_COSH, cosh, sinh) * (_PREFACTOR * k.kappa * area)
    overflow = np.isinf(out).any(axis=-1)
    if overflow.any():
        raise NumericalError(f"{what} overflow at r = {r[overflow].flat[0]:g}")
    out.setflags(write=False)
    return out


def charge_surface_values(model: InitialDataModel, radii, ntheta: int,
                          npsi: int, nphi: int) -> SurfaceData:
    """Evaluate the surface data of a model at every radius of `radii` (a
    float or an array of shape B) on the given grid.

    The model's a_and_da (which may call a) and h are each called once,
    with the radii on axes of their own ahead of the angles.  Its `values`
    are all fifteen pre-limit surface integrals at each radius, shape
    B + (15,), in CHARGE_NAMES order, including the kappa/16pi and kappa/8pi
    prefactors; its `scales` are the same integrals of the absolute integrand.
    """
    k = model.constants
    r = np.asarray(radii, dtype=float)
    r_nodes = r.reshape(r.shape + (1, 1, 1))
    radial = _radial_factors(r, k)
    grid, angular = _grid_and_factors(ntheta, npsi, nphi)
    nodes = (r_nodes, grid.theta, grid.psi, grid.phi)
    a, da = model.a_and_da(*nodes)
    e1 = mass_aspect_grid(a, da, r_nodes, angular, k)
    p1 = np.moveaxis(momentum_aspect_grid(a, model.h(*nodes))[..., :, 0], -1, 0)
    grid.require_finite(e1)
    grid.require_finite(p1)
    values, scales = _surface_integrals(ntheta, npsi, nphi, k, e1, p1)
    return SurfaceData(r=r[()], grid=grid, constants=k, a=a, e1=e1, p1=p1,
                       values=radial * values, scales=radial * scales)


def charges_and_surfaces(model: InitialDataModel, q: QuadratureSpec):
    """Evaluate the surface data at every radius on the base and on the
    doubled grid, one pass per grid, and extrapolate the charges.

    Returns the ChargeSet and the base-grid SurfaceData, whose radii are
    q.radii.
    """
    radii = np.array(q.radii)
    base = charge_surface_values(model, radii, q.ntheta, q.npsi, q.nphi)
    fine = charge_surface_values(model, radii, 2 * q.ntheta, 2 * q.npsi,
                                 2 * q.nphi)
    col_max = np.max(np.abs(fine.values), axis=0)
    col_scale = np.max(fine.scales, axis=0)
    negligible = col_max <= ZERO_REL * col_scale
    quad_ok = negligible | (np.max(np.abs(fine.values - base.values), axis=0)
                            < q.rel_tol * col_max)

    values = np.zeros(15)
    diags = {}
    for idx, name in enumerate(CHARGE_NAMES):
        if negligible[idx]:
            diags[name] = ChargeDiagnostics(
                residual=float(col_max[idx]), diverged=False,
                quadrature_converged=bool(quad_ok[idx]))
            continue
        rl: RadialLimit = radial_limit(list(zip(q.radii, fine.values[:, idx])),
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
