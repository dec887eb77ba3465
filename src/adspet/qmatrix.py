"""The Hermitian charge matrix, the energy lower bounds, and cross-checks.

Q is a 4x4 Hermitian matrix built linearly from the fifteen charges; its
positive semidefiniteness encodes the positive energy statement.  This
module assembles Q, evaluates the five lower bounds on the energy, the
closed-form third-minor sum and determinant, the rigidity classification,
a seeded PSD sampler for property sweeps, and the boundary identity tying
the spinor surface integrals to lambda^dagger Q lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charges import (
    ChargeSet,
    DerivedCharges,
    SurfaceData,
    charges_and_surfaces,
    derived,
)
from .clifford import gamma
from .geometry import QuadratureSpec, radial_limit
from .initial_data import InitialDataModel
from .spinors import KillingParams, killing_spinor_grid, profiles

__all__ = [
    "assemble_q",
    "PsdReport",
    "psd_check",
    "BoundsReport",
    "theorem_bounds",
    "third_minor_sum",
    "det_closed_form",
    "RigidityReport",
    "rigidity_check",
    "sample_psd_charges",
    "sample_momenta",
    "IdentityReport",
    "boundary_identity",
]


def assemble_q(cs: ChargeSet) -> np.ndarray:
    """Assemble the 4x4 Hermitian matrix from a charge set."""
    e0 = cs.e0
    c1, c2, c3, c4 = cs.c
    p1, p2, p3, p4 = cs.cp
    j12 = cs.j_component(1, 2)
    j13 = cs.j_component(1, 3)
    j14 = cs.j_component(1, 4)
    j23 = cs.j_component(2, 3)
    j24 = cs.j_component(2, 4)
    j34 = cs.j_component(3, 4)

    e_block = np.array(
        [
            [e0 + c4 + p3 - j34, p1 + 1j * p2 - j14 - 1j * j24],
            [p1 - 1j * p2 - j14 + 1j * j24, e0 + c4 - p3 + j34],
        ]
    )
    ehat_block = np.array(
        [
            [e0 - c4 - p3 - j34, -p1 - 1j * p2 - j14 - 1j * j24],
            [-p1 + 1j * p2 - j14 + 1j * j24, e0 - c4 + p3 + j34],
        ]
    )
    l_block = np.array(
        [
            [c3 - p4 + 1j * j12, c1 + 1j * c2 + j13 + 1j * j23],
            [c1 - 1j * c2 - j13 + 1j * j23, -c3 - p4 - 1j * j12],
        ]
    )
    return np.block([[e_block, l_block], [l_block.conj().T, ehat_block]])


@dataclass(frozen=True)
class PsdReport:
    psd: bool
    min_eigenvalue: float
    eigenvalues: np.ndarray
    leading_minors: np.ndarray
    hermitian: bool


def psd_check(qmat: np.ndarray, rel_tol: float = 1e-10) -> PsdReport:
    """Eigenvalue PSD test cross-checked against leading principal minors."""
    qmat = np.asarray(qmat, dtype=complex)
    if qmat.shape != (4, 4):
        raise ValueError(f"Q must be 4x4, got shape {qmat.shape}")
    herm = np.allclose(qmat, qmat.conj().T, atol=1e-12 * max(1.0, np.abs(qmat).max()))
    if not herm:
        raise ValueError("psd_check requires a Hermitian matrix")
    eig = np.linalg.eigvalsh(qmat)
    scale = max(np.abs(eig).max(), 1.0)
    tol = rel_tol * scale
    minors = np.array(
        [np.linalg.det(qmat[: n + 1, : n + 1]).real for n in range(4)]
    )
    psd_eig = bool(eig.min() >= -tol)
    psd_minor = bool(np.all(minors >= -tol * scale ** np.arange(1, 5)))
    return PsdReport(
        psd=psd_eig and psd_minor,
        min_eigenvalue=float(eig.min()),
        eigenvalues=eig,
        leading_minors=minors,
        hermitian=herm,
    )


def _cross_and_pairs(cs: ChargeSet, d: DerivedCharges):
    c4, p4 = cs.c[3], cs.cp[3]
    pair = c4 * d.cp3 - p4 * d.c3
    cxj = np.cross(d.c3, d.jhat)
    w = math.sqrt(float(pair @ pair + cxj @ cxj))
    return pair, cxj, w


def third_minor_sum(cs: ChargeSet) -> float:
    """Closed form of the sum of third-order principal minors (up to the
    positive normalization): E0(E0^2 - A) plus the mixed triple terms."""
    d = derived(cs)
    e0 = cs.e0
    c4, p4 = cs.c[3], cs.cp[3]
    eps_ccp_j = float(np.dot(np.cross(d.c3, d.cp3), d.jhat))
    return float(
        e0 * (e0**2 - d.a_total)
        + 2 * p4 * float(d.c3 @ d.j4)
        + 2 * eps_ccp_j
        - 2 * c4 * float(d.cp3 @ d.j4)
    )


def det_closed_form(cs: ChargeSet) -> float:
    """Closed form of det Q in terms of the charges."""
    d = derived(cs)
    e0 = cs.e0
    c4, p4 = cs.c[3], cs.cp[3]
    pair, cxj, _ = _cross_and_pairs(cs, d)
    cxcp = np.cross(d.c3, d.cp3)
    cpxj = np.cross(d.cp3, d.jhat)
    eps_c_jhat_j4 = float(np.dot(np.cross(d.c3, d.jhat), d.j4))
    eps_cp_jhat_j4 = float(np.dot(np.cross(d.cp3, d.jhat), d.j4))
    return float(
        (e0**2 - d.a_total) ** 2
        + 8 * e0 * (p4 * float(d.c3 @ d.j4) - c4 * float(d.cp3 @ d.j4))
        + 8 * e0 * float(np.dot(cxcp, d.jhat))
        - 4 * float(cxcp @ cxcp)
        - 4 * float(cxj @ cxj)
        - 4 * float(cpxj @ cpxj)
        - 4 * float(d.j4 @ d.j4) * (c4**2 + p4**2)
        - 4 * float(pair @ pair)
        - 4 * (float(d.j4 @ d.cp3) ** 2 + float(d.j4 @ d.jhat) ** 2 + float(d.j4 @ d.c3) ** 2)
        - 8 * c4 * eps_c_jhat_j4
        - 8 * p4 * eps_cp_jhat_j4
    )


@dataclass(frozen=True)
class BoundsReport:
    bounds: np.ndarray      # B1..B5
    f: float
    f_plus: float
    w: float
    variant: str
    e0: float
    satisfied: bool
    margin: float

    def as_dict(self) -> dict:
        return {
            "b1": float(self.bounds[0]),
            "b2": float(self.bounds[1]),
            "b3": float(self.bounds[2]),
            "b4": float(self.bounds[3]),
            "b5": float(self.bounds[4]),
            "f": self.f,
            "fplus": self.f_plus,
            "w": self.w,
            "variant": self.variant,
            "e0": self.e0,
            "satisfied": self.satisfied,
            "margin": self.margin,
        }


def theorem_bounds(cs: ChargeSet, variant: str = "proof",
                   tol: float = 1e-9) -> BoundsReport:
    """The five lower bounds on the energy.

    variant "proof" uses the second-minor form with |c'|^2 + |J4|^2, which
    follows directly from positive semidefiniteness; "theorem-text" uses
    |c|^2 + |J4|^2, a stated variant checked empirically but not implied by
    the minors.
    """
    if variant not in ("proof", "theorem-text"):
        raise ValueError(f"variant must be 'proof' or 'theorem-text', got {variant!r}")
    d = derived(cs)
    c4, p4 = cs.c[3], cs.cp[3]
    pair, cxj, w = _cross_and_pairs(cs, d)
    a_tot = d.a_total
    l2 = d.l_squared
    norm_cp3 = math.sqrt(float(d.cp3 @ d.cp3))
    norm_c3 = math.sqrt(float(d.c3 @ d.c3))
    norm_j4 = math.sqrt(float(d.j4 @ d.j4))

    b1 = math.sqrt(c4**2 + l2 / 4.0)
    if variant == "proof":
        b2 = math.sqrt(0.5 * (norm_cp3**2 + norm_j4**2) + l2 / 8.0)
    else:
        b2 = math.sqrt(0.5 * (norm_c3**2 + norm_j4**2) + l2 / 8.0)
    b3 = math.sqrt(a_tot + norm_cp3**2 + norm_j4**2) - norm_cp3 - norm_j4
    b4 = math.sqrt(max(a_tot - 2 * math.sqrt(2) * w, 0.0))

    cxcp = np.cross(d.c3, d.cp3)
    cpxj = np.cross(d.cp3, d.jhat)
    eps_c_jhat_j4 = float(np.dot(np.cross(d.c3, d.jhat), d.j4))
    eps_cp_jhat_j4 = float(np.dot(np.cross(d.cp3, d.jhat), d.j4))
    f_val = (
        -8 * math.sqrt(2) * w * a_tot
        + 36 * float(cxj @ cxj)
        + 4 * float(cxcp @ cxcp)
        + 36 * float(pair @ pair)
        + 4 * (float(d.j4 @ d.cp3) ** 2 + float(d.j4 @ d.jhat) ** 2
               + float(d.j4 @ d.c3) ** 2)
        + 4 * float(cpxj @ cpxj)
        + 4 * float(d.j4 @ d.j4) * (c4**2 + p4**2)
        + 8 * c4 * eps_c_jhat_j4
        + 8 * p4 * eps_cp_jhat_j4
    )
    f_plus = max(f_val, 0.0)
    b5 = math.sqrt(max(a_tot - 4 * math.sqrt(2) * w + math.sqrt(f_plus), 0.0))

    bounds = np.array([b1, b2, b3, b4, b5])
    margin = float(cs.e0 - bounds.max())
    return BoundsReport(
        bounds=bounds, f=float(f_val), f_plus=float(f_plus), w=float(w),
        variant=variant, e0=float(cs.e0),
        satisfied=bool(margin >= -tol), margin=margin,
    )


@dataclass(frozen=True)
class RigidityReport:
    in_domain: bool         # E0 below tolerance and Q PSD
    q_frobenius: float
    vanishes: bool

    def as_dict(self):
        return {
            "in_domain": self.in_domain,
            "q_frobenius": self.q_frobenius,
            "vanishes": self.vanishes,
        }


def rigidity_check(cs: ChargeSet, tol: float = 1e-12,
                   q_tol: float = 1e-9) -> RigidityReport:
    """If the energy vanishes and Q is PSD, the whole matrix must vanish."""
    qmat = assemble_q(cs)
    qnorm = float(np.linalg.norm(qmat))
    if cs.e0 > tol or not psd_check(qmat).psd:
        return RigidityReport(in_domain=False, q_frobenius=qnorm, vanishes=False)
    return RigidityReport(
        in_domain=True, q_frobenius=qnorm, vanishes=bool(qnorm <= q_tol)
    )


def sample_momenta(seed: int, n: int):
    """Vectorized PSD charge sampler.

    Returns (e0, c, cp, j, delta) arrays with shapes (n,), (n,4), (n,4),
    (n,6).  The 14 momenta are standard normal; the energy is set to
    -lambda_min of the momentum-only matrix plus delta, where delta = 0 on
    even samples (exact PSD boundary) and |normal| on odd ones.  Sampling
    is counter-based, so any prefix of a seeded stream is reproducible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c = np.empty((n, 4))
    cp = np.empty((n, 4))
    j = np.empty((n, 6))
    delta = np.empty(n)
    for i in range(n):
        rng = np.random.default_rng([int(seed), i])
        draw = rng.standard_normal(15)
        c[i] = draw[0:4]
        cp[i] = draw[4:8]
        j[i] = draw[8:14]
        delta[i] = 0.0 if i % 2 == 0 else abs(draw[14])
    qs = np.stack(
        [
            assemble_q(ChargeSet(e0=0.0, c=c[i], cp=cp[i], j=j[i]))
            for i in range(n)
        ]
    )
    lam_min = np.linalg.eigvalsh(qs)[:, 0]
    e0 = -lam_min + delta
    return e0, c, cp, j, delta


def sample_psd_charges(seed: int, n: int) -> list[ChargeSet]:
    """PSD-by-construction charge sets; see sample_momenta for the scheme."""
    e0, c, cp, j, _ = sample_momenta(seed, n)
    return [ChargeSet(e0=float(e0[i]), c=c[i], cp=cp[i], j=j[i]) for i in range(n)]


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float
    mode: str
    lhs_imag: float
    diverged: bool

    def as_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "mode": self.mode,
            "lhs_imag": self.lhs_imag,
            "diverged": self.diverged,
        }


def _identity_surface_value(s: SurfaceData, lam, mode):
    """One radius of the boundary surface integral, either mode."""
    k = s.constants
    grid = s.grid
    theta, psi, phi = grid.theta, grid.psi, grid.phi
    shape = grid.shape
    e1 = s.e1

    def integral(f):
        return complex(s.integrate(f))

    if mode == "leading":
        up, _, vp, _ = profiles(lam, theta, psi, phi)
        up = np.broadcast_to(up, shape)
        vp = np.broadcast_to(vp, shape)
        ekr = math.exp(k.kappa * s.r)
        _, p21, p31, p41 = s.p1
        val = 0.5 * integral(e1 * (np.abs(up) ** 2 + np.abs(vp) ** 2) * ekr)
        val += integral(p21 * (np.abs(up) ** 2 - np.abs(vp) ** 2) * ekr)
        val += -1j * integral(p31 * (np.conj(up) * vp - np.conj(vp) * up) * ekr)
        val += integral(p41 * (np.conj(up) * vp + np.conj(vp) * up) * ekr)
        return val

    # Exact mode: the three bilinear terms with the full spinor.
    spinor = killing_spinor_grid(lam, s.r, theta, psi, phi, k)  # (4,) + shape
    spinor = np.broadcast_to(spinor, (4,) + shape)
    norm2 = np.sum(np.abs(spinor) ** 2, axis=0)

    def bil(mat):
        # <Phi, mat Phi> pointwise over the grid.
        acted = np.einsum("ab,b...->a...", mat, spinor)
        return np.sum(np.conj(spinor) * acted, axis=0)

    a = s.a
    tra = np.einsum("...ii->...", a)
    g_k1 = np.eye(4)[0] + a[..., :, 0]  # g_{k1} = delta_k1 + a_k1, index k

    # Divergence-minus-trace scalar (the connection part of the mass aspect
    # without the kappa correction term).
    div_minus_tr = e1 + k.kappa * (a[..., 0, 0] - g_k1[..., 0] * tra)

    val = 0.25 * integral(div_minus_tr * norm2)
    for kk in range(4):
        coeff_a = k.kappa * (a[..., kk, 0] - g_k1[..., kk] * tra)
        val += 0.25 * integral(coeff_a * (1j * bil(gamma(kk + 1))))
        # The h coefficient h_k1 - g_k1 tr h is the momentum aspect P_{k1}.
        val += -0.5 * integral(s.p1[kk] * bil(gamma(0) @ gamma(kk + 1)))
    return val


def boundary_identity(
    model: InitialDataModel,
    lam: KillingParams,
    q: QuadratureSpec,
    mode: str = "leading",
) -> IdentityReport:
    """Compare the spinor boundary integral with 8 pi lambda^dagger Q lambda."""
    if mode not in ("leading", "exact"):
        raise ValueError(f"mode must be 'leading' or 'exact', got {mode!r}")
    cs, surfaces = charges_and_surfaces(model, q)
    vals = [_identity_surface_value(s, lam, mode) for s in surfaces]
    re_limit = radial_limit(list(zip(q.radii, [v.real for v in vals])),
                            model.constants, q.rel_tol)
    lhs = re_limit.limit
    lhs_imag = max(abs(v.imag) for v in vals)

    qmat = assemble_q(cs)
    lvec = lam.as_array()
    rhs = float((8 * math.pi) * np.real(np.conj(lvec) @ qmat @ lvec))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    gap = abs(lhs - rhs) / scale
    return IdentityReport(
        lhs=float(lhs), rhs=rhs, gap=float(gap), mode=mode,
        lhs_imag=float(lhs_imag),
        diverged=re_limit.diverged or cs.any_diverged,
    )
