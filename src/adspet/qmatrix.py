"""The Hermitian charge matrix, the energy lower bounds, and cross-checks.

Q is a 4x4 Hermitian matrix built linearly from the fifteen charges; its
positive semidefiniteness encodes the positive energy statement.  This
module assembles Q, evaluates the five lower bounds on the energy, the
closed-form third-minor sum and determinant, the rigidity classification,
a seeded PSD sampler for property sweeps, and the boundary identity tying
the spinor surface integrals to lambda^dagger Q lambda.

The sampler puts a sample on the PSD boundary at E0 = -lambda_min(Q0), the
largest root of the quartic det Q(E0) in closed form, found by monotone
Newton from sqrt(3A).  Rows near a double root (p' <= 1e-3 A^{3/2}) or not
converged in 40 steps take eigvalsh instead; the error is of order
eps A^2 / p'(E0), within 6.4e-15 sqrt(A) of eigvalsh over 10^6
standard-normal draws.  Its momenta are the rows of one numpy generator's
draw, default_rng(seed).standard_normal((n, 15)); a sweep draws and roots
them SAMPLE_BLOCK rows at a time from that one stream, in constant memory.

The identity reads the charges' surface pass at every radius at once.  Its
integrand, in either mode, is a sum of sixteen real angular tables of the
Killing-spinor profiles, built once per call, each times a coefficient
formed at the data's own shape from a fixed 9 x 16 matrix and the weights
e^{+-kappa r}; the leading mode is the e^{kappa r} part of that sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charges import (
    J_ORDER,
    ZERO_REL,
    ChargeSet,
    DerivedCharges,
    SurfaceData,
    _cross,
    _dot,
    _parts,
    charges_and_surfaces,
    derived,
)
from .clifford import gamma
from .geometry import NumericalError, QuadratureSpec, _radial_values, radial_limit
from .initial_data import InitialDataModel
from .spinors import KillingParams, profiles

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
    "sample_momenta",
    "sample_blocks",
    "IdentityReport",
    "boundary_identity",
]


def _scalar(x):
    """A batch-of-one result as a Python scalar (numpy bools are not JSON
    serialisable); a batch stays an array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def assemble_q(cs: ChargeSet) -> np.ndarray:
    """Assemble the 4x4 Hermitian matrix from a charge set, shape B+(4,4)."""
    e0 = np.asarray(cs.e0)
    c1, c2, c3, c4 = np.moveaxis(cs.c, -1, 0)
    p1, p2, p3, p4 = np.moveaxis(cs.cp, -1, 0)
    j12, j13, j14, j23, j24, j34 = (
        cs.j[..., J_ORDER.index(p)]
        for p in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    )
    q = np.empty(e0.shape + (4, 4), dtype=complex)
    # E block.
    q[..., 0, 0] = e0 + c4 + p3 - j34
    q[..., 0, 1] = p1 + 1j * p2 - j14 - 1j * j24
    q[..., 1, 0] = p1 - 1j * p2 - j14 + 1j * j24
    q[..., 1, 1] = e0 + c4 - p3 + j34
    # Ehat block.
    q[..., 2, 2] = e0 - c4 - p3 - j34
    q[..., 2, 3] = -p1 - 1j * p2 - j14 - 1j * j24
    q[..., 3, 2] = -p1 + 1j * p2 - j14 + 1j * j24
    q[..., 3, 3] = e0 - c4 + p3 + j34
    # L block and its adjoint.
    q[..., 0, 2] = c3 - p4 + 1j * j12
    q[..., 0, 3] = c1 + 1j * c2 + j13 + 1j * j23
    q[..., 1, 2] = c1 - 1j * c2 - j13 + 1j * j23
    q[..., 1, 3] = -c3 - p4 - 1j * j12
    q[..., 2:, :2] = np.conj(np.swapaxes(q[..., :2, 2:], -1, -2))
    return q


@dataclass(frozen=True)
class PsdReport:
    psd: bool | np.ndarray
    min_eigenvalue: float | np.ndarray
    eigenvalues: np.ndarray       # shape B+(4,), ascending
    leading_minors: np.ndarray    # shape B+(4,)


# _LEADING_BLOCKS[k - 1] marks the leading k x k block of a 4 x 4 matrix.
# Built from Python lists: a numpy ufunc here, at import, would page in its
# loops on every command, about 0.25 MB of resident memory.
_LEADING_BLOCKS = np.array([[[max(i, j) < k for j in range(4)] for i in range(4)]
                            for k in range(1, 5)])


PSD_REL_TOL = 1e-10
BOUNDS_TOL = 1e-9


def psd_check(qmat: np.ndarray) -> PsdReport:
    """Eigenvalue PSD test cross-checked against leading principal minors.

    qmat has shape B+(4,4).  Tolerances are relative to the largest |eigenvalue|
    s of each matrix: an eigenvalue may reach -PSD_REL_TOL s and the k x k minor
    -PSD_REL_TOL s^k, so Q = 0 is PSD and a tiny Q is judged on its own scale.
    """
    qmat = np.asarray(qmat, dtype=complex)
    if qmat.shape[-2:] != (4, 4):
        raise ValueError(f"Q must be 4x4, got shape {qmat.shape}")
    if not np.isfinite(qmat).all():
        raise NumericalError("psd_check requires a finite matrix")
    skew = np.abs(qmat - np.conj(np.swapaxes(qmat, -1, -2))).max(axis=(-2, -1))
    if np.any(skew > 1e-12 * np.abs(qmat).max(axis=(-2, -1))):
        raise NumericalError("psd_check requires a Hermitian matrix")
    eig = np.linalg.eigvalsh(qmat)
    scale = np.abs(eig).max(axis=-1)
    # The k x k leading minor is the determinant of Q with its rows and
    # columns past k replaced by the identity's: one det call for all four.
    minors = np.linalg.det(np.where(_LEADING_BLOCKS, qmat[..., None, :, :],
                                    np.eye(4))).real
    psd_eig = eig[..., 0] >= -PSD_REL_TOL * scale
    psd_minor = np.all(minors >= -PSD_REL_TOL * scale[..., None] ** np.arange(1, 5),
                       axis=-1)
    return PsdReport(
        psd=_scalar(psd_eig & psd_minor),
        min_eigenvalue=eig[..., 0],
        eigenvalues=eig,
        leading_minors=minors,
    )


def _closed_form_terms(cs: ChargeSet, d: DerivedCharges):
    """The cross and triple products of the closed forms, once, reduced to
    the three combinations through which they enter:

        t  = c'_4 (c.J4) - c_4 (c'.J4) + (c x c').Jhat
        s  = |c x c'|^2 + |c' x Jhat|^2 + (J4.c)^2 + (J4.c')^2 + (J4.Jhat)^2
             + |J4|^2 (c_4^2 + c'_4^2)
             + 2 c_4 (c x Jhat).J4 + 2 c'_4 (c' x Jhat).J4
        w2 = |c_4 c' - c'_4 c|^2 + |c x Jhat|^2

    with c, c' the first three components.  Returns (t, s, w2).
    """
    c4, p4 = cs.c[..., 3][()], cs.cp[..., 3][()]
    c, cp, jhat, j4 = (_parts(v) for v in (d.c3, d.cp3, d.jhat, d.j4))
    cxcp = _cross(c, cp)
    cxj = _cross(c, jhat)
    cpxj = _cross(cp, jhat)
    # Each sum accumulates in place, term by term, in the order written above.
    t = p4 * _dot(c, j4)
    t -= c4 * _dot(cp, j4)
    t += _dot(cxcp, jhat)
    s = _dot(cxcp, cxcp)
    s += _dot(cpxj, cpxj)
    s += _dot(j4, c) ** 2
    s += _dot(j4, cp) ** 2
    s += _dot(j4, jhat) ** 2
    s += _dot(j4, j4) * (c4**2 + p4**2)
    s += 2 * c4 * _dot(cxj, j4)
    s += 2 * p4 * _dot(cpxj, j4)
    pair = []
    for x, y in zip(c, cp):
        v = c4 * y
        v -= p4 * x
        pair.append(v)
    w2 = _dot(pair, pair)
    w2 += _dot(cxj, cxj)
    return t, s, w2


class _MomentumTerms(NamedTuple):
    """derived(cs) and the _closed_form_terms (t, s, w2) of a charge set.
    None of them reads E0, so a set and its momenta share them."""
    d: DerivedCharges
    t: float | np.ndarray
    s: float | np.ndarray
    w2: float | np.ndarray


def _momentum_terms(cs: ChargeSet) -> _MomentumTerms:
    d = derived(cs)
    return _MomentumTerms(d, *_closed_form_terms(cs, d))


def third_minor_sum(cs: ChargeSet):
    """Closed form of the sum of third-order principal minors (up to the
    positive normalization): E0(E0^2 - A) plus the mixed triple terms."""
    m = _momentum_terms(cs)
    return cs.e0 * (cs.e0**2 - m.d.a_total) + 2 * m.t


def det_closed_form(cs: ChargeSet):
    """Closed form of det Q in terms of the charges."""
    m = _momentum_terms(cs)
    return (cs.e0**2 - m.d.a_total) ** 2 + 8 * cs.e0 * m.t - 4 * (m.s + m.w2)


@dataclass(frozen=True)
class BoundsReport:
    bounds: np.ndarray      # B1..B5, shape B+(5,)
    f: float | np.ndarray
    f_plus: float | np.ndarray
    w: float | np.ndarray
    e0: float | np.ndarray
    satisfied: bool | np.ndarray
    margin: float | np.ndarray

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
            "e0": self.e0,
            "satisfied": self.satisfied,
            "margin": self.margin,
        }


def theorem_bounds(cs: ChargeSet, terms: _MomentumTerms | None = None) -> BoundsReport:
    """The five lower bounds on the energy, each implied by Q being PSD.

    B2 is the second-minor form sqrt((|c'|^2 + |J4|^2)/2 + L^2/8).  The
    bounds hold when E0 - max B >= -BOUNDS_TOL max(|E0|, max B).  terms are
    the _momentum_terms of cs, computed here if not given.
    """
    d, _, s, w2 = _momentum_terms(cs) if terms is None else terms
    w = np.sqrt(w2)
    a_tot = d.a_total
    l2 = d.l_squared
    cp, j4 = _parts(d.cp3), _parts(d.j4)
    cp3_sq = _dot(cp, cp)
    j4_sq = _dot(j4, j4)

    b1 = np.sqrt(cs.c[..., 3][()] ** 2 + l2 / 4.0)
    b2 = np.sqrt(0.5 * (cp3_sq + j4_sq) + l2 / 8.0)
    b3 = np.sqrt(a_tot + cp3_sq + j4_sq) - np.sqrt(cp3_sq) - np.sqrt(j4_sq)
    b4 = np.sqrt(np.maximum(a_tot - 2 * math.sqrt(2) * w, 0.0))
    f_val = -8 * math.sqrt(2) * w * a_tot + 36 * w2 + 4 * s
    f_plus = np.maximum(f_val, 0.0)
    b5 = np.sqrt(np.maximum(a_tot - 4 * math.sqrt(2) * w + np.sqrt(f_plus), 0.0))

    bounds = np.array([b1, b2, b3, b4, b5])
    bounds = bounds.transpose(*range(1, bounds.ndim), 0)  # B+(5,)
    b_max = bounds.max(axis=-1)
    margin = cs.e0 - b_max
    satisfied = margin >= -BOUNDS_TOL * np.maximum(np.abs(cs.e0), b_max)
    return BoundsReport(
        bounds=bounds, f=f_val, f_plus=f_plus, w=w, e0=cs.e0,
        satisfied=_scalar(satisfied), margin=margin,
    )


@dataclass(frozen=True)
class RigidityReport:
    in_domain: bool | np.ndarray     # E0 negligible and Q PSD
    q_frobenius: float | np.ndarray
    q: np.ndarray                    # the charge matrix the verdict reads
    psd: PsdReport                   # its PSD check

    def as_dict(self):
        return {
            "in_domain": self.in_domain,
            "q_frobenius": self.q_frobenius,
        }


def rigidity_check(cs: ChargeSet) -> RigidityReport:
    """The rigidity hypothesis: the energy vanishes and Q is PSD.

    E0 is judged against PSD_REL_TOL s, with s the largest |eigenvalue| of Q
    as in psd_check, so Q = 0 is in the domain and a tiny Q is judged on its
    own scale.  Where it holds, Q vanishes, so that is no separate verdict:
    every eigenvalue is at least -PSD_REL_TOL s and their sum, tr Q = 4 E0, at
    most 4 PSD_REL_TOL s, which leaves s = 0.
    """
    qmat = assemble_q(cs)
    psd = psd_check(qmat)
    cutoff = PSD_REL_TOL * np.abs(psd.eigenvalues).max(axis=-1)
    in_domain = (cs.e0 <= cutoff) & psd.psd
    return RigidityReport(
        in_domain=_scalar(in_domain),
        q_frobenius=np.linalg.norm(qmat, axis=(-2, -1)), q=qmat, psd=psd,
    )


def _psd_boundary_energy(cs0: ChargeSet,
                         terms: _MomentumTerms | None = None) -> np.ndarray:
    """-lambda_min(Q0) of a batch of momentum-only sets (e0 = 0), shape (n,),
    from their _momentum_terms, computed here if not given.

    det(x Id + Q0) is det_closed_form at e0 = x:

        p(x) = x^4 - 2A x^2 + 8t x + A^2 - 4(s + w2),

    with A the a_total of derived(cs0) and (t, s, w2) its _closed_form_terms.
    Its roots are -mu_i for the eigenvalues mu_i of Q0, so the PSD-boundary
    energy is its largest root.  Newton's method from x0 = sqrt(3A) reaches
    it monotonically from above: tr Q0^2 = 4A and tr Q0 = 0, so
    mu^2 = (sum of the other three)^2 <= 3 (4A - mu^2) gives max|mu|^2 <= 3A,
    and x0 is at or above the root; p is increasing and convex above its
    largest root, so every Newton iterate stays at or above it.  A row stops
    once its step is at most 1e-15 x; a step at or below 0 is roundoff at
    the root and is not taken, so x never rises.

    At a simple root the error is the roundoff of p over p', of order
    eps A^2 / p'(E0) <= 1e3 eps sqrt(A) on the rows kept; over 10^6
    standard-normal draws E0 stayed within 6.4e-15 sqrt(A) of eigvalsh's,
    and p'(E0) above 0.03 A^{3/2}.  Near a multiple root Newton converges
    only linearly and p is flat, so it stalls some 3e-9 sqrt(A) away; rows
    where p'(x) <= 1e-3 A^{3/2} at an iterate (p' only falls towards the
    root), or that have not converged in 40 steps, take eigvalsh instead.
    Rows with A = 0 are Q0 = 0 and get 0.  The terms of p are of degree 4
    in the momenta, so these must lie within about 1e+-70 of 1; the
    sampler's are standard normal.
    """
    d, t, s, w2 = _momentum_terms(cs0) if terms is None else terms
    a = d.a_total
    c2, c1, c0 = -2 * a, 8 * t, a * a - 4 * (s + w2)
    c2_twice = 2 * c2
    x = np.sqrt(3 * a)
    flat = 1e-3 * a * np.sqrt(a)
    live = a > 0
    fallback = np.zeros_like(live)
    # Every row is stepped, in place, and only the live ones move: for a
    # block of rows that takes fewer numpy calls and allocations than
    # gathering the live rows at each step.  A row that is not live may
    # divide 0 by 0; its step is never taken.
    x2, dp, step, tmp = (np.empty_like(x) for _ in range(4))
    flags = np.empty_like(live)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(40):
            if not live.any():
                break
            np.multiply(x, x, out=x2)
            # dp = (4 x2 + 2 c2) x + c1 = p'(x)
            np.multiply(x2, 4, out=dp)
            dp += c2_twice
            dp *= x
            dp += c1
            stalled = np.less_equal(dp, flat, out=flags)
            stalled &= live
            if stalled.any():
                fallback |= stalled
                live &= ~stalled
            # step = ((x2 + c2) x2 + c1 x + c0) / dp = p(x) / p'(x)
            np.add(x2, c2, out=step)
            step *= x2
            step += np.multiply(c1, x, out=tmp)
            step += c0
            step /= dp
            moving = np.greater(step, np.multiply(x, 1e-15, out=tmp), out=flags)
            # A step at or below 0 is roundoff at the root: x stays where it is.
            np.subtract(x, np.maximum(step, 0.0, out=step), out=x, where=live)
            live &= moving
    rows = np.flatnonzero(fallback | live)
    if rows.size:
        q0 = assemble_q(ChargeSet(e0=np.zeros(rows.size), c=cs0.c[rows],
                                  cp=cs0.cp[rows], j=cs0.j[rows]))
        x[rows] = -np.linalg.eigvalsh(q0)[:, 0]
    return x


class _Sample(tuple):
    """sample_momenta's (e0, c, cp, j, delta).  Its terms are the
    _momentum_terms of the momenta, which the sampler needed for the
    boundary energy; a caller that goes on to the bounds reads them here
    instead of computing them again."""

    terms: _MomentumTerms


# The rows of one sample_momenta call in a sweep.  Even, so every block
# starts on an even row and delta keeps its parity by global row index.  A
# sweep of blocks of 2048 rows peaks at about 1.1 MiB traced, whatever n.
SAMPLE_BLOCK = 2048


def _require_sample_count(n: int) -> None:
    # A sweep's memory does not grow with n, so the cap is on run time: at
    # about 0.55 us a row (2-vCPU x86 host) 2**32 rows take some 40 minutes.
    # (One sample_momenta call holds all its rows: 2**32 of them take
    # 515 GB.)  More is a usage error, raised before anything is drawn.
    if not 1 <= n <= 2**32:
        raise ValueError(f"n must be in 1..2**32, got {n}")


def sample_momenta(seed: int | np.random.Generator, n: int):
    """Vectorized PSD charge sampler.

    Returns (e0, c, cp, j, delta) arrays with shapes (n,), (n,4), (n,4),
    (n,6).  The 14 momenta are standard normal; the energy is set to
    -lambda_min of the momentum-only matrix Q0 plus delta, where delta = 0
    on even samples (exact PSD boundary) and |normal| on odd ones.
    -lambda_min(Q0) is the largest root of det(E0 Id + Q0), the closed-form
    quartic det_closed_form, found by monotone Newton from sqrt(3A)
    (_psd_boundary_energy).  Rows near a multiple root, or not converged in
    40 steps, fall back to eigvalsh; over 10^6 standard-normal draws the
    root agreed with eigvalsh to within 6.4e-15 sqrt(A).

    Row i of the draw np.random.default_rng(seed).standard_normal((n, 15))
    is sample i: columns 0:4 are c, 4:8 c', 8:14 J and 14 gives delta.
    The generator fills the array row by row, so a shorter run is a prefix
    of a longer one.  seed may also be a numpy Generator, which
    default_rng returns as it is: the draw then continues its stream, and
    successive calls of even n give the rows of one draw in order, with
    delta's parity kept.  sample_blocks sweeps that way, in constant memory.
    numpy.random is imported only when the sampler runs, not at module
    level: loading it costs tens of milliseconds and several MB of memory
    on every command, and only this sampler needs it.
    """
    _require_sample_count(n)
    from numpy.random import default_rng

    draw = default_rng(seed).standard_normal((n, 15))
    c, cp, j = draw[:, 0:4], draw[:, 4:8], draw[:, 8:14]
    delta = np.abs(draw[:, 14])
    delta[::2] = 0.0
    cs0 = ChargeSet(e0=np.zeros(n), c=c, cp=cp, j=j)
    terms = _momentum_terms(cs0)
    e0 = _psd_boundary_energy(cs0, terms) + delta
    out = _Sample((e0, c, cp, j, delta))
    out.terms = terms
    return out


def sample_blocks(seed: int, n: int):
    """The rows of sample_momenta(seed, n), in order, as successive samples
    of SAMPLE_BLOCK rows (the last may be shorter), drawn from one generator
    seeded once.  Each row is computed on its own, so every block equals
    those rows of the one-call sample bit for bit.  The last block yielded
    is kept until the next is drawn, and no longer: a caller that drops
    each block before it asks for the next sweeps any n in constant
    memory."""
    _require_sample_count(n)
    from numpy.random import default_rng

    rng = default_rng(seed)
    for start in range(0, n, SAMPLE_BLOCK):
        # The block before is let go only once this one is drawn.  Let go
        # first, its memory sat at the top of the C heap, which glibc hands
        # back to the system and the next block faults in again: about 660
        # minor faults per 10^4-row sweep in a long-running process (the
        # benchmark's worker), against about 100 this way.
        sample = sample_momenta(rng, min(SAMPLE_BLOCK, n - start))
        yield sample


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    gap: float
    mode: str
    diverged: bool

    def as_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "mode": self.mode,
            "diverged": self.diverged,
        }


# The exact-mode integrand is the Hermitian form <Phi, M Phi> with
# M = sum_n c_n _FORM_MATS[n]: the identity, gamma_1..4 and gamma_0 gamma_1..4
# with their weights, against nine real fields c_n of the surface data.
_FORM_MATS = np.array([0.25 * np.eye(4)] + [0.25j * gamma(k) for k in range(1, 5)]
                      + [-0.5 * gamma(0) @ gamma(k) for k in range(1, 5)])
# The spinor is Phi = e+ U + e- V with e+- = exp(+-kappa r / 2), U = S(+1)
# (u+, v+) and V = S(-1) (u-, v-), where S(s) stacks (x0, x1, i s x0, i s x1).
# For M Hermitian,
#     <Phi, M Phi> = e^{kappa r} <U, M U> + e^{-kappa r} <V, M V>
#                    + 2 Re <U, M V>,
# a real combination of sixteen angular tables of the profiles: |x0|^2,
# |x1|^2, Re and Im conj(x0) x1 for x = (u+, v+) and for (u-, v-), then Re
# and Im of conj(x_i) y_j for x = (u+, v+), y = (u-, v-), for ij = 00, 01,
# 10, 11 in turn.
_SPIN = {s: np.array([[1, 0], [0, 1], [1j * s, 0], [0, 1j * s]]) for s in (1, -1)}


def _table_coeffs(m):
    """The coefficients of the sixteen tables in <Phi, m Phi>, m Hermitian,
    without the radial weights."""
    pp, mm = (_SPIN[s].conj().T @ m @ _SPIN[s] for s in (1, -1))
    pm = 2 * (_SPIN[1].conj().T @ m @ _SPIN[-1]).ravel()
    own = [[x[0, 0].real, x[1, 1].real, 2 * x[0, 1].real, -2 * x[0, 1].imag]
           for x in (pp, mm)]
    return np.concatenate(own + [np.stack([pm.real, -pm.imag], axis=-1).ravel()])


# The nine fields of the surface data are e_1, the four a-terms
# kappa (a_k1 - g_k1 tr a) and P_{11}..P_{41}.  e_1 plus the first a-term is
# the coefficient of the identity, so that a-term also enters with
# _FORM_MATS[0]; in the e^{kappa r} tables every a-term and P_11 cancel
# exactly, which leaves the leading mode.
_IDENTITY_COEFFS = np.array([_table_coeffs(m) for m in (
    _FORM_MATS[0], _FORM_MATS[0] + _FORM_MATS[1], *_FORM_MATS[2:])])  # (9, 16)
# The power of e^{kappa r} that weights each table, and the tables of each
# mode: the leading mode is the e^{kappa r} part of the exact integrand.
_TABLE_POWER = (1,) * 4 + (-1,) * 4 + (0,) * 8
_MODE_TABLES = {"leading": range(4), "exact": range(16)}
# The nonzero coefficients (field, coefficient) of each table.
_IDENTITY_TERMS = tuple(
    tuple((n, float(c)) for n, c in enumerate(_IDENTITY_COEFFS[:, t]) if c)
    for t in range(16))


def _identity_tables(prof):
    """The sixteen real angular tables of the profiles (u+, u-, v+, v-), in
    order, each built when it is asked for, so one product conj(x_i) y_j is
    held at a time."""
    up, um, vp, vm = prof
    for x0, x1 in ((up, vp), (um, vm)):
        x01 = np.conj(x0) * x1
        yield from (np.abs(x0) ** 2, np.abs(x1) ** 2, x01.real, x01.imag)
    for x in (up, vp):
        for y in (um, vm):
            xy = np.conj(x) * y
            yield from (xy.real, xy.imag)


@functools.lru_cache(maxsize=4)
def _identity_workspace(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two float arrays of the given shape, for the identity integrand and
    one of its terms, kept from call to call.  At 16^3 nodes and four radii
    each is 128 KiB, the size from which the C allocator maps and unmaps an
    array on every call, with a page fault per page touched."""
    return np.empty(shape), np.empty(shape)


def _identity_surface_value(s: SurfaceData, prof, mode):
    """The boundary surface integral at every radius of s, either mode.

    prof holds the Killing-spinor angular profiles (u+, u-, v+, v-) on the
    grid of s; r enters only through the weights e^{+-kappa r}.  The
    integrand sum_t G_t T_t pairs each angular table T_t with a coefficient
    G_t formed at the data's shape; it is formed, weighted and summed at the
    nodes of every radius at once in a workspace kept per shape.  Returns
    the integrals and the integrals of the integrand's absolute value, each
    of the shape of s.r.
    """
    k = s.constants
    a = s.a
    tra = np.einsum("...ii->...", a)
    g_k1 = np.eye(4)[0] + a[..., :, 0]  # g_{k1} = delta_k1 + a_k1, index k
    coeff_a = k.kappa * np.moveaxis(a[..., :, 0] - g_k1 * tra[..., None], -1, 0)
    # The rows of _IDENTITY_COEFFS.  The coefficient of the identity matrix,
    # e_1 + coeff_a[0], is the divergence-minus-trace scalar: the mass aspect
    # without its kappa correction term.
    fields = (s.e1, *coeff_a, *s.p1)
    what = "the Killing spinor weights exp(+-kappa r)"
    r = np.asarray(s.r, dtype=float)
    radial = {power: _radial_values(name, r, k, what).reshape(r.shape + (1, 1, 1))
              for power, name in ((1, "exp"), (-1, "exp_neg"))}
    area = _radial_values("area", r, k, "the area factors of S_r")
    integrand, term = _identity_workspace(r.shape + s.grid.shape)
    integrand.fill(0.0)
    # zip stops at the mode's last table, so the leading mode builds four.
    for t, table in zip(_MODE_TABLES[mode], _identity_tables(prof)):
        if not _IDENTITY_TERMS[t]:
            continue
        g = sum(c * fields[n] for n, c in _IDENTITY_TERMS[t])
        if _TABLE_POWER[t]:
            g = radial[_TABLE_POWER[t]] * g
        integrand += np.multiply(g, table, out=term)
    s.grid.require_finite(integrand)
    # The weights are positive, so |weighted integrand| is the weighted
    # |integrand|.
    integrand *= s.grid.weights
    values = np.sum(integrand, axis=(-3, -2, -1)) * area
    abs_values = np.sum(np.abs(integrand, out=integrand), axis=(-3, -2, -1)) * area
    return values, abs_values


def boundary_identity(
    model: InitialDataModel,
    lam: KillingParams,
    q: QuadratureSpec,
    mode: str = "leading",
) -> IdentityReport:
    """Compare the spinor boundary integral with 8 pi lambda^dagger Q lambda.

    The gap is |lhs - rhs| over max(|lhs|, |rhs|, 8 pi |lambda|^2 max|eig Q|,
    max_r integral of |integrand|), and 0 when that scale is 0.
    """
    if mode not in ("leading", "exact"):
        raise ValueError(f"mode must be 'leading' or 'exact', got {mode!r}")
    cs, surface = charges_and_surfaces(model, q)
    grid = surface.grid
    prof = profiles(lam, grid.theta, grid.psi, grid.phi)
    re_vals, abs_vals = _identity_surface_value(surface, prof, mode)
    # Like a charge column the data do not source, an integral that stays
    # at quadrature roundoff of its absolute integral is zero; fitted, its
    # noise can read as growth.
    lhs, diverged = 0.0, False
    if np.max(np.abs(re_vals)) > ZERO_REL * np.max(abs_vals):
        re_limit = radial_limit(list(zip(q.radii, re_vals)), model.constants)
        lhs, diverged = re_limit.limit, re_limit.diverged

    qmat = assemble_q(cs)
    lvec = lam.as_array()
    rhs = float((8 * math.pi) * np.real(np.conj(lvec) @ qmat @ lvec))
    # lambda^dagger Q lambda can vanish while Q does not, leaving lhs as
    # quadrature roundoff; the gap is judged on the scale of the data:
    # 8 pi |lambda|^2 max|eig Q|, which bounds |rhs|, and the integral of
    # |integrand|, which bounds |lhs| at each radius, also when every
    # charge vanishes.  A diverged charge leaves Q non-finite, which
    # eigvalsh rejects; the gap is then NaN.
    q_scale = math.nan
    if np.isfinite(qmat).all():
        q_scale = ((8 * math.pi) * np.vdot(lvec, lvec).real
                   * np.abs(np.linalg.eigvalsh(qmat)).max())
    scale = np.max([abs(lhs), abs(rhs), q_scale, np.max(abs_vals)])
    gap = 0.0 if scale == 0 else abs(lhs - rhs) / scale
    return IdentityReport(
        lhs=float(lhs), rhs=rhs, gap=float(gap), mode=mode,
        diverged=diverged or cs.any_diverged,
    )
