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
from .geometry import NumericalError, QuadratureSpec, radial_limit
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
    "sample_momenta",
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


def psd_check(qmat: np.ndarray, rel_tol: float = 1e-10) -> PsdReport:
    """Eigenvalue PSD test cross-checked against leading principal minors.

    qmat has shape B+(4,4).  Tolerances are relative to the largest |eigenvalue|
    s of each matrix: an eigenvalue may reach -rel_tol s and the k x k minor
    -rel_tol s^k, so Q = 0 is PSD and a tiny Q is judged on its own scale.
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
    minors = np.stack([np.linalg.det(qmat[..., :k, :k]).real for k in range(1, 5)],
                      axis=-1)
    psd_eig = eig[..., 0] >= -rel_tol * scale
    psd_minor = np.all(minors >= -rel_tol * scale[..., None] ** np.arange(1, 5),
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
    pair = tuple(c4 * y - p4 * x for x, y in zip(c, cp))
    t = p4 * _dot(c, j4) - c4 * _dot(cp, j4) + _dot(cxcp, jhat)
    s = (_dot(cxcp, cxcp) + _dot(cpxj, cpxj)
         + _dot(j4, c) ** 2 + _dot(j4, cp) ** 2 + _dot(j4, jhat) ** 2
         + _dot(j4, j4) * (c4**2 + p4**2)
         + 2 * c4 * _dot(cxj, j4) + 2 * p4 * _dot(cpxj, j4))
    w2 = _dot(pair, pair) + _dot(cxj, cxj)
    return t, s, w2


def third_minor_sum(cs: ChargeSet):
    """Closed form of the sum of third-order principal minors (up to the
    positive normalization): E0(E0^2 - A) plus the mixed triple terms."""
    d = derived(cs)
    t, _, _ = _closed_form_terms(cs, d)
    return cs.e0 * (cs.e0**2 - d.a_total) + 2 * t


def det_closed_form(cs: ChargeSet):
    """Closed form of det Q in terms of the charges."""
    d = derived(cs)
    t, s, w2 = _closed_form_terms(cs, d)
    return (cs.e0**2 - d.a_total) ** 2 + 8 * cs.e0 * t - 4 * (s + w2)


@dataclass(frozen=True)
class BoundsReport:
    bounds: np.ndarray      # B1..B5, shape B+(5,)
    f: float | np.ndarray
    f_plus: float | np.ndarray
    w: float | np.ndarray
    variant: str
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
    the minors.  The bounds hold when E0 - max B >= -tol max(|E0|, max B).
    """
    if variant not in ("proof", "theorem-text"):
        raise ValueError(f"variant must be 'proof' or 'theorem-text', got {variant!r}")
    d = derived(cs)
    _, s, w2 = _closed_form_terms(cs, d)
    w = np.sqrt(w2)
    a_tot = d.a_total
    l2 = d.l_squared
    c, cp, j4 = (_parts(v) for v in (d.c3, d.cp3, d.j4))
    cp3_sq = _dot(cp, cp)
    j4_sq = _dot(j4, j4)
    b2_term = cp3_sq if variant == "proof" else _dot(c, c)

    b1 = np.sqrt(cs.c[..., 3][()] ** 2 + l2 / 4.0)
    b2 = np.sqrt(0.5 * (b2_term + j4_sq) + l2 / 8.0)
    b3 = np.sqrt(a_tot + cp3_sq + j4_sq) - np.sqrt(cp3_sq) - np.sqrt(j4_sq)
    b4 = np.sqrt(np.maximum(a_tot - 2 * math.sqrt(2) * w, 0.0))
    f_val = -8 * math.sqrt(2) * w * a_tot + 36 * w2 + 4 * s
    f_plus = np.maximum(f_val, 0.0)
    b5 = np.sqrt(np.maximum(a_tot - 4 * math.sqrt(2) * w + np.sqrt(f_plus), 0.0))

    bounds = np.array([b1, b2, b3, b4, b5])
    bounds = bounds.transpose(*range(1, bounds.ndim), 0)  # B+(5,)
    b_max = bounds.max(axis=-1)
    margin = cs.e0 - b_max
    satisfied = margin >= -tol * np.maximum(np.abs(cs.e0), b_max)
    return BoundsReport(
        bounds=bounds, f=f_val, f_plus=f_plus, w=w, variant=variant, e0=cs.e0,
        satisfied=_scalar(satisfied), margin=margin,
    )


@dataclass(frozen=True)
class RigidityReport:
    in_domain: bool | np.ndarray     # E0 negligible and Q PSD
    q_frobenius: float | np.ndarray
    vanishes: bool | np.ndarray
    q: np.ndarray                    # the charge matrix the verdict reads
    psd: PsdReport                   # its PSD check

    def as_dict(self):
        return {
            "in_domain": self.in_domain,
            "q_frobenius": self.q_frobenius,
            "vanishes": self.vanishes,
        }


def rigidity_check(cs: ChargeSet, rel_tol: float = 1e-10) -> RigidityReport:
    """If the energy vanishes and Q is PSD, the whole matrix must vanish.

    E0 and |Q|_F are judged against rel_tol s, with s the largest |eigenvalue|
    of Q as in psd_check, so Q = 0 is in the domain and vanishes, and a tiny
    Q is judged on its own scale.
    """
    qmat = assemble_q(cs)
    psd = psd_check(qmat, rel_tol)
    cutoff = rel_tol * np.abs(psd.eigenvalues).max(axis=-1)
    qnorm = np.linalg.norm(qmat, axis=(-2, -1))
    in_domain = (cs.e0 <= cutoff) & psd.psd
    return RigidityReport(
        in_domain=_scalar(in_domain), q_frobenius=qnorm,
        vanishes=_scalar(in_domain & (qnorm <= cutoff)), q=qmat, psd=psd,
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4


def _hasher(const: int, mult: int):
    """SeedSequence's multiply-xorshift step on uint32 arrays; the constant
    advances by one multiplication per call."""

    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return step


def _mix(x, y):
    """SeedSequence's mix of two uint32 pool words."""
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _seed_states(seed: int, n: int) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for every i < n.

    numpy's SeedSequence hash, run once over uint32 columns with one entry
    per sample: the entropy is seed's little-endian 32-bit words, then i.
    Returns shape (n, 4), uint64.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if n > 2**32:
        raise ValueError("n must be <= 2**32")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out_hash = _hasher(_INIT_B, _MULT_B)
    state = np.stack([out_hash(pool[k % _POOL]) for k in range(2 * _POOL)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def sample_momenta(seed: int, n: int):
    """Vectorized PSD charge sampler.

    Returns (e0, c, cp, j, delta) arrays with shapes (n,), (n,4), (n,4),
    (n,6).  The 14 momenta are standard normal; the energy is set to
    -lambda_min of the momentum-only matrix plus delta, where delta = 0 on
    even samples (exact PSD boundary) and |normal| on odd ones.

    Sample i is np.random.default_rng([seed, i]).standard_normal(15), so
    any prefix of a seeded stream is reproducible.  The seed words of all
    n streams are hashed in one vectorised pass (_seed_states); PCG64 then
    seeds itself from each row.  numpy.random is imported here, not at
    module level: loading it costs tens of milliseconds and several MB of
    memory on every command, and only this sampler needs it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        """Hands PCG64 one precomputed generate_state(4, np.uint64) row."""

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    states = _seed_states(int(seed), n)
    draw = np.empty((n, 15))
    row_seed = RowSeed()
    for i in range(n):
        row_seed.row = states[i]
        Generator(PCG64(row_seed)).standard_normal(out=draw[i])
    c, cp, j = draw[:, 0:4], draw[:, 4:8], draw[:, 8:14]
    delta = np.where(np.arange(n) % 2 == 0, 0.0, np.abs(draw[:, 14]))
    q0 = assemble_q(ChargeSet(e0=np.zeros(n), c=c, cp=cp, j=j))
    e0 = -np.linalg.eigvalsh(q0)[:, 0] + delta
    return e0, c, cp, j, delta


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


# The exact-mode integrand is the Hermitian form <Phi, M Phi> with
# M = sum_n c_n _FORM_MATS[n]: the identity, gamma_1..4 and gamma_0 gamma_1..4
# with their weights, against nine real fields c_n of the surface data.  Each
# matrix has one nonzero per row, so an entry of M takes at most four terms.
# _FORM_TERMS[a] holds, for every nonzero entry (a, b) of M, b and its terms
# (n, _FORM_MATS[n, a, b]).
_FORM_MATS = np.array([0.25 * np.eye(4)] + [0.25j * gamma(k) for k in range(1, 5)]
                      + [-0.5 * gamma(0) @ gamma(k) for k in range(1, 5)])
_FORM_TERMS = tuple(
    tuple((b, tuple((n, complex(f)) for n, f in enumerate(_FORM_MATS[:, a, b]) if f))
          for b in range(4) if _FORM_MATS[:, a, b].any())
    for a in range(4))


def _identity_surface_value(s: SurfaceData, lam, mode):
    """One radius of the boundary surface integral, either mode.

    The integrand is summed at the nodes and integrated once.  Returns the
    integral and the integral of the integrand's absolute value.
    """
    k = s.constants
    grid = s.grid
    theta, psi, phi = grid.theta, grid.psi, grid.phi

    if mode == "leading":
        up, _, vp, _ = profiles(lam, theta, psi, phi)
        uu, vv, uv = np.abs(up) ** 2, np.abs(vp) ** 2, np.conj(up) * vp
        _, p21, p31, p41 = s.p1
        integrand = (0.5 * s.e1 * (uu + vv) + p21 * (uu - vv)
                     + 2 * p31 * uv.imag + 2 * p41 * uv.real)
        integrand = integrand * math.exp(k.kappa * s.r)
    else:
        # Exact mode: <Phi, M Phi> with the full spinor.  The entries of M
        # are built at the data's shape S, and M Phi at every node.
        a = s.a
        tra = np.einsum("...ii->...", a)
        g_k1 = np.eye(4)[0] + a[..., :, 0]  # g_{k1} = delta_k1 + a_k1, index k
        coeff_a = k.kappa * np.moveaxis(a[..., :, 0] - g_k1 * tra[..., None],
                                        -1, 0)
        # e_1 + coeff_a[0] is the divergence-minus-trace scalar: the mass
        # aspect without its kappa correction term.  The h coefficient
        # h_k1 - g_k1 tr h is the momentum aspect P_{k1}.
        coeffs = (s.e1 + coeff_a[0], *coeff_a, *s.p1)
        spinor = killing_spinor_grid(lam, s.r, theta, psi, phi, k)  # (4,) + grid
        m_phi = [sum(sum(f * coeffs[n] for n, f in terms) * spinor[b]
                     for b, terms in row)
                 for row in _FORM_TERMS]
        integrand = sum(np.conj(phi_a) * v for phi_a, v in zip(spinor, m_phi))
    return complex(s.integrate(integrand)), float(s.integrate(np.abs(integrand)))


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
    cs, surfaces = charges_and_surfaces(model, q)
    vals, abs_vals = zip(*(_identity_surface_value(s, lam, mode)
                           for s in surfaces))
    re_vals = [v.real for v in vals]
    lhs_imag = max(abs(v.imag) for v in vals)
    # Like a charge column the data do not source, an integral that stays
    # at quadrature roundoff of its absolute integral is zero; fitted, its
    # noise can read as growth.
    lhs, diverged = 0.0, False
    if max(map(abs, re_vals)) > ZERO_REL * max(abs_vals):
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
    scale = np.max([abs(lhs), abs(rhs), q_scale, max(abs_vals)])
    gap = 0.0 if scale == 0 else abs(lhs - rhs) / scale
    return IdentityReport(
        lhs=float(lhs), rhs=rhs, gap=float(gap), mode=mode,
        lhs_imag=float(lhs_imag),
        diverged=diverged or cs.any_diverged,
    )
