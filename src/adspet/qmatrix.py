"""The Hermitian charge matrix, the energy lower bounds, and cross-checks.

Q is a 4x4 Hermitian matrix built linearly from the fifteen charges; its
positive semidefiniteness encodes the positive energy statement.  This
module assembles Q, evaluates the five lower bounds on the energy, the
closed-form third-minor sum and determinant, the rigidity classification,
a seeded PSD sampler for property sweeps, and the boundary identity tying
the spinor surface integrals to lambda^dagger Q lambda.

The identity reads the charges' surface pass at every radius at once.  Its
integrand, in either mode, is a sum of sixteen real angular tables of the
Killing-spinor profiles, built once per call, each times a coefficient
formed at the data's own shape from a fixed 9 x 16 matrix and the weights
e^{+-kappa r}; the leading mode is the e^{kappa r} part of that sum.
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
    # The k x k leading minor is the determinant of Q with its rows and
    # columns past k replaced by the identity's: one det call for all four.
    minors = np.linalg.det(np.where(_LEADING_BLOCKS, qmat[..., None, :, :],
                                    np.eye(4))).real
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
    q: np.ndarray                    # the charge matrix the verdict reads
    psd: PsdReport                   # its PSD check

    def as_dict(self):
        return {
            "in_domain": self.in_domain,
            "q_frobenius": self.q_frobenius,
        }


def rigidity_check(cs: ChargeSet, rel_tol: float = 1e-10) -> RigidityReport:
    """The rigidity hypothesis: the energy vanishes and Q is PSD.

    E0 is judged against rel_tol s, with s the largest |eigenvalue| of Q as
    in psd_check, so Q = 0 is in the domain and a tiny Q is judged on its
    own scale.  Where it holds, Q vanishes, so that is no separate verdict:
    every eigenvalue is at least -rel_tol s and their sum, tr Q = 4 E0, at
    most 4 rel_tol s, which leaves s = 0.
    """
    qmat = assemble_q(cs)
    psd = psd_check(qmat, rel_tol)
    cutoff = rel_tol * np.abs(psd.eigenvalues).max(axis=-1)
    in_domain = (cs.e0 <= cutoff) & psd.psd
    return RigidityReport(
        in_domain=_scalar(in_domain),
        q_frobenius=np.linalg.norm(qmat, axis=(-2, -1)), q=qmat, psd=psd,
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
# and Im of conj(x_i) y_j for x = (u+, v+), y = (u-, v-), ij = 00, 01, 10, 11.
_SPIN = {s: np.array([[1, 0], [0, 1], [1j * s, 0], [0, 1j * s]]) for s in (1, -1)}


def _table_coeffs(m):
    """The coefficients of the sixteen tables in <Phi, m Phi>, m Hermitian,
    without the radial weights."""
    pp, mm = (_SPIN[s].conj().T @ m @ _SPIN[s] for s in (1, -1))
    pm = 2 * (_SPIN[1].conj().T @ m @ _SPIN[-1]).ravel()
    own = [[x[0, 0].real, x[1, 1].real, 2 * x[0, 1].real, -2 * x[0, 1].imag]
           for x in (pp, mm)]
    return np.concatenate(own + [pm.real, -pm.imag])


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
    order, each built when it is asked for."""
    up, um, vp, vm = prof
    for x0, x1 in ((up, vp), (um, vm)):
        x01 = np.conj(x0) * x1
        yield from (np.abs(x0) ** 2, np.abs(x1) ** 2, x01.real, x01.imag)
    cross = [np.conj(x) * y for x in (up, vp) for y in (um, vm)]
    yield from (c.real for c in cross)
    yield from (c.imag for c in cross)


def _identity_surface_value(s: SurfaceData, prof, mode):
    """The boundary surface integral at every radius of s, either mode.

    prof holds the Killing-spinor angular profiles (u+, u-, v+, v-) on the
    grid of s; r enters only through the weights e^{+-kappa r}.  The
    integrand sum_t G_t T_t pairs each angular table T_t with a coefficient
    G_t formed at the data's shape, and is summed at the nodes of every
    radius at once.  Returns the integrals and the integrals of the
    integrand's absolute value, each of the shape of s.r.
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
    weights = {power: _radial_values(name, r, k, what).reshape(r.shape + (1, 1, 1))
               for power, name in ((1, "exp"), (-1, "exp_neg"))}
    integrand = np.zeros(r.shape + s.grid.shape)
    # zip stops at the mode's last table, so the leading mode builds four.
    for t, table in zip(_MODE_TABLES[mode], _identity_tables(prof)):
        if not _IDENTITY_TERMS[t]:
            continue
        g = sum(c * fields[n] for n, c in _IDENTITY_TERMS[t])
        if _TABLE_POWER[t]:
            g = weights[_TABLE_POWER[t]] * g
        integrand += g * table
    return s.integrate(integrand), s.integrate(np.abs(integrand))


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
