"""Tests for the charge matrix, energy bounds, rigidity and the identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adspet import charges, geometry, initial_data, qmatrix
from adspet.charges import ChargeSet, SurfaceData, charge_surface_values, derived
from adspet.clifford import gamma
from adspet.geometry import ModelConstants, QuadratureSpec, _radial_values, sphere_grid
from adspet.initial_data import (
    AdsExactModel,
    InitialDataModel,
    OffdiagMomentumModel,
    RadialBumpModel,
    angular_factors,
    mass_aspect_grid,
    momentum_aspect_grid,
)
from adspet.qmatrix import (
    _IDENTITY_TERMS,
    _TABLE_POWER,
    _closed_form_terms,
    _identity_surface_value,
    _psd_boundary_energy,
    assemble_q,
    boundary_identity,
    det_closed_form,
    psd_check,
    rigidity_check,
    sample_momenta,
    theorem_bounds,
    third_minor_sum,
)
from adspet.spinors import KillingParams, killing_spinor_grid, profiles

K1 = ModelConstants(1.0)
Q_STD = QuadratureSpec(16, 16, 16, (4.0, 5.0, 6.0, 7.0))


def charge_set(e0=0.0, **kw):
    c = np.zeros(4)
    cp = np.zeros(4)
    j = np.zeros(6)
    order = {"12": 0, "13": 1, "14": 2, "23": 3, "24": 4, "34": 5}
    for key, val in kw.items():
        if key.startswith("c") and not key.startswith("cp"):
            c[int(key[1]) - 1] = val
        elif key.startswith("cp"):
            cp[int(key[2]) - 1] = val
        elif key.startswith("j"):
            j[order[key[1:]]] = val
    return ChargeSet(e0=e0, c=c, cp=cp, j=j)


def psd_samples(seed, n):
    """PSD-by-construction charge sets from the sampler, as one batch."""
    e0, c, cp, j, _ = sample_momenta(seed, n)
    return ChargeSet(e0=e0, c=c, cp=cp, j=j)


def sq(v):
    return np.sum(v * v, axis=-1)


def random_charge_set(rng, scale=1.0):
    return ChargeSet(
        e0=scale * rng.standard_normal(),
        c=scale * rng.standard_normal(4),
        cp=scale * rng.standard_normal(4),
        j=scale * rng.standard_normal(6),
    )


def test_assemble_pure_energy():
    q = assemble_q(charge_set(e0=2.0))
    assert np.array_equal(q, 2.0 * np.eye(4))


def test_assemble_c4_block_structure():
    q = assemble_q(charge_set(e0=2.0, c4=1.0))
    assert np.array_equal(q, np.diag([3.0, 3.0, 1.0, 1.0]))


def test_assemble_j12_in_l_block():
    q = assemble_q(charge_set(j12=1.0))
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 2] = 1j
    expect[2, 0] = -1j
    expect[1, 3] = -1j
    expect[3, 1] = 1j
    assert np.array_equal(q, expect)


def test_assemble_cp3_and_j34_diagonals():
    q = assemble_q(charge_set(cp3=1.0))
    assert np.array_equal(np.diag(q), np.array([1, -1, -1, 1], dtype=complex))
    q2 = assemble_q(charge_set(j34=1.0))
    assert np.array_equal(np.diag(q2), np.array([-1, 1, -1, 1], dtype=complex))


def test_energy_shift_is_identity_shift():
    rng = np.random.default_rng(2)
    cs = random_charge_set(rng)
    shifted = ChargeSet(e0=cs.e0 + 5.0, c=cs.c, cp=cs.cp, j=cs.j)
    assert np.allclose(assemble_q(shifted), assemble_q(cs) + 5.0 * np.eye(4))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_assembled_matrix_is_hermitian(seed):
    cs = random_charge_set(np.random.default_rng(seed))
    q = assemble_q(cs)
    assert np.array_equal(q, q.conj().T)
    # trace identity: tr Q = 4 E0
    assert np.trace(q).real == pytest.approx(4.0 * cs.e0, rel=1e-12, abs=1e-12)


def test_l_block_frobenius_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        cs = random_charge_set(rng)
        q = assemble_q(cs)
        l_block = q[:2, 2:]
        assert np.sum(np.abs(l_block) ** 2) == pytest.approx(
            derived(cs).l_squared, rel=1e-12
        )


def test_psd_check_cases():
    rep = psd_check(np.eye(4))
    assert rep.psd and rep.min_eigenvalue == pytest.approx(1.0)
    rep2 = psd_check(np.diag([1.0, 1.0, 1.0, -0.5]))
    assert not rep2.psd
    with pytest.raises(ValueError):
        psd_check(np.ones((3, 3)))
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1j  # not Hermitian
    with pytest.raises(ValueError):
        psd_check(bad)


def test_psd_minors_agree_with_eigenvalues():
    rng = np.random.default_rng(21)
    for _ in range(100):
        cs = random_charge_set(rng)
        q = assemble_q(cs)
        rep = psd_check(q)
        eig_psd = rep.min_eigenvalue >= -1e-10 * max(1.0, abs(rep.eigenvalues).max())
        assert rep.psd == eig_psd


def test_bound_equality_c4():
    rep = theorem_bounds(charge_set(e0=1.0, c4=1.0))
    assert rep.bounds[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.satisfied and abs(rep.margin) < 1e-12


def test_bound_equality_cp3():
    rep = theorem_bounds(charge_set(e0=1.0, cp3=1.0))
    assert rep.bounds[3] == pytest.approx(1.0, abs=1e-12)
    assert rep.bounds[4] == pytest.approx(1.0, abs=1e-12)
    assert rep.satisfied


def test_bound_b3_value():
    rep = theorem_bounds(charge_set(e0=1.0, cp1=1.0))
    assert rep.bounds[2] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


@pytest.mark.parametrize("e0, eigenvalues", [(1.0, [0.0, 0.0, 0.0, 4.0]),
                                               (1.1, [0.1, 0.1, 0.1, 4.1])])
def test_bounds_at_the_b2_counterexample(e0, eigenvalues):
    # c_3 = 1, c'_4 = 1, J_34 = 1: a B2 with |c|^2 in place of |c'|^2 reads
    # sqrt(3/2) here, above E0 even at E0 = 1.1, where Q is positive
    # definite.  The second-minor B2 holds, and at the PSD boundary E0 = 1
    # it is one of three bounds that reach E0.
    cs = charge_set(e0=e0, c3=1.0, cp4=1.0, j34=1.0)
    psd = psd_check(assemble_q(cs))
    assert psd.eigenvalues == pytest.approx(eigenvalues, abs=1e-12)
    assert psd.psd and (psd.min_eigenvalue > 0) == (e0 > 1)
    rep = theorem_bounds(cs)
    assert rep.bounds[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert rep.satisfied and rep.margin == pytest.approx(e0 - 1.0, abs=1e-12)


def test_second_minor_inequalities_raw_forms():
    # B1 and proof-B2 restated directly from the 2x2 principal minors:
    # E0^2 >= c4^2 + (|c|^2 + |Jhat|^2 + c'_4^2)/2  and
    # E0^2 >= (|c'|^2 + |J4|^2)/2 + (|c|^2 + |Jhat|^2 + c'_4^2)/4.
    cs = psd_samples(4, 50)
    d = derived(cs)
    raw1 = np.sqrt(
        cs.c[:, 3] ** 2 + 0.5 * (sq(d.c3) + sq(d.jhat) + cs.cp[:, 3] ** 2)
    )
    raw2 = np.sqrt(
        0.5 * (sq(d.cp3) + sq(d.j4))
        + 0.25 * (sq(d.c3) + sq(d.jhat) + cs.cp[:, 3] ** 2)
    )
    rep = theorem_bounds(cs)
    assert rep.bounds[:, 0] == pytest.approx(raw1, rel=1e-12)
    assert rep.bounds[:, 1] == pytest.approx(raw2, rel=1e-12)
    assert np.all(cs.e0 >= raw1 - 1e-9)
    assert np.all(cs.e0 >= raw2 - 1e-9)


def test_third_minor_sum_matches_eigenvalues():
    rng = np.random.default_rng(13)
    for _ in range(100):
        cs = random_charge_set(rng)
        eig = np.linalg.eigvalsh(assemble_q(cs))
        e3 = sum(
            eig[i] * eig[j] * eig[k]
            for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)
        )
        assert e3 == pytest.approx(4.0 * third_minor_sum(cs), rel=1e-10,
                                   abs=1e-10)


def test_det_closed_form_matches_eigensolver():
    rng = np.random.default_rng(31)
    for _ in range(300):
        cs = random_charge_set(rng)
        det = float(np.prod(np.linalg.eigvalsh(assemble_q(cs))))
        scale = max(abs(det), 1.0)
        assert abs(det_closed_form(cs) - det) / scale < 1e-10


def test_bounds_hold_on_psd_samples():
    cs = psd_samples(0, 400)
    rep = theorem_bounds(cs)
    assert np.all(rep.satisfied), rep.margin.min()


def test_third_minor_nonnegative_on_psd_samples():
    cs = psd_samples(1, 300)
    assert np.all(third_minor_sum(cs) >= -1e-10)
    assert np.all(det_closed_form(cs) >= -1e-8)


def test_sampler_determinism_and_prefix():
    a = sample_momenta(7, 20)
    b = sample_momenta(7, 20)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    # One generator fills the draw row by row: a shorter run is a prefix of
    # a longer one, in everything the sampler returns.
    short = sample_momenta(7, 5)
    for x, y in zip(short, a):
        assert np.array_equal(x, y[:5])
    for x, y in zip((*vars(short.terms.d).values(), *short.terms[1:]),
                    (*vars(a.terms.d).values(), *a.terms[1:])):
        assert np.array_equal(x, y[:5])


def test_sampler_boundary_cases_touch_zero():
    # Every even sample sits on the PSD boundary: min eig Q(E0) vanishes on
    # the scale of its own momenta, max|eig Q0|.
    e0, c, cp, j, delta = sample_momenta(3, 10_000)
    even = slice(0, None, 2)
    assert np.all(delta[even] == 0.0)
    c, cp, j = c[even], cp[even], j[even]
    scale = np.abs(np.linalg.eigvalsh(assemble_q(
        ChargeSet(e0=np.zeros(len(c)), c=c, cp=cp, j=j)))).max(axis=-1)
    low = np.linalg.eigvalsh(assemble_q(ChargeSet(e0=e0[even], c=c, cp=cp,
                                                  j=j)))[:, 0]
    assert np.all(np.abs(low) <= 1e-12 * scale)


def _momenta(seed, n):
    """n momentum-only sets (e0 = 0) of standard-normal momenta."""
    draw = np.random.default_rng(seed).standard_normal((n, 14))
    return ChargeSet(e0=np.zeros(n), c=draw[:, :4], cp=draw[:, 4:8],
                     j=draw[:, 8:])


def _eig_boundary(cs0):
    """-lambda_min(Q0) from LAPACK, the reference for the quartic's root."""
    return -np.linalg.eigvalsh(assemble_q(cs0))[:, 0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_boundary_energy_is_the_least_eigenvalue(seed):
    cs0 = _momenta(seed, 25_000)
    e0 = _psd_boundary_energy(cs0)
    root_a = np.sqrt(derived(cs0).a_total)
    err = e0 - _eig_boundary(cs0)
    assert np.all(np.abs(err) <= 1e-13 * root_a)
    # Newton comes from above and takes no upward step: E0 is never below
    # -lambda_min by more than the roundoff of p over p', some 30 eps
    # sqrt(A) at worst over 10^6 draws.
    assert np.all(err >= -1e-14 * root_a)
    # E0 is a root of the closed-form det Q(E0), which np.linalg.det agrees
    # with there, judged on the size (E0^2 + A)^2 of its terms.
    at_root = ChargeSet(e0=e0, c=cs0.c, cp=cs0.cp, j=cs0.j)
    size = (e0**2 + root_a**2) ** 2
    det = det_closed_form(at_root)
    assert np.all(np.abs(det) <= 1e-13 * size)
    assert np.all(np.abs(np.linalg.det(assemble_q(at_root)).real - det)
                  <= 1e-13 * size)


def _counting_eigvalsh(monkeypatch):
    """Count the calls to np.linalg.eigvalsh while monkeypatch is active."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kw):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("momenta", [
    {"c4": 1.0},                          # Q0 = diag(1, 1, -1, -1)
    {"c1": 0.3, "c2": -0.4, "c3": 1.2},   # a pure c vector
    {"j12": 1.0},
], ids=["c4", "c", "j12"])
def test_boundary_energy_at_a_double_root_takes_eigvalsh(momenta,
                                                         monkeypatch):
    # -lambda_min is a double root of det Q(E0): Newton converges only
    # linearly and stalls about 3e-9 sqrt(A) short, so these rows take the
    # guard's eigvalsh.
    for scale in (1e-60, 1e-7, 1.0, 1e9, 1e60):
        one = charge_set(**{k: scale * v for k, v in momenta.items()})
        cs0 = ChargeSet(e0=np.zeros(1), c=one.c[None], cp=one.cp[None],
                        j=one.j[None])
        want = _eig_boundary(cs0)
        with monkeypatch.context() as patch:
            calls = _counting_eigvalsh(patch)
            e0 = _psd_boundary_energy(cs0)
        assert calls == [(1, 4, 4)], scale
        root_a = math.sqrt(derived(cs0).a_total[0])
        assert abs(e0[0] - want[0]) <= 1e-13 * root_a, scale


@pytest.mark.filterwarnings("error")
def test_boundary_energy_of_zero_momenta_is_zero():
    cs0 = _momenta(5, 6)
    zero = (np.arange(6) % 2 == 0)[:, None]
    cs0 = ChargeSet(e0=cs0.e0, c=np.where(zero, 0.0, cs0.c),
                    cp=np.where(zero, 0.0, cs0.cp), j=np.where(zero, 0.0, cs0.j))
    with np.errstate(all="raise"):
        e0 = _psd_boundary_energy(cs0)
    assert np.array_equal(e0[::2], np.zeros(3))
    assert np.all(e0[1::2] > 0)


def _gathered_newton(cs0):
    """The boundary energy's Newton iteration written on the live rows only,
    gathered afresh at every step: the reference for the in-place loop."""
    d, t, s, w2 = qmatrix._momentum_terms(cs0)
    a = d.a_total
    c2, c1, c0 = -2 * a, 8 * t, a * a - 4 * (s + w2)
    x = np.sqrt(3 * a)
    flat = 1e-3 * a * np.sqrt(a)
    live = np.flatnonzero(a > 0)
    fallback = []
    for _ in range(40):
        if not live.size:
            break
        xl = x[live]
        x2 = xl * xl
        dp = (4 * x2 + 2 * c2[live]) * xl + c1[live]
        stalled = dp <= flat[live]
        fallback.append(live[stalled])
        live, xl, x2, dp = live[~stalled], xl[~stalled], x2[~stalled], dp[~stalled]
        step = ((x2 + c2[live]) * x2 + c1[live] * xl + c0[live]) / dp
        x[live] = xl - np.maximum(step, 0.0)
        live = live[step > 1e-15 * xl]
    rows = np.concatenate(fallback + [live])
    x[rows] = _eig_boundary(ChargeSet(e0=np.zeros(rows.size), c=cs0.c[rows],
                                      cp=cs0.cp[rows], j=cs0.j[rows]))
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boundary_energy_matches_the_gathered_iteration(seed):
    # Rows of zero momenta, rows at a double root (c4 alone) and rows of
    # widely scaled momenta, among standard-normal ones: every row takes
    # the same steps, and the same fallback, as on the live rows alone.
    draw = np.random.default_rng(seed).standard_normal((3000, 14))
    draw[::7] = 0.0
    draw[1::11] = 0.0
    draw[1::11, 3] = 1.0
    draw[2::13] *= 1e40
    draw[3::17] *= 1e-40
    cs0 = ChargeSet(e0=np.zeros(len(draw)), c=draw[:, :4], cp=draw[:, 4:8],
                    j=draw[:, 8:])
    assert _same_bits(_psd_boundary_energy(cs0), _gathered_newton(cs0))


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_sampler_takes_no_eigvalsh_on_gaussian_draws(seed, monkeypatch):
    calls = _counting_eigvalsh(monkeypatch)
    sample_momenta(seed, 10_000)
    assert calls == []


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_momenta(0, 0)
    # An absurd size is refused before any allocation.
    with pytest.raises(ValueError, match=r"2\*\*32"):
        sample_momenta(0, 2**32 + 1)


def test_sampler_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        sample_momenta(-1, 5)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**130])
def test_sampler_draws_are_one_generators_rows(seed):
    n = 2000
    draw = np.random.default_rng(seed).standard_normal((n, 15))
    e0, c, cp, j, delta = sample_momenta(seed, n)
    assert _same_bits(c, draw[:, 0:4])
    assert _same_bits(cp, draw[:, 4:8])
    assert _same_bits(j, draw[:, 8:14])
    assert _same_bits(delta, np.where(np.arange(n) % 2, np.abs(draw[:, 14]), 0.0))


def test_sampler_memory_peak():
    # The peak, about 3.4 MB, is the (n, 15) draw (1.2 MB) and the columns
    # of the momentum terms; an (n, 4, 4) complex Q0 for eigvalsh on every
    # row (2.56 MB) would take it past 4 MB.
    sample_momenta(1, 10)  # numpy.random, once
    tracemalloc.start()
    try:
        sample_momenta(1, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_rigidity_trivial_and_boundary():
    assert rigidity_check(charge_set(e0=0.0)).in_domain
    # zero energy with nonzero momentum is not PSD, hence out of domain
    rep = rigidity_check(charge_set(e0=0.0, c4=1.0))
    assert not rep.in_domain
    # strictly positive energy: the hypothesis never fires
    rep2 = rigidity_check(charge_set(e0=1.0))
    assert not rep2.in_domain


def test_verdicts_scale_with_the_charges():
    # A tiny momentum with zero energy is not PSD on its own scale, and
    # Q = 0 (exact AdS) is PSD, satisfies the bounds and is rigid.
    tiny = charge_set(e0=0.0, c4=1e-12)
    assert not psd_check(assemble_q(tiny)).psd
    assert not theorem_bounds(tiny).satisfied
    assert not rigidity_check(tiny).in_domain
    zero = charge_set()
    assert psd_check(assemble_q(zero)).psd
    assert theorem_bounds(zero).satisfied
    rep = rigidity_check(zero)
    assert rep.in_domain and rep.q_frobenius == 0.0
    # E0 = 1e-13 with zero momenta is Q = 1e-13 Id: the energy is the whole
    # scale of Q, so the rigidity hypothesis fails.
    rep = rigidity_check(charge_set(e0=1e-13))
    assert not rep.in_domain
    # Every verdict is invariant under scaling all charges together: PSD
    # samples, and the same samples with min eig Q = -1e-3.
    e0, c, cp, j, delta = sample_momenta(9, 40)
    for e, psd in ((e0, True), (e0 - delta - 1e-3, False)):
        base = ChargeSet(e0=e, c=c, cp=cp, j=j)
        assert np.all(psd_check(assemble_q(base)).psd == psd)
        satisfied = theorem_bounds(base).satisfied
        in_domain = rigidity_check(base).in_domain
        for scale in (1e-15, 1e-9, 1e-3, 1e3):
            scaled = ChargeSet(e0=scale * e, c=scale * c, cp=scale * cp,
                               j=scale * j)
            assert np.all(psd_check(assemble_q(scaled)).psd == psd), scale
            assert np.array_equal(theorem_bounds(scaled).satisfied,
                                  satisfied), scale
            assert np.array_equal(rigidity_check(scaled).in_domain,
                                  in_domain), scale


def _mixed_batch(n=200):
    """Sampler draws with every verdict represented: PSD (boundary and
    interior), negative energy, and the zero set."""
    e0, c, cp, j, _ = sample_momenta(17, n)
    kind = np.arange(n) % 5
    e0 = np.where(kind == 3, -e0, e0)
    zero = (kind == 4)[:, None]
    return ChargeSet(e0=np.where(kind == 4, 0.0, e0), c=np.where(zero, 0.0, c),
                     cp=np.where(zero, 0.0, cp), j=np.where(zero, 0.0, j))


def _assert_same(batched, single, what, scale=None):
    """batched agrees with single to 1e-12 of scale, by default |single|."""
    batched = np.asarray(batched)
    single = np.asarray(single)
    if single.dtype == bool:
        assert np.array_equal(batched, single), what
        return
    if scale is None:
        scale = np.abs(single).max()
    assert np.all(np.abs(batched - single) <= 1e-12 * scale), what


def test_batched_arithmetic_matches_each_set_alone():
    cs = _mixed_batch()
    d = derived(cs)
    q = assemble_q(cs)
    psd = psd_check(q)
    bounds = theorem_bounds(cs)
    third = third_minor_sum(cs)
    det = det_closed_form(cs)
    rigid = rigidity_check(cs)
    assert q.shape == (200, 4, 4)
    assert not np.all(psd.psd) and np.any(psd.psd)
    assert np.any(rigid.in_domain)
    for i in range(200):
        one = ChargeSet(e0=float(cs.e0[i]), c=cs.c[i], cp=cs.cp[i], j=cs.j[i])
        d1 = derived(one)
        for name in ("jhat", "j4", "c3", "cp3", "l_squared", "a_total"):
            _assert_same(getattr(d, name)[i], getattr(d1, name), (i, name))
        q1 = assemble_q(one)
        _assert_same(q[i], q1, (i, "q"))
        p1 = psd_check(q1)
        assert isinstance(p1.psd, bool)
        for name in ("psd", "min_eigenvalue", "eigenvalues", "leading_minors"):
            _assert_same(getattr(psd, name)[i], getattr(p1, name), (i, name))
        b1 = theorem_bounds(one)
        assert isinstance(b1.satisfied, bool)
        for name in ("bounds", "f", "f_plus", "w", "e0", "satisfied", "margin"):
            _assert_same(getattr(bounds, name)[i], getattr(b1, name), (i, name))
        # At a PSD-boundary sample det Q vanishes, and the third-minor sum
        # can be small: each is then roundoff on terms of size
        # |E0| (E0^2 + A) and (E0^2 + A)^2, and judged on that size.
        size = cs.e0[i] ** 2 + d.a_total[i]
        _assert_same(third[i], third_minor_sum(one), (i, "third"),
                     abs(cs.e0[i]) * size)
        _assert_same(det[i], det_closed_form(one), (i, "det"), size**2)
        r1 = rigidity_check(one)
        assert isinstance(r1.in_domain, bool)
        for name in ("in_domain", "q_frobenius"):
            _assert_same(getattr(rigid, name)[i], getattr(r1, name), (i, name))


def test_charge_set_batch_shapes_must_agree():
    with pytest.raises(ValueError):
        ChargeSet(e0=np.zeros(3), c=np.zeros((2, 4)), cp=np.zeros((3, 4)),
                  j=np.zeros((3, 6)))
    with pytest.raises(ValueError):
        ChargeSet(e0=0.0, c=np.zeros(5), cp=np.zeros(4), j=np.zeros(6))
    batch = ChargeSet(e0=np.zeros(3), c=np.zeros((3, 4)), cp=np.zeros((3, 4)),
                      j=np.zeros((3, 6)))
    assert batch.e0.shape == (3,) and batch.values().shape == (3, 15)
    one = charge_set(e0=1.0)
    assert isinstance(one.e0, float) and one.c.shape == (4,)
    assert one.values().shape == (15,)


def test_boundary_identity_leading_mode():
    model = RadialBumpModel(m=0.1, sigma=4.0, constants=K1)
    lam = KillingParams(1.0, 0.0, 0.0, 0.0)
    rep = boundary_identity(model, lam, Q_STD, "leading")
    assert not rep.diverged
    assert rep.gap < 1e-8
    # for the first basis parameter the quadratic form picks out 8 pi E0
    assert rep.rhs == pytest.approx(8.0 * math.pi * 15.0 * math.pi * 0.1 / 128.0,
                                    rel=1e-8)


def test_boundary_identity_exact_mode_random_lambda():
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                 constants=K1)
    rng = np.random.default_rng(6)
    lam = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    rep = boundary_identity(model, lam, Q_STD, "exact")
    assert not rep.diverged
    assert rep.gap < 1e-8


# lhs of boundary_identity for the offdiag case of
# test_boundary_identity_exact_mode_random_lambda, from the code that
# integrated each term of the integrand separately.
FROZEN_IDENTITY_LHS = {"leading": -0.0228480063745956,
                       "exact": -0.022848006372007967}


@pytest.mark.parametrize("mode", ["leading", "exact"])
def test_boundary_identity_lhs_frozen(mode):
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                 constants=K1)
    rng = np.random.default_rng(6)
    lam = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    lhs = boundary_identity(model, lam, Q_STD, mode).lhs
    frozen = FROZEN_IDENTITY_LHS[mode]
    assert abs(lhs - frozen) <= 1e-12 * abs(frozen)


def test_exact_identity_memory_peak():
    # The integrand is summed in a workspace kept per shape, with the node
    # weights folded into each table: an exact-mode call at 16^3 peaks at
    # about 0.57 MiB, most of it the four complex spinor profiles.  One
    # (4,) + grid temporary per table (128 KiB), as a product of a
    # coefficient and a table or of the integrand and the weights, would
    # take it past 0.625 MiB; it read 0.86-0.99 MiB with those temporaries.
    model = OffdiagMomentumModel(q=0.05, axis=2, profile="sin_theta",
                                 constants=K1)
    rng = np.random.default_rng(6)
    lam = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    boundary_identity(model, lam, Q_STD, "exact")  # caches and workspace
    tracemalloc.start()
    try:
        boundary_identity(model, lam, Q_STD, "exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.625 * 2**20


def test_boundary_identity_mode_validation():
    model = RadialBumpModel(m=0.1, constants=K1)
    with pytest.raises(ValueError):
        boundary_identity(model, KillingParams(1, 0, 0, 0), Q_STD, "bogus")


def test_boundary_identity_evaluates_each_surface_once(monkeypatch):
    # One pass gives both the charges and the identity's base-grid data:
    # one model evaluation per grid, every radius at once.  The
    # Killing-spinor profiles are built once per call, and the mass aspect
    # does not build the spin connection.
    class CountingBump(RadialBumpModel):
        calls = 0

        def a_and_da(self, r, theta, psi, phi):
            CountingBump.calls += 1
            return super().a_and_da(r, theta, psi, phi)

    profile_calls = []

    def counting_profiles(*args):
        profile_calls.append(args)
        return profiles(*args)

    def no_connection(*args):
        raise AssertionError("spin_connection_grid called")

    monkeypatch.setattr(qmatrix, "profiles", counting_profiles)
    for module in (geometry, initial_data):
        monkeypatch.setattr(module, "spin_connection_grid", no_connection,
                            raising=False)
    model = CountingBump(m=0.1, constants=K1)
    grid = sphere_grid(8, 8, 8)
    nodes = (5.0, grid.theta, grid.psi, grid.phi)
    e1 = mass_aspect_grid(*model.a_and_da(*nodes), nodes[0],
                          angular_factors(*nodes[1:3]), K1)
    assert e1.shape == (8, 8, 1)
    for mode in ("leading", "exact"):
        CountingBump.calls = 0
        profile_calls.clear()
        rep = boundary_identity(model, KillingParams(1.0, 0.5j, 0.0, -0.3), Q_STD, mode)
        assert rep.gap < 1e-8
        assert CountingBump.calls == 2
        assert len(profile_calls) == 1, mode


def test_identity_gap_keeps_its_scale_at_tiny_amplitudes():
    # lhs and rhs are linear in the amplitude, so the gap of one lambda is
    # the same at every amplitude; no absolute floor may shrink it.
    lam = KillingParams(1.0, 0.5j, -0.3, 0.0)
    quad = QuadratureSpec(8, 8, 8, (4.0, 5.0, 6.0, 7.0))
    for mode in ("leading", "exact"):
        gaps = [boundary_identity(OffdiagMomentumModel(q, 2, "sin_theta", constants=K1),
                                  lam, quad, mode).gap
                for q in (1e-5, 1e-15, 1e-25, 1e-35)]
        assert 0 < min(gaps) and max(gaps) < 1e-5, gaps
        assert max(gaps) <= 1.01 * min(gaps), (mode, gaps)


def test_identity_of_vanishing_data_is_zero():
    # Every charge of this model vanishes, and the surface integral stays at
    # quadrature roundoff of its absolute integral at every radius: it is
    # zero, as a negligible charge is, and its noise is not fitted.
    model = OffdiagMomentumModel(q=0.2, axis=4, profile="cos_psi", constants=K1)
    vals = [0.3, -1.1, 0.7, 0.2, -0.5, 0.9, 1.3, -0.4]
    lam = KillingParams(*(complex(re, im) for re, im in zip(vals[::2], vals[1::2])))
    for mode in ("leading", "exact"):
        rep = boundary_identity(model, lam, Q_STD, mode)
        assert (rep.lhs, rep.rhs, rep.gap, rep.diverged) == (0.0, 0.0, 0.0, False)


# Grid node counts, and the data shapes (a, e_1, P_k1) of hand-built surface
# data: constant, varying along some angles, and full.
GRID = (6, 8, 10)
SURFACE_SHAPES = [
    ((1, 1, 1),) * 3,
    ((6, 8, 1),) * 3,
    ((1, 1, 10),) * 3,
    ((6, 8, 10),) * 3,
    ((1, 1, 1), (6, 8, 1), (1, 1, 10)),
]


def _surface_data(shapes, radii, rng):
    """Hand-built surface data of the given shapes (a, e_1, P_k1) at a radius
    or an array of radii.  With several radii, e_1 and P_k1 vary with r and
    a has a radius axis of length 1, which holds at every radius."""
    a_shape, e_shape, p_shape = shapes
    lead = np.shape(radii)
    a = 0.1 * rng.standard_normal((1,) * len(lead) + a_shape + (4, 4))
    e1 = rng.standard_normal(lead + e_shape)
    p1 = rng.standard_normal((4,) + lead + p_shape)
    grid = sphere_grid(*GRID)
    return SurfaceData(r=radii, grid=grid, constants=K1, a=a, e1=e1, p1=p1,
                       values=np.zeros(lead + (15,)),
                       scales=np.zeros(lead + (15,)))


def _at_radius(s, i):
    """The surface data of radius i of a batch, as data of one radius."""
    lead = np.shape(s.r)
    fields = [np.broadcast_to(f, head + lead + f.shape[len(head) + len(lead):])
              [(slice(None),) * len(head) + i]
              for f, head in ((s.a, ()), (s.e1, ()), (s.p1, (4,)))]
    return SurfaceData(np.asarray(s.r)[i], s.grid, s.constants, *fields,
                       values=np.zeros(15), scales=np.zeros(15))


@pytest.mark.parametrize(
    "shapes,radii",
    [(shapes, 5.0) for shapes in SURFACE_SHAPES]
    + [(shapes, (4.0, 5.5, 7.0)) for shapes in SURFACE_SHAPES],
    ids=[f"shapes{i}" for i in range(len(SURFACE_SHAPES))]
    + [f"shapes{i}-radii" for i in range(len(SURFACE_SHAPES))])
def test_exact_identity_matches_the_nine_bilinears(shapes, radii):
    # The exact-mode integrand as the sum of nine spinor bilinears
    # <Phi, M Phi>, each evaluated at every node, against the one Hermitian
    # form built at the data's own shape.  A batch of radii is one call,
    # and each of its radii is checked against the oracle at that radius.
    rng = np.random.default_rng(sum(map(sum, shapes)))
    radii = radii if np.ndim(radii) == 0 else np.array(radii)
    batch = _surface_data(shapes, radii, rng)
    grid = batch.grid
    lam = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    values, abs_values = map(np.asarray, _identity_surface_value(batch, lam, "exact"))
    assert values.shape == abs_values.shape == np.shape(radii)

    for i in np.ndindex(np.shape(radii)):
        s = _at_radius(batch, i)
        a, e1, p1, r = s.a, s.e1, s.p1, s.r
        spinor = killing_spinor_grid(lam, r, grid.theta, grid.psi, grid.phi, K1)
        mats = ([np.eye(4)] + [gamma(k) for k in range(1, 5)]
                + [gamma(0) @ gamma(k) for k in range(1, 5)])
        bil = [np.einsum("a...,ab,b...->...", np.conj(spinor), m, spinor)
               for m in mats]
        tra = np.trace(a, axis1=-2, axis2=-1)
        coeff = [K1.kappa * (a[..., k, 0] - ((k == 0) + a[..., k, 0]) * tra)
                 for k in range(4)]
        integrand = (0.25 * (e1 + coeff[0]) * bil[0]
                     + 0.25j * sum(c * b for c, b in zip(coeff, bil[1:5]))
                     - 0.5 * sum(p * b for p, b in zip(p1, bil[5:])))
        expected = s.grid.integrate(integrand, s.r, K1)
        expected_abs = s.grid.integrate(np.abs(integrand), s.r, K1)

        assert expected_abs > 0
        assert abs(values[i] - expected) <= 1e-12 * expected_abs
        assert abs(abs_values[i] - expected_abs) <= 1e-12 * expected_abs


@pytest.mark.parametrize("shapes", SURFACE_SHAPES)
def test_leading_identity_is_the_old_formula(shapes):
    # The leading mode is the e^{kappa r} part of the exact integrand; the
    # formula it replaced, at each radius:
    #   e^{kappa r} (0.5 e_1 (|u+|^2 + |v+|^2) + P_21 (|u+|^2 - |v+|^2)
    #                + 2 P_31 Im(conj(u+) v+) + 2 P_41 Re(conj(u+) v+)).
    rng = np.random.default_rng(sum(map(sum, shapes)) + 1)
    radii = np.array([4.0, 5.0, 6.0, 7.0])
    batch = _surface_data(shapes, radii, rng)
    grid = batch.grid
    lam = KillingParams(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    prof = profiles(lam, grid.theta, grid.psi, grid.phi)
    values, abs_values = _identity_surface_value(batch, lam, "leading")

    up, _, vp, _ = prof
    uu, vv, uv = np.abs(up) ** 2, np.abs(vp) ** 2, np.conj(up) * vp
    for i in np.ndindex(radii.shape):
        s = _at_radius(batch, i)
        _, p21, p31, p41 = s.p1
        integrand = (0.5 * s.e1 * (uu + vv) + p21 * (uu - vv)
                     + 2 * p31 * uv.imag + 2 * p41 * uv.real)
        integrand = integrand * math.exp(K1.kappa * s.r)
        expected = s.grid.integrate(integrand, s.r, K1)
        expected_abs = s.grid.integrate(np.abs(integrand), s.r, K1)
        assert expected_abs > 0
        assert abs(values[i] - expected) <= 1e-12 * expected_abs
        assert abs(abs_values[i] - expected_abs) <= 1e-12 * expected_abs


@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
def test_closed_forms_round_as_numpy_vector_ops(batch):
    # The cross and dot products are written per component in the order of
    # operations of np.cross and np.sum over a last axis of length 3, so the
    # closed forms are bit-identical to the vectorised formulas below.
    rng = np.random.default_rng(len(batch))
    draw = (rng.standard_normal(batch + (15,))
            * 10.0 ** rng.uniform(-3, 3, batch + (15,)))
    cs = ChargeSet(e0=draw[..., 14], c=draw[..., :4], cp=draw[..., 4:8],
                   j=draw[..., 8:14])
    d = derived(cs)

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    c4, p4 = cs.c[..., 3], cs.cp[..., 3]
    cxcp = np.cross(d.c3, d.cp3)
    cxj = np.cross(d.c3, d.jhat)
    cpxj = np.cross(d.cp3, d.jhat)
    pair = c4[..., None] * d.cp3 - p4[..., None] * d.c3
    t = p4 * dot(d.c3, d.j4) - c4 * dot(d.cp3, d.j4) + dot(cxcp, d.jhat)
    s = (dot(cxcp, cxcp) + dot(cpxj, cpxj)
         + dot(d.j4, d.c3) ** 2 + dot(d.j4, d.cp3) ** 2 + dot(d.j4, d.jhat) ** 2
         + dot(d.j4, d.j4) * (c4**2 + p4**2)
         + 2 * c4 * dot(cxj, d.j4) + 2 * p4 * dot(cpxj, d.j4))
    w2 = dot(pair, pair) + dot(cxj, cxj)
    c3_sq, cp3_sq, jhat_sq, j4_sq = (dot(v, v) for v in (d.c3, d.cp3, d.jhat, d.j4))
    cp4_sq = cs.cp[..., 3] ** 2
    l_squared = 2.0 * (c3_sq + jhat_sq + cp4_sq)
    a_total = cs.c[..., 3] ** 2 + cp4_sq + c3_sq + cp3_sq + jhat_sq + j4_sq

    for got, want in zip(_closed_form_terms(cs, d) + (d.l_squared, d.a_total),
                         (t, s, w2, l_squared, a_total)):
        assert np.shape(got) == batch and np.array_equal(got, want)


class _EveryFieldModel(InitialDataModel):
    """a and h with every frame component nonzero, decaying as
    e^{-4 kappa r}, h varying with theta and phi: each of the identity's nine
    fields is nonzero, so nothing can be skipped."""

    name = "every_field"
    A = 0.1 * (np.arange(16.0).reshape(4, 4) % 5 + 1)
    H = 0.05 * (np.arange(16.0).reshape(4, 4) % 3 - 0.5)
    A, H = A + A.T, H + H.T

    def __init__(self):
        super().__init__(4.0, K1)

    def a(self, r, theta, psi, phi):
        return np.exp(-4.0 * r)[..., None, None] * self.A

    def h(self, r, theta, psi, phi):
        f = np.exp(-4.0 * r) * (1 + np.cos(theta) * np.sin(phi))
        return f[..., None, None] * self.H


# The four model kinds of the benchmark, and data with nothing to skip.
IDENTITY_MODELS = {
    "ads_exact": AdsExactModel(K1),
    "radial_bump": RadialBumpModel(m=0.1, constants=K1),
    "offdiag_sin_theta": OffdiagMomentumModel(0.05, 2, "sin_theta", constants=K1),
    "offdiag_sin_phi": OffdiagMomentumModel(0.05, 2, "sin_phi", constants=K1),
    "every_field": _EveryFieldModel(),
}


def _identity_full_sum(model, lam, mode, radii):
    """The identity integrals of a model on the 16^3 grid, written out: the
    surface fields evaluated whether zero or not, and the sixteen-table sum
    with every term, in the order of operations of the identity."""
    k = model.constants
    grid = sphere_grid(16, 16, 16)
    r = np.array(radii)
    nodes = (r.reshape(-1, 1, 1, 1), grid.theta, grid.psi, grid.phi)
    a, da = model.a_and_da(*nodes)
    e1 = mass_aspect_grid(a, da, nodes[0], angular_factors(grid.theta, grid.psi), k)
    p1 = momentum_aspect_grid(a, model.h(*nodes))
    tra = np.einsum("...ii->...", a)
    coeff_a = k.kappa * np.moveaxis(
        a[..., :, 0] - (np.eye(4)[0] + a[..., :, 0]) * tra[..., None], -1, 0)
    fields = (e1, *coeff_a, *p1)
    up, um, vp, vm = profiles(lam, grid.theta, grid.psi, grid.phi)
    tables = []
    for x0, x1 in ((up, vp), (um, vm)):
        x01 = np.conj(x0) * x1
        tables += [np.abs(x0) ** 2, np.abs(x1) ** 2, x01.real, x01.imag]
    for x in (up, vp):
        for y in (um, vm):
            xy = np.conj(x) * y
            tables += [xy.real, xy.imag]
    weight = {p: _radial_values(name, r, k, "").reshape(-1, 1, 1, 1)
              for p, name in ((1, "exp"), (-1, "exp_neg"))}
    integrand = np.zeros(r.shape + grid.shape)
    for t in range(4 if mode == "leading" else 16):
        if _IDENTITY_TERMS[t]:
            g = sum(c * fields[n] for n, c in _IDENTITY_TERMS[t])
            if _TABLE_POWER[t]:
                g = weight[_TABLE_POWER[t]] * g
            integrand += g * tables[t]
    integrand *= grid.weights
    area = _radial_values("area", r, k, "")
    return (np.sum(integrand, axis=(-3, -2, -1)) * area,
            np.sum(np.abs(integrand), axis=(-3, -2, -1)) * area)


@pytest.mark.parametrize("mode", ["leading", "exact"])
@pytest.mark.parametrize("kind", IDENTITY_MODELS)
def test_pruned_identity_is_the_full_sum_bit_for_bit(kind, mode):
    # Dropping the terms of exactly-zero fields, the tables no term reads,
    # and the aspects of exactly-zero sources only ever drops exact zeros.
    model = IDENTITY_MODELS[kind]
    radii = (4.0, 5.0, 6.0, 7.0)
    lam = KillingParams(0.3 - 1.1j, 0.7 + 0.2j, -0.5 + 0.9j, 1.3 - 0.4j)
    surface = charge_surface_values(model, np.array(radii), 16, 16, 16)
    got = _identity_surface_value(surface, lam, mode)
    want = _identity_full_sum(model, lam, mode, radii)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (4,) and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes(), (g, w)
    assert (np.any(want[1] > 0)) == (kind != "ads_exact")


@pytest.mark.parametrize("kind,mass,momentum,profile_calls", [
    ("ads_exact", 0, 0, 0),
    ("radial_bump", 2, 0, 1),
    ("offdiag_sin_theta", 0, 2, 1),
    ("every_field", 2, 2, 1),
])
def test_zero_sources_are_not_evaluated(kind, mass, momentum, profile_calls,
                                        monkeypatch):
    # Per identity op: the mass aspect only where a is not exactly zero, the
    # momentum aspect only where h is not, once per grid each, and the
    # spinor profiles only where some term of the integrand is left.
    calls = {"mass": 0, "momentum": 0, "profiles": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(charges, "mass_aspect_grid",
                        counted("mass", mass_aspect_grid))
    monkeypatch.setattr(charges, "momentum_aspect_grid",
                        counted("momentum", momentum_aspect_grid))
    monkeypatch.setattr(qmatrix, "profiles", counted("profiles", profiles))
    lam = KillingParams(1.0, 0.5j, -0.3, 0.2 + 0.1j)
    for mode in ("leading", "exact"):
        for name in calls:
            calls[name] = 0
        rep = boundary_identity(IDENTITY_MODELS[kind], lam, Q_STD, mode)
        assert calls == {"mass": mass, "momentum": momentum,
                         "profiles": profile_calls}, mode
        if kind == "ads_exact":
            assert (rep.lhs, rep.rhs, rep.gap, rep.diverged) == (0.0, 0.0, 0.0, False)
