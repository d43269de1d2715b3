import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrec import (
    CS_KINDS,
    CovarianceModel,
    OCT_KINDS,
    T_KINDS,
    DegenerateSample,
    InvalidEntry,
    InvalidInput,
    OrderingMismatch,
    ResidualTableau,
    SingularCovariance,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    commutation_matrix,
    cross_sectional_cov,
    cross_temporal_cov,
    sample_mse,
    shrink,
    temporal_cov,
)
from ctrec.covariance import _lift_to_pd, _shrink_intensity
from ctrec.reconcile import _normal_factor
from tests.conftest import (
    grouped_structure,
    random_hierarchy,
    random_residuals,
    seeded_inputs,
)


def shrink_lambda_oracle(E):
    """Pairwise-loop reference for the shrinkage intensity."""
    E = np.asarray(E, dtype=float)
    p, N = E.shape
    Z = E / np.sqrt(np.mean(E * E, axis=1))[:, None]
    num = den = 0.0
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            w = Z[i] * Z[j]
            r = w.mean()
            num += np.sum((w - r) ** 2) / ((N - 1) * N)
            den += r * r
    return min(1.0, max(0.0, num / den))


def test_sample_mse_examples():
    np.testing.assert_array_equal(sample_mse([[1.0, -1.0]]), [[1.0]])
    np.testing.assert_array_equal(sample_mse(np.zeros((3, 4))), np.zeros((3, 3)))
    np.testing.assert_array_equal(sample_mse(np.eye(2)), 0.5 * np.eye(2))


def test_shrink_diagonal_sample_unchanged():
    E = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]])
    S = sample_mse(E)
    assert abs(S[0, 1]) < 1e-15
    out, lam = shrink(S, residuals=E)
    np.testing.assert_allclose(out, S)


def test_shrink_forced_lambda():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    out, lam = shrink(S, lam=1.0)
    assert lam == 1.0
    np.testing.assert_array_equal(out, np.diag([2.0, 2.0]))
    out, lam = shrink(S, lam=5.0)  # clamped
    assert lam == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shrink_rejects_a_non_finite_intensity(bad):
    with pytest.raises(InvalidInput, match="shrinkage intensity must be finite"):
        shrink(np.array([[2.0, 1.0], [1.0, 2.0]]), lam=bad)


def test_shrink_two_by_two_hand_case():
    E = np.array([[1.0, -0.8, 0.6, 1.2], [0.9, -1.1, 0.2, 0.7]])
    S = sample_mse(E)
    out, lam = shrink(S, residuals=E)
    expected = shrink_lambda_oracle(E)
    assert lam == pytest.approx(expected, rel=1e-12)
    assert 0.0 < lam < 1.0
    assert abs(out[0, 1]) < abs(S[0, 1])
    np.testing.assert_array_equal(np.diag(out), np.diag(S))


def test_shrink_degenerate():
    with pytest.raises(DegenerateSample):
        shrink(np.diag([1.0, 0.0]), lam=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moment_estimators_reject_non_finite_entries(bad):
    E = np.array([[1.0, -0.5, 0.25], [0.5, 2.0, -1.0]])
    S = sample_mse(E)
    E_bad, S_bad = E.copy(), S.copy()
    E_bad[1, 2] = bad
    S_bad[0, 1] = S_bad[1, 0] = bad
    with pytest.raises(InvalidEntry, match="residual matrix"):
        sample_mse(E_bad)
    with pytest.raises(InvalidEntry, match="sample matrix"):
        shrink(S_bad, lam=0.5)
    with pytest.raises(InvalidEntry, match="sample matrix"):
        shrink([[1.0, bad], [bad, 2.0]], residuals=E)
    for lam in (None, 0.5):
        with pytest.raises(InvalidEntry, match="residual matrix"):
            shrink(S, residuals=E_bad, lam=lam)


def test_cs_menu_basics():
    cs = build_cross_sectional(
        [[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1]]
    )
    struc = cross_sectional_cov("cs-struc", cs)
    np.testing.assert_array_equal(
        struc.diagonal(), [5.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    )
    assert struc.structure == "diagonal"
    ols = cross_sectional_cov("cs-ols", cs)
    assert ols.structure == "identity"
    np.testing.assert_array_equal(ols.dense(), np.eye(8))


def test_cs_shr_equals_wls_for_orthogonal_residuals():
    cs = build_cross_sectional([[1, 1]])
    E = np.array(
        [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]
    ) * np.array([[2.0], [1.0], [0.5]])
    shr = cross_sectional_cov("cs-shr", cs, E)
    wls = cross_sectional_cov("cs-wls", cs, E)
    np.testing.assert_allclose(shr.dense(), wls.dense(), atol=1e-14)


@pytest.mark.parametrize("kind", CS_KINDS)
def test_cs_menu_is_the_oct_menu_over_one_level(kind):
    cs = build_cross_sectional([[1, 1, 1], [1, 1, 0]])
    xts = build_cross_temporal(cs, build_temporal(1), 1)
    E = np.random.default_rng(4).standard_normal((cs.n, 12))
    oct_kind = "oct-wlsh" if kind == "cs-wls" else "oct" + kind[2:]
    np.testing.assert_array_equal(
        cross_sectional_cov(kind, cs, E).dense(),
        cross_temporal_cov(oct_kind, xts, E).dense(),
    )


def test_cs_sam_condition_named():
    cs = build_cross_sectional([[1, 1]])
    with pytest.raises(SingularCovariance, match="N > n"):
        cross_sectional_cov("cs-sam", cs, np.ones((3, 2)))


def test_t_struc_diag():
    ts = build_temporal(4)
    model = temporal_cov("t-struc", ts)
    np.testing.assert_array_equal(
        model.diagonal(), [4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    )


def zero_lag1_residuals(ts, N):
    """Per level, alternating (x, 0) sequences have zero lag-1 products."""
    rng = np.random.default_rng(0)
    cl = ts.cycle_len
    E = np.zeros((cl, N))
    for k in ts.factors:
        slc = ts.level_slice(k)
        Mk = ts.M_k[k]
        seq = np.zeros(N * Mk)
        seq[::2] = rng.uniform(1.0, 2.0, seq[::2].size)
        E[slc] = seq.reshape(N, Mk).T
    return E


def test_t_sar1_zero_rho_equals_wlsv():
    ts = build_temporal(4)
    E = zero_lag1_residuals(ts, 12)
    sar1 = temporal_cov("t-sar1", ts, E)
    wlsv = temporal_cov("t-wlsv", ts, E)
    assert all(abs(r) < 1e-12 for r in sar1.rho.values())
    np.testing.assert_allclose(sar1.dense(), wlsv.dense(), atol=1e-12)


def test_markov_family_matches_explicit_construction():
    ts = build_temporal(4)
    rng = np.random.default_rng(14)
    E = rng.standard_normal((7, 25))
    E[1:3] += 0.8 * E[1:3].mean(axis=0)  # induce some autocorrelation
    node_var = np.mean(E * E, axis=1)
    level_var = {k: float(np.mean(E[ts.level_slice(k)] ** 2)) for k in ts.factors}

    def rho_of(k):
        seq = E[ts.level_slice(k)].T.ravel()
        return float(np.dot(seq[:-1], seq[1:]) / np.dot(seq, seq))

    def gamma():
        G = np.zeros((7, 7))
        G[0, 0] = 1.0
        for k in (2, 1):
            slc = ts.level_slice(k)
            r = rho_of(k)
            size = slc.stop - slc.start
            for a in range(size):
                for b in range(size):
                    G[slc.start + a, slc.start + b] = r ** abs(a - b)
        return G

    diags = {
        "t-strar1": np.array([4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        "t-sar1": np.concatenate(
            [np.full(ts.M_k[k], level_var[k]) for k in ts.factors]
        ),
        "t-har1": node_var,
    }
    for kind, d in diags.items():
        model = temporal_cov(kind, ts, E)
        expected = np.sqrt(np.diag(d)) @ gamma() @ np.sqrt(np.diag(d))
        np.testing.assert_allclose(model.dense(), expected, atol=1e-12)
        assert set(model.rho) == {2, 1}


def test_t_acov_block_layout():
    ts = build_temporal(4)
    rng = np.random.default_rng(3)
    E = rng.standard_normal((7, 20))
    model = temporal_cov("t-acov", ts, E)
    W = model.dense()
    assert W.shape == (7, 7)
    # blocks of sizes 1, 2, 4 on the diagonal, zero elsewhere
    np.testing.assert_array_equal(W[0, 1:], 0.0)
    np.testing.assert_array_equal(W[1:3, 3:], 0.0)
    np.testing.assert_allclose(W[1:3, 1:3], sample_mse(E[1:3]), atol=1e-12)
    np.testing.assert_allclose(W[3:, 3:], sample_mse(E[3:]), atol=1e-12)


def test_t_sample_size_conditions():
    ts = build_temporal(4)
    with pytest.raises(SingularCovariance, match=r"N > k\*\+m"):
        temporal_cov("t-sam", ts, np.ones((7, 5)) + np.eye(7, 5))
    with pytest.raises(SingularCovariance, match="N > m"):
        temporal_cov("t-acov", ts, np.random.default_rng(0).normal(size=(7, 3)))


def test_t_wlsv_has_p_distinct_values():
    ts = build_temporal(4)
    rng = np.random.default_rng(7)
    E = rng.standard_normal((7, 30))
    model = temporal_cov("t-wlsv", ts, E)
    assert len(set(np.round(model.diagonal(), 12))) == ts.p


@pytest.mark.parametrize("kind", T_KINDS)
def test_t_menu_two_cycle_extension(kind):
    ts = build_temporal(4)
    rng = np.random.default_rng(31)
    E = rng.standard_normal((7, 20))
    one = temporal_cov(kind, ts, E, h=1)
    two = temporal_cov(kind, ts, E, h=2)
    assert two.size == 14
    two.require_spd()
    # restricting the two-cycle model to the first cycle's positions
    # recovers the one-cycle model
    idx = []
    off = 0
    for k in ts.factors:
        idx.extend(range(off, off + ts.M_k[k]))
        off += 2 * ts.M_k[k]
    np.testing.assert_allclose(
        two.dense()[np.ix_(idx, idx)], one.dense(), atol=1e-12
    )


def test_t_h_extension_block_structure():
    ts = build_temporal(2)
    rng = np.random.default_rng(5)
    E = rng.standard_normal((3, 30))
    base = temporal_cov("t-sam", ts, E).dense()
    ext = temporal_cov("t-sam", ts, E, h=2).dense()
    assert ext.shape == (6, 6)
    # level-blocked layout for h=2: [top c1, top c2, hf c1 (2), hf c2 (2)]
    idx1 = [0, 2, 3]  # cycle 1 positions
    idx2 = [1, 4, 5]  # cycle 2 positions
    np.testing.assert_allclose(ext[np.ix_(idx1, idx1)], base, atol=1e-14)
    np.testing.assert_allclose(ext[np.ix_(idx2, idx2)], base, atol=1e-14)
    np.testing.assert_array_equal(ext[np.ix_(idx1, idx2)], 0.0)


def cycle_interleave_permutation(ts, N):
    """Loop reference: ``perm[c*(k*+m) + u]`` is the level-blocked index of
    value ``u`` of cycle ``c``."""
    q = ts.cycle_len
    perm = np.empty(N * q, dtype=np.intp)
    off = 0  # running offset of the current level block
    u = 0  # within-cycle position
    for k in ts.factors:
        Mk = ts.M_k[k]
        for c in range(N):
            for l in range(Mk):
                perm[c * q + u + l] = off + c * Mk + l
        off += N * Mk
        u += Mk
    return perm


def extension_oracle(A, ts, h, n):
    """Dense scatter of ``h`` copies of a per-cycle ``n``-series matrix into
    the series-major, level-blocked layout."""
    cl = ts.cycle_len
    inner = cycle_interleave_permutation(ts, h)
    perm = np.empty(h * n * cl, dtype=np.intp)
    for c in range(h):
        for i in range(n):
            dst = c * (n * cl) + i * cl
            perm[dst : dst + cl] = i * h * cl + inner[c * cl : (c + 1) * cl]
    out = np.zeros((perm.size, perm.size))
    for c in range(h):
        idx = perm[c * n * cl : (c + 1) * n * cl]
        out[np.ix_(idx, idx)] = A
    return out


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("C, m", [([[1, 1]], 4), ([[1] * 6, [1, 0] * 3, [0, 1] * 3], 6)])
def test_every_model_extends_its_one_cycle_model(C, m, h):
    cs, ts = build_cross_sectional(C), build_temporal(m)
    one = build_cross_temporal(cs, ts, 1)
    many = build_cross_temporal(cs, ts, h)
    res = random_residuals(np.random.default_rng(h * m), one)
    models = [
        (temporal_cov(kind, ts, res.series_block(1)),
         temporal_cov(kind, ts, res.series_block(1), h=h), 1)
        for kind in T_KINDS
    ] + [
        (cross_temporal_cov(kind, one, res), cross_temporal_cov(kind, many, res), cs.n)
        for kind in OCT_KINDS
    ]
    for W1, Wh, n in models:
        np.testing.assert_array_equal(
            Wh.dense(), extension_oracle(W1.dense(), ts, h, n), err_msg=W1.kind
        )
        assert (Wh.lam, Wh.rho) == (W1.lam, W1.rho)
        assert Wh.structure == {"full": "block-diagonal"}.get(W1.structure, W1.structure)


def toy_xts(h=1):
    return build_cross_temporal(
        build_cross_sectional([[1, 1]], ["X", "W", "Z"]), build_temporal(4), h
    )


def test_oct_ols_and_struc(toy):
    ols = cross_temporal_cov("oct-ols", toy)
    assert ols.size == 21 and ols.structure == "identity"
    struc = cross_temporal_cov("oct-struc", toy)
    d = struc.diagonal()
    assert d[0] == 8.0
    np.testing.assert_array_equal(
        d, np.kron([2.0, 1.0, 1.0], [4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    )


def test_oct_bdsam_matches_index_oracle(toy):
    rng = np.random.default_rng(21)
    res = random_residuals(rng, toy, n_cycles=30)
    model = cross_temporal_cov("oct-bdsam", toy, res)
    W = model.dense()
    ts, n, cl = toy.ts, toy.n, toy.ts.cycle_len
    blocks = {k: sample_mse(res.level_matrix(k)) for k in ts.factors}

    def level_of(u):
        for k in ts.factors:
            slc = ts.level_slice(k)
            if slc.start <= u < slc.stop:
                return k
        raise AssertionError

    expected = np.zeros_like(W)
    for i in range(n):
        for j in range(n):
            for u in range(cl):
                for v in range(cl):
                    if u == v:
                        expected[i * cl + u, j * cl + v] = blocks[level_of(u)][i, j]
    np.testing.assert_allclose(W, expected, atol=1e-12)


def test_oct_bdshr_full_shrink_equals_wlsv(toy):
    # Orthogonal per-level rows make every off-diagonal correlation zero,
    # so each block shrinks all the way to its diagonal.
    ts = toy.ts
    cl = ts.cycle_len
    N = 8
    E = np.zeros((3 * cl, N))
    signs = np.array(
        [[1, 1, 1, 1, 1, 1, 1, 1], [1, -1, 1, -1, 1, -1, 1, -1],
         [1, 1, -1, -1, 1, 1, -1, -1]],
        dtype=float,
    )
    rng = np.random.default_rng(2)
    for u in range(cl):
        scale = rng.uniform(0.5, 2.0, 3)
        for i in range(3):
            E[i * cl + u] = signs[i] * scale[i]
    res = ResidualTableau(E, 3, ts)
    bdshr = cross_temporal_cov("oct-bdshr", toy, res)
    assert bdshr.lam == 1.0
    wlsv = cross_temporal_cov("oct-wlsv", toy, res)
    np.testing.assert_allclose(bdshr.dense(), wlsv.dense(), atol=1e-12)


def test_oct_sample_size_conditions(toy):
    rng = np.random.default_rng(6)
    small = ResidualTableau(rng.standard_normal((21, 3)), 3, toy.ts)
    with pytest.raises(SingularCovariance, match=r"N > n\(k\*\+m\)"):
        cross_temporal_cov("oct-sam", toy, small)
    with pytest.raises(SingularCovariance, match="N > n"):
        cross_temporal_cov("oct-bdsam", toy, small)
    with pytest.raises(SingularCovariance, match="N > m"):
        cross_temporal_cov("oct-acov", toy, small)


def test_oct_acov_per_series_blocks(toy):
    rng = np.random.default_rng(13)
    res = random_residuals(rng, toy, n_cycles=25)
    model = cross_temporal_cov("oct-acov", toy, res)
    W = model.dense()
    cl = toy.ts.cycle_len
    for i in range(3):
        blk = W[i * cl : (i + 1) * cl, i * cl : (i + 1) * cl]
        ti = temporal_cov("t-acov", toy.ts, res.series_block(i)).dense()
        np.testing.assert_allclose(blk, ti, atol=1e-12)
    mask = np.ones_like(W, dtype=bool)
    for i in range(3):
        mask[i * cl : (i + 1) * cl, i * cl : (i + 1) * cl] = False
    np.testing.assert_array_equal(W[mask], 0.0)


def test_parameterization_consistency(toy):
    """The series-major and time-major forms are permutation conjugates."""
    rng = np.random.default_rng(17)
    res = random_residuals(rng, toy)
    omega = cross_temporal_cov("oct-sam", toy, res).dense()
    P = toy.commutation.toarray()
    W_time = P.T @ omega @ P
    np.testing.assert_allclose(P @ W_time @ P.T, omega, atol=1e-10)
    # Diagonal of the time-major form holds the same node variances.
    np.testing.assert_allclose(np.sort(np.diag(W_time)), np.sort(np.diag(omega)))


def test_every_estimator_spd_or_named_error(toy):
    rng = np.random.default_rng(99)
    res = random_residuals(rng, toy)
    E_hf = res.level_matrix(1)
    for kind in CS_KINDS:
        model = cross_sectional_cov(kind, toy.cs, E_hf)
        model.require_spd()
        dense = model.dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        if model.lam is not None:
            assert 0.0 <= model.lam <= 1.0
    for kind in T_KINDS:
        model = temporal_cov(kind, toy.ts, res.series_block(0))
        model.require_spd()
        dense = model.dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    for kind in OCT_KINDS:
        model = cross_temporal_cov(kind, toy, res)
        model.require_spd()
        dense = model.dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        if model.lam is not None:
            assert 0.0 <= model.lam <= 1.0


def test_ridge_lift_and_indefinite_rejection():
    E = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])  # rank one
    lifted = _lift_to_pd(sample_mse(E), "test")
    np.linalg.cholesky(lifted)
    with pytest.raises(SingularCovariance):
        _lift_to_pd(np.diag([1.0, -1.0]), "test")


def test_stacked_lift_treats_each_slice_as_the_single_matrix_lift():
    good = np.array([[2.0, 0.5], [0.5, 1.0]])
    # min eigenvalue -1e-12, within the ridge tolerance of 2e-8
    borderline = np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
    alone = _lift_to_pd(borderline, "test")
    assert not np.array_equal(alone, borderline)  # the lift did act
    out = _lift_to_pd(np.stack([good, borderline, good]), "test")
    np.testing.assert_array_equal(out, np.stack([good, alone, good]))
    np.testing.assert_array_equal(_lift_to_pd(np.stack([good, good]), "test"), [good, good])
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(SingularCovariance) as single:
        _lift_to_pd(indefinite, "test")
    with pytest.raises(SingularCovariance, match=re.escape(str(single.value))):
        _lift_to_pd(np.stack([good, borderline, indefinite]), "test")


def passes_rule(values):
    """Every pivot or eigenvalue above ``p eps`` times the largest: the
    gate's rule, written out."""
    return bool(np.all(values > values.size * np.finfo(float).eps * values.max(initial=0.0)))


def cho_factor_gate(A):
    """``A`` passes when ``scipy.linalg.cho_factor`` completes and its pivots
    ``L_jj^2`` pass the rule: the gate on SciPy's factorization."""
    try:
        L = scipy.linalg.cho_factor(A, lower=True)[0]
    except scipy.linalg.LinAlgError:
        return False
    return passes_rule(np.diag(L) ** 2)


def cho_factor_lift(A, label):
    """The single-matrix lift in SciPy, slice by slice: the oracle of the
    stack gate.  A matrix whose SciPy eigenvalues fail the rule is lifted,
    and the lifted matrix must pass :func:`cho_factor_gate`."""
    A = 0.5 * (A + A.T)
    eigenvalues = scipy.linalg.eigvalsh(A)
    if passes_rule(eigenvalues):
        return A
    tr = float(np.trace(A))
    if tr <= 0:
        raise SingularCovariance(f"{label}: sample matrix has non-positive trace")
    emin = float(eigenvalues[0])
    if emin <= -1e-8 * tr:
        raise SingularCovariance(
            f"{label}: sample matrix is indefinite (min eigenvalue {emin:.3e})"
        )
    lifted = A + 1e-8 * tr * np.eye(A.shape[0])
    if not cho_factor_gate(lifted):
        raise SingularCovariance(f"{label}: matrix is not positive definite")
    return lifted


def gate_slice(rng, kind, p):
    """One ``p x p`` slice for the stack gate."""
    E = rng.standard_normal((p, p + 3))
    if kind == "spd":
        return sample_mse(E)
    if kind == "rank-deficient":  # duplicated residual rows
        return sample_mse(E[rng.integers(0, max(1, p - 1), p)])
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    lam = rng.uniform(0.5, 2.0, p)
    # Smallest eigenvalue inside the ridge tolerance, or well below it.
    scale = {"borderline": rng.uniform(0.0, 0.9) * 1e-8, "indefinite": rng.uniform(1e-6, 0.5)}
    lam[0] = -scale[kind] * lam.sum()
    return (Q * lam) @ Q.T


def lift_outcome(lift, A):
    """The lifted matrix or stack, or the message it was rejected with."""
    try:
        return lift(A, "test")
    except SingularCovariance as exc:
        return str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert isinstance(got, str) and got == expected
    else:
        np.testing.assert_array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 7),
    kinds=st.lists(
        st.sampled_from(["spd", "rank-deficient", "borderline", "indefinite"]),
        min_size=1, max_size=8,
    ),
)
def test_stack_gate_matches_the_cho_factor_lift_slice_by_slice(seed, p, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([gate_slice(rng, kind, p) for kind in kinds])
    expected = lift_outcome(lambda A, label: np.stack([cho_factor_lift(a, label) for a in A]), stack)
    with mock.patch.object(scipy.linalg, "cho_factor", wraps=scipy.linalg.cho_factor) as spy:
        got = lift_outcome(_lift_to_pd, stack)
        alone = lift_outcome(_lift_to_pd, stack[0])  # one matrix, not a stack
    assert spy.call_count == 0
    assert_same_outcome(got, expected)
    assert_same_outcome(alone, lift_outcome(cho_factor_lift, stack[0]))


def level_slice_matrix(res, k, l):
    """All series at level ``k``, within-cycle position ``l``: ``n x N``."""
    return res.values[res.ts.level_slice(k).start + l :: res.ts.cycle_len]


def series_level(res, i, k):
    """Level ``k`` residuals of series ``i``: ``N x M_k`` (cycle by row)."""
    return res.series_block(i)[res.ts.level_slice(k)].T


def test_residual_tableau_views(toy):
    ts = toy.ts
    cl = ts.cycle_len
    vals = np.arange(3 * cl * 2, dtype=float).reshape(3 * cl, 2)
    res = ResidualTableau(vals, 3, ts)
    assert res.n_cycles == 2
    np.testing.assert_array_equal(res.series_block(1), vals[cl : 2 * cl])
    lvl = res.level_matrix(2)
    assert lvl.shape == (3, 4)
    # time order: cycle 1 positions then cycle 2 positions
    np.testing.assert_array_equal(lvl[0], [vals[1, 0], vals[2, 0], vals[1, 1], vals[2, 1]])
    sl = level_slice_matrix(res, 2, 1)
    np.testing.assert_array_equal(sl[0], vals[2])
    per_series = series_level(res, 0, 2)
    assert per_series.shape == (2, 2)
    np.testing.assert_array_equal(per_series[:, 0], vals[1])


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_series_block_rejects_an_index_outside_the_series(toy, i):
    res = ResidualTableau(np.ones((2 * toy.ts.cycle_len, 3)), 2, toy.ts)
    with pytest.raises(InvalidInput, match=re.escape(f"series index {i} is outside [0, 2)")):
        res.series_block(i)


def test_menus_leave_raw_residual_arrays_writeable(toy):
    rng = np.random.default_rng(3)
    arrays = {
        "oct-wlsv": rng.standard_normal((toy.n * toy.ts.cycle_len, 30)),
        "cs-shr": rng.standard_normal((toy.n, 30)),
        "t-sar1": rng.standard_normal((toy.ts.cycle_len, 30)),
    }
    cross_temporal_cov("oct-wlsv", toy, arrays["oct-wlsv"])
    cross_sectional_cov("cs-shr", toy.cs, arrays["cs-shr"])
    temporal_cov("t-sar1", toy.ts, arrays["t-sar1"])
    arrays["ResidualTableau"] = rng.standard_normal((toy.n * toy.ts.cycle_len, 30))
    ResidualTableau(arrays["ResidualTableau"], toy.n, toy.ts)
    assert all(E.flags.writeable for E in arrays.values())


def test_ordering_mismatch(toy):
    other_ts = build_temporal(2)
    res = ResidualTableau(np.ones((3 * 3, 4)), 3, other_ts)
    with pytest.raises(OrderingMismatch):
        cross_temporal_cov("oct-wlsh", toy, res)


def test_model_leaves_caller_arrays_writeable():
    d, A, U = np.ones(3), 2.0 * np.eye(3), np.ones((3, 1))
    CovarianceModel(kind="w", structure="diagonal", size=3, diag_values=d)
    CovarianceModel(kind="w", structure="full", size=3, matrix=A)
    CovarianceModel(kind="w", structure="low-rank", size=3, diag_values=d, matrix=U)
    assert d.flags.writeable and A.flags.writeable and U.flags.writeable


NON_FINITE_PAYLOADS = {
    "diagonal": lambda bad: dict(diag_values=[1.0, bad, 2.0]),
    "full": lambda bad: dict(matrix=np.array([[2.0, bad, 0.0], [bad, 2.0, 0.0], [0.0, 0.0, 1.0]])),
    "block-diagonal": lambda bad: dict(matrix=sp.csr_matrix(np.diag([1.0, 2.0, bad]))),
    "low-rank": lambda bad: dict(diag_values=np.ones(3), matrix=np.array([[1.0], [bad], [0.0]])),
    "low-rank diagonal": lambda bad: dict(diag_values=[1.0, 1.0, bad], matrix=np.ones((3, 1))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("payload", sorted(NON_FINITE_PAYLOADS))
def test_model_rejects_non_finite_payloads(payload, bad):
    structure = payload.split()[0]
    with pytest.raises(InvalidEntry, match="w (diagonal|matrix) contains NaN or infinite"):
        CovarianceModel(kind="w", structure=structure, size=3, **NON_FINITE_PAYLOADS[payload](bad))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind", ["oct-wlsv", "oct-acov", "oct-bdshr", "oct-bdsam", "oct-sam"])
def test_overflowing_moments_raise_invalid_entry(toy, kind):
    # Finite residuals whose squares overflow: no inf reaches the SPD gate.
    E = 1e200 * random_residuals(np.random.default_rng(1), toy).values
    with pytest.raises(InvalidEntry, match="NaN or infinite"):
        cross_temporal_cov(kind, toy, E)
    with pytest.raises(InvalidEntry, match="residual moment matrix"):
        sample_mse(E)


# ---------------------------------------------------------------------------
# Shrinkage with fewer residual cycles than values: diagonal plus low rank


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(3, 40), data=st.data())
def test_gram_lambda_matches_oracle(seed, p, data):
    N = data.draw(st.integers(2, p - 1))
    E = np.random.default_rng(seed).standard_normal((p, N))
    lam = _shrink_intensity(E, np.mean(E * E, axis=1))
    assert lam == pytest.approx(shrink_lambda_oracle(E), rel=1e-10, abs=1e-14)
    dense_lam = shrink(sample_mse(E), residuals=E)[1]
    assert lam == pytest.approx(dense_lam, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("h", [1, 2])
def test_low_rank_model_matches_its_dense_form(h):
    rng = np.random.default_rng(30 + h)
    one, xts = toy_xts(1), toy_xts(h)
    E = rng.uniform(0.5, 2.0, (21, 1)) * rng.standard_normal(5) + 0.3 * (
        rng.standard_normal((21, 5))
    )
    W1, W = cross_temporal_cov("oct-shr", one, E), cross_temporal_cov("oct-shr", xts, E)
    assert W.structure == "low-rank" and 0.0 < W.lam < 1.0 and W.lam == W1.lam
    S, lam = shrink(sample_mse(E), residuals=E)
    assert lam == pytest.approx(W.lam, rel=1e-12)
    tol = 1e-14 * np.max(S)
    np.testing.assert_allclose(W1.dense(), S, rtol=0, atol=tol)
    Wd = W.dense()
    np.testing.assert_allclose(Wd, extension_oracle(S, one.ts, h, 3), rtol=0, atol=tol)
    np.testing.assert_array_equal(np.asarray(W.matrix), Wd)
    np.testing.assert_allclose(W.diagonal(), np.diag(Wd), rtol=1e-14)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    M = rng.standard_normal((W.size, 3))
    solve = _normal_factor(sp.identity(W.size), W, "W")[1]
    for B in (M, M[:, 0]):
        assert_close(W.apply(B), Wd @ B)
        assert_close(solve(B), np.linalg.solve(Wd, B))
    assert_close(W.apply(sp.csr_matrix(M)), Wd @ M)
    W.require_spd()


def test_shrinkage_edges_keep_the_dense_and_diagonal_forms(toy):
    cl = toy.ts.cycle_len
    scales = np.random.default_rng(7).uniform(0.5, 2.0, (3 * cl, 1))
    # Rows equal up to scale: no off-diagonal noise, so lam = 0 and
    # W = E E' / N has rank 1 < 21.
    same = scales * np.array([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(SingularCovariance, match="not positive definite"):
        cross_temporal_cov("oct-shr", toy, same)
    # Two independent cycles: the noise swamps the correlations, lam = 1.
    E = np.random.default_rng(0).standard_normal((3 * cl, 2))
    W = cross_temporal_cov("oct-shr", toy, E)
    assert (W.structure, W.lam) == ("diagonal", 1.0)
    np.testing.assert_allclose(W.diag_values, np.mean(E * E, axis=1), rtol=1e-15)
    # N = 21 cycles, not below the size: the dense estimate
    E = scales * np.random.default_rng(1).standard_normal((3 * cl, 3 * cl))
    W = cross_temporal_cov("oct-shr", toy, E)
    assert W.structure == "full"
    np.testing.assert_array_equal(W.dense(), shrink(sample_mse(E), residuals=E)[0])


# ---------------------------------------------------------------------------
# Reference constructions: one Python pass per series and level, sp.block_diag,
# the commutation-conjugated time-major bd* form and the sparse Markov product


def level_mse_oracle(E, ts, n):
    """Looped mean square of every series at every level, spread over the
    series' within-cycle positions."""
    cl, widths = ts.cycle_len, [ts.M_k[k] for k in ts.factors]
    return np.concatenate([
        np.repeat([np.mean(E[i * cl : (i + 1) * cl][ts.level_slice(k)] ** 2)
                   for k in ts.factors], widths)
        for i in range(n)
    ])


def lag1_oracle(x):
    denom = float(np.dot(x, x))
    if denom == 0:
        return 0.0
    cap = 1.0 - 1e-8
    return min(cap, max(-cap, float(np.dot(x[:-1], x[1:]) / denom)))


def menu_oracle(kind, family, ts, d_series, E):
    """One cycle of ``family`` for ``n = len(d_series)`` series, built as
    the estimators did before the per-level passes: ``(dense, lam, rho)``."""
    n, cl = len(d_series), ts.cycle_len
    widths = [ts.M_k[k] for k in ts.factors]
    struc = np.kron(d_series, np.repeat(ts.factors, widths)).astype(float)
    if family == "ols":
        return np.eye(n * cl), None, None
    if family == "struc":
        return np.diag(struc), None, None
    res = ResidualTableau(E, n, ts)
    wlsh, wlsv = np.mean(E * E, axis=1), level_mse_oracle(E, ts, n)
    if family in ("wlsh", "wlsv"):
        return np.diag(wlsh if family == "wlsh" else wlsv), None, None
    if family == "sam":
        return _lift_to_pd(sample_mse(E), kind), None, None
    if family == "shr":
        return (*shrink(sample_mse(E), residuals=E), None)
    if family == "acov":
        blocks = [_lift_to_pd(sample_mse(res.series_block(i)[ts.level_slice(k)]), kind)
                  for i in range(n) for k in ts.factors]
        return sp.block_diag(blocks).toarray(), None, None
    if family.startswith("bd"):
        blocks, lams = [], []  # time-major: one n x n block per position
        for k in ts.factors:
            if family == "bdsam-l":
                blocks += [_lift_to_pd(sample_mse(level_slice_matrix(res, k, l)), kind)
                           for l in range(ts.M_k[k])]
                continue
            Ek = res.level_matrix(k)
            if family == "bdshr":
                B, lam = shrink(sample_mse(Ek), residuals=Ek)
                lams.append(lam)
            else:
                B = _lift_to_pd(sample_mse(Ek), kind)
            blocks += [B] * ts.M_k[k]
        P = commutation_matrix(n, cl)
        A = P @ sp.block_diag(blocks, format="csr") @ P.T
        return A.toarray(), float(np.mean(lams)) if lams else None, None
    d = {"strar1": struc, "sar1": wlsv, "har1": wlsh}[family]
    rho = {k: lag1_oracle(E[ts.level_slice(k)].T.ravel()) for k in ts.factors[1:]}
    gamma = sp.block_diag([np.ones((1, 1))] + [
        rho[k] ** np.abs(np.subtract.outer(np.arange(ts.M_k[k]), np.arange(ts.M_k[k])))
        for k in ts.factors[1:]
    ])
    root = sp.diags(np.sqrt(d))
    return (root @ gamma @ root).toarray(), None, rho


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_every_menu_matches_its_reference_construction(m, h):
    rng = np.random.default_rng(100 * m + h)
    cs, ts = random_hierarchy(rng, n_max=6), build_temporal(m)
    xts = build_cross_temporal(cs, ts, h)
    res = random_residuals(rng, xts, n_cycles=xts.n * ts.cycle_len + 3)
    E, d_series = res.values, cs.summing_matrix @ np.ones(cs.n_b)
    one_level = build_temporal(1)
    cases = [(cross_temporal_cov(kind, xts, res), kind[4:], ts, h, d_series, E)
             for kind in OCT_KINDS]
    cases += [(temporal_cov(kind, ts, res.series_block(i), h=h), kind[2:], ts, h,
               [1.0], res.series_block(i))
              for kind in T_KINDS for i in range(xts.n)]
    cases += [(cross_sectional_cov(kind, cs, res.level_matrix(k)),
               "wlsh" if kind == "cs-wls" else kind[3:], one_level, 1, d_series,
               res.level_matrix(k))
              for kind in CS_KINDS for k in ts.factors]
    for W, family, ts_, h_, d_, E_ in cases:
        A, lam, rho = menu_oracle(W.kind, family, ts_, d_, E_)
        want = extension_oracle(A, ts_, h_, len(d_))
        got = W.dense()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), W.kind
        assert W.lam == pytest.approx(lam, rel=1e-15, abs=0), W.kind
        assert W.rho == (None if rho is None else pytest.approx(rho, rel=1e-15, abs=0))


def sparse_payload(W):
    """``W`` as a sparse matrix, its stored entries as the model holds them."""
    if W.structure == "identity":
        return sp.identity(W.size, format="csr")
    if W.structure == "diagonal":
        return sp.diags(W.diag_values, format="csr")
    return sp.csr_matrix(W.matrix if W.structure == "block-diagonal" else W.dense())


def tableau_cases(h):
    """Residual tableaux: two random structures, and the grouped (32, 4)
    hierarchy with m = 12 and naive-forecast residuals at origin 40."""
    cases = []
    for seed in (0, 1):
        rng = np.random.default_rng(300 + 10 * seed + h)
        cs = random_hierarchy(rng, n_max=7)
        xts = build_cross_temporal(cs, build_temporal(int(rng.choice([2, 4, 12]))), h)
        cases.append((xts.ts, random_residuals(rng, xts, n_cycles=xts.ts.cycle_len + 5)))
    xts = grouped_structure(32, 4, 12, h)
    cases.append((xts.ts, seeded_inputs(xts)[1]))
    return cases


# One moment matrix per series: the stacked product may round differently.
SAMPLE_KINDS = ("t-sam", "t-shr")


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("kind", T_KINDS)
def test_temporal_cov_over_a_tableau_is_each_series_model(kind, h):
    for ts, res in tableau_cases(h):
        W = temporal_cov(kind, ts, res, h=h)
        singles = [temporal_cov(kind, ts, res.series_block(i), h=h) for i in range(res.n)]
        assert (W.kind, W.size) == (kind, res.n * ts.cycle_len * h)
        got = sparse_payload(W)
        want = sp.block_diag([sparse_payload(Wi) for Wi in singles], format="csr")
        if kind in SAMPLE_KINDS:
            assert abs(got - want).max() <= 1e-15 * abs(want).max(), kind
        else:
            assert (got != want).nnz == 0, kind
        lams = [Wi.lam for Wi in singles]
        assert W.lam == (None if lams[0] is None else pytest.approx(tuple(lams), rel=1e-15))
        if singles[0].rho is not None:
            assert W.rho == {k: tuple(Wi.rho[k] for Wi in singles) for k in W.rho}


def test_temporal_cov_keeps_one_series_metadata_as_floats(toy):
    res = random_residuals(np.random.default_rng(310), toy)
    one = ResidualTableau(res.series_block(0), 1, toy.ts)
    for E in (res.series_block(0), one):
        assert isinstance(temporal_cov("t-shr", toy.ts, E).lam, float)
        assert all(isinstance(r, float) for r in temporal_cov("t-sar1", toy.ts, E).rho.values())


@pytest.mark.parametrize("h", [1, 2])
def test_t_shr_over_a_tableau_with_few_cycles_is_dense_by_series(h):
    xts = grouped_structure(8, 2, 12, h)
    res = seeded_inputs(xts, origin=14)[1]
    assert res.n_cycles < xts.ts.cycle_len
    W = temporal_cov("t-shr", xts.ts, res, h=h)
    assert W.structure == "block-diagonal"
    q = xts.width
    for i in range(xts.n):
        Wi = temporal_cov("t-shr", xts.ts, res.series_block(i), h=h)
        assert Wi.structure == "low-rank", i
        block = W.matrix[i * q : (i + 1) * q, i * q : (i + 1) * q].toarray()
        want = Wi.dense()
        assert np.max(np.abs(block - want)) <= 1e-15 * np.max(np.abs(want)), i
        assert W.lam[i] == pytest.approx(Wi.lam, rel=1e-15)
