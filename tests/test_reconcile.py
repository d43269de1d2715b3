import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctrec import (
    CS_KINDS,
    T_KINDS,
    CovarianceModel,
    HeuristicConfig,
    InvalidEntry,
    ResidualTableau,
    SingularSystem,
    bottom_up,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    coherence_report,
    cross_sectional_cov,
    cross_temporal_cov,
    generate_coherent,
    iterative,
    ka_two_step,
    naive_base_forecasts,
    project,
    project_structural,
    reconcile_cross_sectional,
    reconcile_cross_sectional_tableau,
    reconcile_cross_temporal,
    reconcile_temporal,
    reconciled_covariance,
    temporal_cov,
)
from ctrec.reconcile import _projectors, projector
from tests.conftest import random_residuals, random_structure


def identity_w(size):
    return CovarianceModel(kind="ols", structure="identity", size=size)


def random_spd_w(rng, size):
    A = rng.normal(size=(size, size))
    return CovarianceModel(
        kind="sam", structure="full", size=size, matrix=A @ A.T + size * np.eye(size)
    )


def kkt_oracle(y, W_dense, K):
    """Equality-constrained least squares by one dense KKT solve."""
    r, s = K.shape
    Winv = np.linalg.inv(W_dense)
    lhs = np.block([[Winv, K.T], [K, np.zeros((r, r))]])
    rhs = np.concatenate([Winv @ y, np.zeros(r)])
    return np.linalg.solve(lhs, rhs)[:s]


def test_single_sum_projection():
    cs = build_cross_sectional([[1, 1]], ["A", "B", "C"])
    res = project(np.array([10.0, 4.0, 5.0]), identity_w(3), cs.kernel)
    np.testing.assert_allclose(res.y_tilde, [29 / 3, 13 / 3, 16 / 3], rtol=1e-14)
    np.testing.assert_array_equal(res.coherency_errors_before, [-1.0])
    assert res.diagnostics["constraint_residual"] <= 1e-12


def test_project_fixes_coherent_points(toy):
    rng = np.random.default_rng(0)
    y = bottom_up(rng.normal(size=(2, 4)), toy).vec_by_variable
    res = project(y, identity_w(21), toy.kernel)
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-12)


def test_project_matches_kkt_oracle(toy):
    rng = np.random.default_rng(42)
    y = rng.normal(size=21)
    W = random_spd_w(rng, 21)
    res = project(y, W, toy.kernel)
    expected = kkt_oracle(y, W.dense(), toy.kernel.toarray())
    np.testing.assert_allclose(res.y_tilde, expected, rtol=1e-9, atol=1e-9)


def test_structural_matches_projection():
    cs = build_cross_sectional([[1, 1]], ["A", "B", "C"])
    y = np.array([10.0, 4.0, 5.0])
    via_kernel = project(y, identity_w(3), cs.kernel).y_tilde
    via_struct = project_structural(y, identity_w(3), cs.summing_matrix).y_tilde
    np.testing.assert_allclose(via_struct, via_kernel, rtol=1e-12)


def test_structural_fixed_point_and_beta():
    cs = build_cross_sectional([[1, 1, 0], [0, 1, 1]])
    rng = np.random.default_rng(5)
    beta = rng.normal(size=3)
    y = cs.summing_matrix @ beta
    res = project_structural(y, identity_w(5), cs.summing_matrix)
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-12)
    np.testing.assert_allclose(res.diagnostics["beta"], beta, atol=1e-12)


def test_structural_precision_pins_a_series():
    # A tiny variance on one bottom series pins its forecast.
    cs = build_cross_sectional([[1, 1]], ["A", "B", "C"])
    y = np.array([10.0, 4.0, 5.0])
    W = CovarianceModel(
        kind="w", structure="diagonal", size=3, diag_values=np.array([1.0, 1e-8, 1.0])
    )
    res = project_structural(y, W, cs.summing_matrix)
    assert abs(res.y_tilde[1] - 4.0) < 1e-6
    expected = kkt_oracle(y, W.dense(), cs.kernel)
    np.testing.assert_allclose(res.y_tilde, expected, rtol=1e-8)


def test_structural_equivalence_cross_temporal(toy):
    rng = np.random.default_rng(7)
    y = rng.normal(size=21)
    W = random_spd_w(rng, 21)
    QS = toy.struct_perm @ toy.struct_summing
    via_kernel = project(y, W, toy.kernel).y_tilde
    via_struct = project_structural(y, W, QS).y_tilde
    np.testing.assert_allclose(via_struct, via_kernel, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_equivalence_random_small(seed):
    rng = np.random.default_rng(seed)
    xts = random_structure(rng, n_max=4, m_choices=(2, 4), h_choices=(1,))
    while xts.size > 40:
        xts = random_structure(rng, n_max=4, m_choices=(2,), h_choices=(1,))
    y = rng.normal(size=xts.size)
    W = random_spd_w(rng, xts.size)
    got = project(y, W, xts.kernel).y_tilde
    expected = kkt_oracle(y, W.dense(), xts.kernel.toarray())
    denom = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got - expected)) / denom <= 1e-9
    via_struct = project_structural(
        y, W, xts.struct_perm @ xts.struct_summing
    ).y_tilde
    assert np.max(np.abs(via_struct - expected)) / denom <= 1e-8


def test_projection_idempotent(toy):
    rng = np.random.default_rng(3)
    res = random_residuals(rng, toy)
    y = rng.normal(size=21)
    first = reconcile_cross_temporal(
        y.reshape(3, 7), toy, "oct-shr", res
    ).tableau
    second = reconcile_cross_temporal(first, toy, "oct-shr", res).tableau
    scale = np.max(np.abs(first.values))
    assert np.max(np.abs(second.values - first.values)) <= 1e-10 * scale


def test_cross_sectional_columnwise():
    cs = build_cross_sectional([[1, 1]])
    rng = np.random.default_rng(8)
    Y = rng.normal(size=(3, 5))
    out = reconcile_cross_sectional(Y, cs, "cs-ols")
    assert np.max(np.abs(cs.kernel @ out)) <= 1e-12
    # columns are handled independently
    single = reconcile_cross_sectional(Y[:, [2]], cs, "cs-ols")
    np.testing.assert_allclose(single[:, 0], out[:, 2])


def test_cross_sectional_tableau_discrepancies(toy):
    rng = np.random.default_rng(9)
    tab = toy.tableau(rng.normal(size=(3, 7)))
    out = reconcile_cross_sectional_tableau(tab, "cs-ols")
    d_cs, d_te = coherence_report(out, toy)
    assert d_cs <= 1e-10
    assert d_te > 1e-3


def test_temporal_rowwise_discrepancies(toy):
    rng = np.random.default_rng(10)
    tab = toy.tableau(rng.normal(size=(3, 7)))
    out = reconcile_temporal(tab, "t-ols")
    d_cs, d_te = coherence_report(out, toy)
    assert d_te <= 1e-10
    assert d_cs > 1e-3
    # coherent rows plus kernel-null perturbations stay untouched
    base = bottom_up(rng.normal(size=(2, 4)), toy)
    out2 = reconcile_temporal(base, "t-ols")
    np.testing.assert_allclose(out2.values, base.values, atol=1e-12)


def test_oct_recovers_bottom_up_from_row_space_noise(toy):
    rng = np.random.default_rng(11)
    target = bottom_up(rng.normal(size=(2, 4)), toy)
    noise = toy.kernel.T @ rng.normal(size=13)
    y = target.vec_by_variable + noise
    res = reconcile_cross_temporal(
        y.reshape(3, 7), toy, "oct-ols"
    )
    np.testing.assert_allclose(res.y_tilde, target.vec_by_variable, atol=1e-9)


def time_major_oracle(y, W, xts):
    """Solve on the time-major vectorization and map back to series-major.

    The commutation ``P`` takes time-major vectors to series-major ones, so
    the time-major problem has kernel ``K P`` and covariance ``P' W P``.
    """
    P = xts.commutation
    W_time = CovarianceModel(
        kind=W.kind, structure="full", size=W.size, matrix=P.T @ W.dense() @ P
    )
    y_time = P.T @ y
    return P @ project(y_time, W_time, sp.csr_matrix(xts.kernel @ P)).y_tilde


def test_parameterization_paths_agree(toy):
    rng = np.random.default_rng(12)
    for xts in (toy, build_cross_temporal(toy.cs, toy.ts, 2)):
        res_tab = random_residuals(rng, xts)
        Y = rng.normal(size=(xts.n, xts.width))
        for kind in ("oct-ols", "oct-wlsv", "oct-bdshr", "oct-sam"):
            a = reconcile_cross_temporal(Y, xts, kind, res_tab)
            W = cross_temporal_cov(kind, xts, res_tab)
            b = time_major_oracle(Y.ravel(), W, xts)
            scale = max(1.0, np.max(np.abs(a.y_tilde)))
            assert np.max(np.abs(a.y_tilde - b)) / scale <= 1e-8


def test_bottom_up_as_weight_limit(toy):
    rng = np.random.default_rng(13)
    Y = rng.normal(loc=5.0, size=(3, 7))
    hf = Y[1:, 3:]
    expected = bottom_up(hf, toy).vec_by_variable
    diag = np.full(21, 1e12)
    for i in (1, 2):  # highest-frequency bottom coordinates move freely
        diag[i * 7 + 3 : (i + 1) * 7] = 1.0
    W = CovarianceModel(kind="limit", structure="diagonal", size=21, diag_values=diag)
    res = project(Y.ravel(), W, toy.kernel)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(res.y_tilde - expected)) / scale <= 1e-4


def test_singular_kernel_raises(toy):
    import scipy.sparse as sp

    K = sp.vstack([toy.kernel, toy.kernel[:1]])
    with pytest.raises(SingularSystem):
        project(np.zeros(21), identity_w(21), K)


def test_condition_warning_flag():
    cs = build_cross_sectional([[1.0, 1e-9]])
    W = CovarianceModel(
        kind="w", structure="diagonal", size=3,
        diag_values=np.array([1e12, 1.0, 1e-12]),
    )
    res = project(np.array([3.0, 1.0, 1.0]), W, cs.kernel)
    assert res.diagnostics["condition_estimate"] > 0


def test_condition_warning_fires_above_threshold():
    K = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])  # K W K' = diag(1e14 + 2, 2)
    W = CovarianceModel(
        kind="w", structure="diagonal", size=3, diag_values=np.array([1e14, 1.0, 1.0])
    )
    diagnostics = project(np.array([3.0, 1.0, 1.0]), W, K).diagnostics
    assert diagnostics["condition_estimate"] == pytest.approx(5e13)
    assert "ill-conditioned" in diagnostics["warning"]


def test_reconciled_covariance_matches_closed_form(toy, monkeypatch):
    rng = np.random.default_rng(14)
    W = random_spd_w(rng, 21)
    factored = []
    cho_factor = scipy.linalg.cho_factor

    def spy(A, *args, **kwargs):
        factored.append(np.array(A))
        return cho_factor(A, *args, **kwargs)

    def no_second_solve(*args, **kwargs):
        raise AssertionError("K W K' was factorized a second time")

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    monkeypatch.setattr(scipy.linalg, "solve", no_second_solve)
    MW = reconciled_covariance(W, toy.kernel)
    monkeypatch.undo()

    K = toy.kernel.toarray()
    Wd = W.dense()
    assert len(factored) == 1
    np.testing.assert_allclose(factored[0], K @ Wd @ K.T, rtol=1e-12)
    assert MW.shape == (21, 21)
    expected = Wd - Wd @ K.T @ np.linalg.solve(K @ Wd @ K.T, K @ Wd)
    assert np.max(np.abs(MW - expected)) <= 1e-10 * np.max(np.abs(expected))
    # the reconciliation error lives inside the coherent subspace
    assert np.max(np.abs(toy.kernel @ MW)) <= 1e-6


def _nan_tableau(xts):
    Y = np.ones((xts.n, xts.width))
    Y[1, 2] = np.nan
    return Y


def _bad_residuals(rows):
    E = np.ones((rows, 12))
    E[0, 1], E[-1, 3] = np.nan, np.inf
    return E


OLS_HEURISTIC = HeuristicConfig("t-ols", "cs-ols")
NON_FINITE_CASES = {
    "reconcile_cross_temporal": lambda x: reconcile_cross_temporal(_nan_tableau(x), x),
    "project": lambda x: project(_nan_tableau(x).ravel(), identity_w(x.size), x.kernel),
    "reconcile_cross_sectional": lambda x: reconcile_cross_sectional(
        _nan_tableau(x), x.cs
    ),
    "ka_two_step": lambda x: ka_two_step(_nan_tableau(x), x, OLS_HEURISTIC),
    "iterative": lambda x: iterative(_nan_tableau(x), x, OLS_HEURISTIC),
    "bottom_up": lambda x: bottom_up(np.full((x.cs.n_b, x.h * x.ts.m), np.inf), x),
    "cross_sectional_cov residuals": lambda x: cross_sectional_cov(
        "cs-wls", x.cs, _bad_residuals(x.n)
    ),
    "temporal_cov diagonal residuals": lambda x: temporal_cov(
        "t-wlsv", x.ts, _bad_residuals(x.ts.cycle_len)
    ),
    "temporal_cov markov residuals": lambda x: temporal_cov(
        "t-sar1", x.ts, _bad_residuals(x.ts.cycle_len)
    ),
    "reconcile_cross_sectional residuals": lambda x: reconcile_cross_sectional(
        np.ones((x.n, 4)), x.cs, "cs-shr", _bad_residuals(x.n)
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_input_raises_invalid_entry(toy, case):
    with pytest.raises(InvalidEntry, match="NaN or infinite"):
        NON_FINITE_CASES[case](toy)


NON_NUMERIC_CASES = {
    "ResidualTableau": lambda x: ResidualTableau([[1j] * 4] * x.n, x.n, build_temporal(1)),
    "cross_sectional_cov": lambda x: cross_sectional_cov("cs-wls", x.cs, [["a"] * 5] * x.n),
    "temporal_cov": lambda x: temporal_cov(
        "t-wlsv", x.ts, [["a"] * 5] * x.ts.cycle_len
    ),
    "cross_temporal_cov": lambda x: cross_temporal_cov(
        "oct-wlsv", x, [["a"] * 5] * (x.n * x.ts.cycle_len)
    ),
}


@pytest.mark.parametrize("case", list(NON_NUMERIC_CASES))
def test_non_numeric_residuals_raise_invalid_entry(toy, case):
    with pytest.raises(InvalidEntry, match="non-numeric"):
        NON_NUMERIC_CASES[case](toy)


# ---------------------------------------------------------------------------
# Sparse and dense factorizations above 3000 values


def grouped_structure(n_b, g, m, h):
    """One total plus ``g`` interleaved group totals over ``n_b`` bottoms."""
    C = np.zeros((1 + g, n_b))
    C[0] = 1.0
    for j in range(g):
        C[1 + j, j::g] = 1.0
    return build_cross_temporal(build_cross_sectional(C), build_temporal(m), h)


def seeded_inputs(xts, origin=40):
    actuals, _ = generate_coherent(xts.cs, xts.ts, origin + xts.h, seed=0)
    Y_hat, residuals = naive_base_forecasts(actuals, xts.cs, xts.ts, origin, xts.h)
    return np.asarray(Y_hat, dtype=float).ravel(), residuals


@pytest.fixture(scope="module")
def large():
    """Size 4088, rank 2552: ``(n_b, g) = (64, 8)``, ``m = 12``, ``h = 2``."""
    xts = grouped_structure(64, 8, 12, 2)
    return (xts, *seeded_inputs(xts))


def normal_matrix(K, W):
    G = K @ W.apply(K.T)
    return G.toarray() if sp.issparse(G) else np.asarray(G)


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("kind", ["oct-ols", "oct-wlsv", "oct-acov", "oct-shr"])
def test_sparse_path_matches_dense_and_structural_oracles(large, kind):
    xts, y, residuals = large
    K = xts.kernel
    W = cross_temporal_cov(kind, xts, residuals)
    res = project(y, W, K)
    # oct-shr: 39 residual cycles, Woodbury over a sparse-LU K D K'
    path = "woodbury" if kind == "oct-shr" else "sparse-lu"
    assert res.diagnostics["factorization"] == path
    dense = y - W.apply(K.T) @ np.linalg.solve(normal_matrix(K, W), K @ y)
    assert relative_gap(res.y_tilde, dense) <= 1e-10
    structural = project_structural(y, W, xts.struct_perm @ xts.struct_summing)
    assert relative_gap(res.y_tilde, structural.y_tilde) <= 1e-10
    assert res.diagnostics["constraint_residual"] <= 1e-10 * np.max(np.abs(y))


def test_dense_path_for_full_dense_or_small_normal_matrices():
    medium = grouped_structure(32, 4, 12, 1)  # rank 652
    y, residuals = seeded_inputs(medium)
    shr = cross_temporal_cov("oct-shr", medium, residuals)
    full = CovarianceModel(kind="w", structure="full", size=shr.size, matrix=shr.dense())
    bdshr = cross_temporal_cov("oct-bdshr", medium, residuals)
    for W in (full, bdshr):  # a full W; a 42%-dense K W K'
        assert project(y, W, medium.kernel).diagnostics["factorization"] == "cholesky"
    # N = 39 residual cycles below the size 1036: diagonal plus rank 39
    assert shr.structure == "low-rank"
    assert project(y, shr, medium.kernel).diagnostics["factorization"] == "woodbury"
    small = grouped_structure(32, 4, 4, 1)  # rank 131, 8% dense
    y, residuals = seeded_inputs(small)
    W = cross_temporal_cov("oct-ols", small, residuals)
    assert project(y, W, small.kernel).diagnostics["factorization"] == "cholesky"


@pytest.mark.parametrize("kind", ["oct-wlsv", "oct-acov", "oct-bdshr", "oct-shr"])
def test_condition_estimate_within_factor_two(kind):
    xts = grouped_structure(32, 4, 12, 1)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    diagnostics = project(y, W, xts.kernel).diagnostics
    true = np.linalg.cond(normal_matrix(xts.kernel, W), 1)
    assert true / 2 <= diagnostics["condition_estimate"] <= true * 2


@pytest.mark.parametrize("row", [0, 5, 100, 2000])
def test_duplicated_kernel_row_raises_on_sparse_path(large, row):
    xts = large[0]
    K = sp.vstack([xts.kernel, xts.kernel[row : row + 1]]).tocsr()
    with pytest.raises(SingularSystem):
        project(np.zeros(xts.size), identity_w(xts.size), K)


@pytest.mark.parametrize("j", [0, 500, 4000])
def test_indefinite_diagonal_w_raises_on_sparse_path(large, j):
    xts = large[0]
    d = np.ones(xts.size)
    d[j] = -1.0
    W = CovarianceModel(kind="w", structure="diagonal", size=xts.size, diag_values=d)
    G = sp.csr_matrix(xts.kernel @ W.apply(xts.kernel.T))
    assert np.min(np.linalg.eigvalsh(G.toarray())) < 0
    with pytest.raises(SingularSystem):
        project(np.ones(xts.size), W, xts.kernel)


def w_of_each_structure(rng, size):
    """One positive-definite W of each of the five structures."""
    d = rng.uniform(0.5, 2.0, size)
    blocks = [
        B @ B.T + np.eye(len(B))
        for B in np.array_split(rng.normal(size=(size, 3)), -(-size // 3))
    ]
    U = rng.normal(size=(size, 2))
    A = rng.normal(size=(size, size))
    return [
        identity_w(size),
        CovarianceModel(kind="w", structure="diagonal", size=size, diag_values=d),
        CovarianceModel(
            kind="w", structure="block-diagonal", size=size, matrix=sp.block_diag(blocks)
        ),
        CovarianceModel(kind="w", structure="low-rank", size=size, diag_values=d, matrix=U),
        CovarianceModel(
            kind="w", structure="full", size=size, matrix=A @ A.T + size * np.eye(size)
        ),
    ]


@pytest.mark.parametrize(
    "shape", [(4, 2, 4, 1), (8, 2, 4, 2), (32, 4, 12, 1)]  # size 49, 154, 1036
)
def test_structural_form_matches_projection_for_every_structure(shape):
    xts = grouped_structure(*shape)
    rng = np.random.default_rng(xts.size)
    y = rng.normal(size=xts.size)
    S = xts.struct_perm @ xts.struct_summing
    for W in w_of_each_structure(rng, xts.size):
        via_kernel = project(y, W, xts.kernel).y_tilde
        gap = relative_gap(project_structural(y, W, S).y_tilde, via_kernel)
        assert gap <= 1e-10, W.structure


@pytest.mark.parametrize("shape", [(4, 2, 4, 1), (32, 4, 12, 1)])  # Cholesky; sparse LU
def test_structural_form_rejects_an_indefinite_block_diagonal_w(shape):
    xts = grouped_structure(*shape)
    d = np.ones(xts.size)
    d[3] = -1.0
    W = CovarianceModel(
        kind="w", structure="block-diagonal", size=xts.size, matrix=sp.diags(d)
    )
    with pytest.raises(SingularSystem, match="project_structural"):
        project_structural(np.ones(xts.size), W, xts.struct_perm @ xts.struct_summing)


def test_empty_kernel_takes_dense_path(large):
    xts, y, residuals = large
    for W in (identity_w(xts.size), cross_temporal_cov("oct-shr", xts, residuals)):
        res = project(y, W, sp.csr_matrix((0, xts.size)))
        assert res.diagnostics["factorization"] == "cholesky"
        np.testing.assert_array_equal(res.y_tilde, y)


# ---------------------------------------------------------------------------
# Diagonal-plus-low-rank W: the Woodbury path


def correlated_residuals(rng, p, N):
    """Residual rows sharing one factor, so that shrinkage stops short of
    the diagonal (independent rows with N << p often shrink all the way)."""
    return rng.uniform(0.5, 2.0, (p, 1)) * rng.standard_normal(N) + 0.2 * (
        rng.standard_normal((p, N))
    )


LOW_RANK_MENUS = {
    "oct": lambda xts, E: (
        cross_temporal_cov("oct-shr", xts, ResidualTableau(E, xts.n, xts.ts)),
        xts.kernel,
        xts.struct_perm @ xts.struct_summing,
    ),
    "cs": lambda xts, E: (
        cross_sectional_cov("cs-shr", xts.cs, E), xts.cs.kernel, xts.cs.summing_matrix
    ),
    "t": lambda xts, E: (
        temporal_cov("t-shr", xts.ts, E, h=xts.h),
        xts.temporal_kernel,
        xts.temporal_summing,
    ),
}


@pytest.mark.parametrize(
    "menu, h", [("oct", 1), ("oct", 2), ("cs", 1), ("t", 1), ("t", 2)]
)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_woodbury_agrees_with_dense_kkt_and_structural(menu, h, seed):
    rng = np.random.default_rng(seed)
    xts = random_structure(rng, n_max=6, m_choices=(2, 4), h_choices=(h,))
    p = {"oct": xts.n * xts.ts.cycle_len, "cs": xts.n, "t": xts.ts.cycle_len}[menu]
    E = correlated_residuals(rng, p, int(rng.integers(min(3, p - 1), p)))
    W, K, S = LOW_RANK_MENUS[menu](xts, E)
    assume(W.structure == "low-rank")  # not lam = 1, rare with these residuals
    y = rng.normal(size=W.size)
    res = project(y, W, K)
    assert res.diagnostics["factorization"] == "woodbury"
    Wd = W.dense()
    full = CovarianceModel(kind="w", structure="full", size=W.size, matrix=Wd)
    expected = kkt_oracle(y, Wd, sp.csr_matrix(K).toarray())
    scale = max(1.0, float(np.max(np.abs(expected))))
    for other in (
        project(y, full, K).y_tilde,
        expected,
        project_structural(y, W, S).y_tilde,
        projector(K, W) @ y,  # the cs- and t- wrappers' form
    ):
        assert np.max(np.abs(res.y_tilde - other)) / scale <= 1e-10


@pytest.mark.parametrize("m", [4, 12])  # rank 131: Cholesky K D K'; rank 652: sparse LU
def test_near_singular_low_rank_diagonal_raises_from_pivot_gate(m):
    xts = grouped_structure(32, 4, m, 1)
    rng = np.random.default_rng(5)
    d = np.full(xts.size, 1e-20)
    d[:10] = 1.0
    W = CovarianceModel(
        kind="w", structure="low-rank", size=xts.size, diag_values=d,
        matrix=rng.standard_normal((xts.size, 5)),
    )
    with pytest.raises(SingularSystem, match="not numerically positive definite"):
        project(rng.normal(size=xts.size), W, xts.kernel)


@pytest.mark.parametrize("h", [1, 2])
def test_oct_shr_builds_no_dense_w(h):
    xts = grouped_structure(32, 4, 12, h)  # size 1036 h, 39 residual cycles
    y, residuals = seeded_inputs(xts)
    project(y, cross_temporal_cov("oct-shr", xts, residuals), xts.kernel)  # warm caches
    tracemalloc.start()
    try:
        W = cross_temporal_cov("oct-shr", xts, residuals)
        res = project(y, W, xts.kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.structure == "low-rank"
    assert res.diagnostics["factorization"] == "woodbury"
    assert peak < 8 * xts.size**2  # one dense size x size array


# ---------------------------------------------------------------------------
# Stacked single-dimension projectors


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("kind", T_KINDS)
def test_temporal_rows_match_kkt_oracle_with_their_own_w(kind, h):
    xts = grouped_structure(4, 2, 6, h)
    rng = np.random.default_rng(50 + h)
    res = random_residuals(rng, xts)
    tab = xts.tableau(rng.normal(loc=10.0, size=(xts.n, xts.width)))
    out = reconcile_temporal(tab, kind, res).values
    Z = xts.temporal_kernel.toarray()
    scale = np.max(np.abs(tab.values))
    for i in range(xts.n):  # the per-model loop, as the oracle
        W = temporal_cov(kind, xts.ts, res.series_block(i), h=h).dense()
        expected = kkt_oracle(tab.values[i], W, Z)
        np.testing.assert_allclose(out[i], expected, rtol=1e-10, atol=1e-10 * scale)


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("kind", CS_KINDS)
def test_cross_sectional_levels_match_kkt_oracle_with_their_own_w(kind, h):
    xts = grouped_structure(4, 2, 6, h)
    rng = np.random.default_rng(60 + h)
    res = random_residuals(rng, xts)
    tab = xts.tableau(rng.normal(loc=10.0, size=(xts.n, xts.width)))
    out = reconcile_cross_sectional_tableau(tab, kind, res).values
    scale = np.max(np.abs(tab.values))
    for k in xts.ts.factors:  # the per-model loop, as the oracle
        W = cross_sectional_cov(kind, xts.cs, res.level_matrix(k)).dense()
        for j in range(*xts.ts.level_slice(k, h).indices(xts.width)):
            expected = kkt_oracle(tab.values[:, j], W, xts.cs.kernel)
            np.testing.assert_allclose(
                out[:, j], expected, rtol=1e-10, atol=1e-10 * scale
            )


def _diagonal_models(*diags):
    return [
        CovarianceModel(kind="w", structure="diagonal", size=d.size, diag_values=d)
        for d in diags
    ]


@pytest.mark.parametrize(
    "delta, message",
    [
        # K W K' rounds to an exactly singular matrix: LAPACK rejects it.
        (1e-20, "could not be factorized|not numerically positive definite"),
        # Positive pivots of about 2e-14 against a tolerance of 4e-14.
        (1e-14, "not numerically positive definite"),
    ],
)
def test_stacked_projectors_gate_each_slice(delta, message):
    ts = build_temporal(12)  # k* = 16 > m: rank K W K' <= 12 without the uppers
    Z = build_cross_temporal(build_cross_sectional([[1, 1]]), ts, 1).temporal_kernel
    healthy = np.random.default_rng(70).uniform(0.5, 2.0, ts.cycle_len)
    bad = np.ones(ts.cycle_len)
    bad[: ts.k_star] = delta
    models = _diagonal_models(healthy, bad, healthy)
    with pytest.raises(SingularSystem, match=message):
        _projectors(Z, models)


def test_stacked_projectors_scale_each_tolerance():
    ts = build_temporal(12)
    Z = build_cross_temporal(build_cross_sectional([[1, 1]]), ts, 1).temporal_kernel
    healthy = np.random.default_rng(71).uniform(0.5, 2.0, ts.cycle_len)
    projs = _projectors(Z, _diagonal_models(1e12 * healthy, 1e-6 * healthy))
    single = projector(Z, _diagonal_models(healthy)[0])
    for P in projs:  # W and c W give the same projector
        np.testing.assert_allclose(P, single, rtol=1e-10, atol=1e-12)


def test_tableaux_and_structures_leave_caller_arrays_writeable(toy):
    Y = np.random.default_rng(72).normal(size=(toy.n, toy.width))
    toy.tableau(Y)
    reconcile_cross_temporal(Y, toy, "oct-ols")
    ka_two_step(Y, toy, HeuristicConfig("t-ols", "cs-ols"))
    C = np.array([[1.0, 1.0]])
    build_cross_sectional(C)
    assert Y.flags.writeable and C.flags.writeable
