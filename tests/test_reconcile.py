import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctrec.reconcile
from ctrec import (
    CS_KINDS,
    OCT_KINDS,
    T_KINDS,
    CovarianceModel,
    DimensionMismatch,
    ForecastTableau,
    HeuristicConfig,
    InvalidEntry,
    ResidualTableau,
    SingularSystem,
    bottom_up,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    coherence_report,
    coherent_subspace_check,
    cross_sectional_cov,
    cross_temporal_cov,
    deduplicate_nodes,
    error_cube,
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
    rolling_harness,
    temporal_cov,
    validate_raw_kernel,
)
from ctrec.covariance import _cholesky_gate, _series_blocks
from ctrec.io import read_hierarchy, write_values
from ctrec.temporal import _cycle_positions
from ctrec.reconcile import (
    _condition_estimate,
    _factor,
    _normal_factor,
    _per_level_projectors,
    _per_series_temporal_projectors,
    _projectors,
    _schur_complement,
    _two_stage,
    projector,
)
from tests.conftest import (
    grouped_structure,
    random_hierarchy,
    random_residuals,
    random_structure,
    seeded_inputs,
)


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
    assert res.condition_estimate > 0


def test_condition_warning_fires_above_threshold():
    K = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])  # K W K' = diag(1e14 + 2, 2)
    W = CovarianceModel(
        kind="w", structure="diagonal", size=3, diag_values=np.array([1e14, 1.0, 1.0])
    )
    res = project(np.array([3.0, 1.0, 1.0]), W, K)
    assert res.condition_estimate == pytest.approx(5e13)
    assert "ill-conditioned" in res.warning


def test_reconciled_covariance_matches_closed_form(toy, monkeypatch):
    rng = np.random.default_rng(14)
    W = random_spd_w(rng, 21)
    factored = []
    gate = ctrec.reconcile._cholesky_gate

    def spy(A):
        factored.append(np.array(A))
        return gate(A)

    def no_second_solve(*args, **kwargs):
        raise AssertionError("K W K' was factorized a second time")

    monkeypatch.setattr(ctrec.reconcile, "_cholesky_gate", spy)
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


def _bad_kernel(xts, bad=np.nan):
    K = xts.kernel.toarray()
    K[0, 1] = bad
    return K


def _bad_summing(xts):
    S = sp.csr_matrix(xts.struct_perm @ xts.struct_summing).toarray()
    S[2, 0] = np.inf
    return S


def _actuals(xts, cycles=6, nan_at=None):
    """Coherent actuals over ``cycles`` cycles, NaN at column ``nan_at``."""
    A = generate_coherent(xts.cs, xts.ts, cycles, seed=0)[0]
    if nan_at is not None:
        A[1, nan_at] = np.nan
    return A


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
    "coherence_report": lambda x: coherence_report(_nan_tableau(x), x),
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
    "project kernel": lambda x: project(
        np.ones(x.size), identity_w(x.size), sp.csr_matrix(_bad_kernel(x, np.inf))
    ),
    "projector kernel": lambda x: projector(_bad_kernel(x), identity_w(x.size)),
    "reconciled_covariance kernel": lambda x: reconciled_covariance(
        identity_w(x.size), _bad_kernel(x)
    ),
    "project_structural summing matrix": lambda x: project_structural(
        np.ones(x.size), identity_w(x.size), _bad_summing(x)
    ),
    "validate_raw_kernel": lambda x: validate_raw_kernel(_bad_kernel(x)),
    "error_cube actuals": lambda x: error_cube(
        _actuals(x, nan_at=-1), {"base": [np.ones((x.n, x.width))]}, x.cs, x.ts, 1, 5
    ),
    "error_cube outputs": lambda x: error_cube(
        _actuals(x), {"base": [_nan_tableau(x)]}, x.cs, x.ts, 1, 5
    ),
    "write_values": lambda x: write_values(os.devnull, _nan_tableau(x), x.cs, x.ts),
    # The last column is the raw level of cycle 6, after origin 3 plus h = 1.
    "naive_base_forecasts after origin + h": lambda x: naive_base_forecasts(
        _actuals(x, nan_at=-1), x.cs, x.ts, origin=3, h=1
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_input_raises_invalid_entry(toy, case):
    with pytest.raises(InvalidEntry, match="NaN or infinite"):
        NON_FINITE_CASES[case](toy)


KERNEL_SHAPE_CASES = {
    "project 1-D kernel": lambda x: project(np.ones(x.size), identity_w(x.size), np.ones(x.size)),
    "project width": lambda x: project(np.ones(x.size), identity_w(x.size), x.kernel[:, 1:]),
    "projector width": lambda x: projector(x.kernel, identity_w(x.size - 1)),
    "reconciled_covariance width": lambda x: reconciled_covariance(
        identity_w(x.size + 1), x.kernel
    ),
    "project_structural 1-D summing matrix": lambda x: project_structural(
        np.ones(x.size), identity_w(x.size), np.ones(x.size)
    ),
}


@pytest.mark.parametrize("case", list(KERNEL_SHAPE_CASES))
def test_kernel_of_the_wrong_shape_raises_dimension_mismatch(toy, case):
    with pytest.raises(DimensionMismatch, match="kernel|summing matrix"):
        KERNEL_SHAPE_CASES[case](toy)


NON_NUMERIC_CASES = {
    "ResidualTableau": lambda x: ResidualTableau([[1j] * 4] * x.n, x.n, build_temporal(1)),
    "cross_sectional_cov": lambda x: cross_sectional_cov("cs-wls", x.cs, [["a"] * 5] * x.n),
    "temporal_cov": lambda x: temporal_cov(
        "t-wlsv", x.ts, [["a"] * 5] * x.ts.cycle_len
    ),
    "cross_temporal_cov": lambda x: cross_temporal_cov(
        "oct-wlsv", x, [["a"] * 5] * (x.n * x.ts.cycle_len)
    ),
    "xts.tableau": lambda x: x.tableau([["a"] * x.width] * x.n),
    "project": lambda x: project(["a"] * x.size, identity_w(x.size), x.kernel),
    "reconcile_cross_sectional": lambda x: reconcile_cross_sectional([["a"] * 4] * x.n, x.cs),
    "build_cross_sectional": lambda x: build_cross_sectional([["a", 1.0]]),
    "deduplicate_nodes": lambda x: deduplicate_nodes([["a", 1.0]]),
    "coherent_subspace_check": lambda x: coherent_subspace_check([["a"] * 4] * x.n, x.cs),
    "bottom_up": lambda x: bottom_up([["a"] * 4] * x.cs.n_b, x),
    "from_vec_by_variable": lambda x: ForecastTableau.from_vec_by_variable(["a"] * x.size, x),
    "project kernel": lambda x: project(np.ones(x.size), identity_w(x.size), [["a"] * x.size]),
    "projector kernel": lambda x: projector([["a"] * x.size], identity_w(x.size)),
    "validate_raw_kernel": lambda x: validate_raw_kernel([["a"] * x.size]),
    "rolling_harness": lambda x: rolling_harness(
        np.ones((x.n, x.width)), [([["a"] * x.width] * x.n, None)], {}, x, 0
    ),
}


@pytest.mark.parametrize("case", list(NON_NUMERIC_CASES))
def test_non_numeric_residuals_raise_invalid_entry(toy, case):
    with pytest.raises(InvalidEntry, match="non-numeric"):
        NON_NUMERIC_CASES[case](toy)


# ---------------------------------------------------------------------------
# Sparse and dense factorizations above 3000 values


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


def reconcile_flat(y, xts, W):
    return reconcile_cross_temporal(y.reshape(xts.n, xts.width), xts, W=W)


@pytest.mark.parametrize("kind", ["oct-ols", "oct-struc", "oct-wlsv", "oct-acov", "oct-shr"])
def test_sparse_path_matches_dense_and_structural_oracles(large, kind):
    xts, y, residuals = large
    K = xts.kernel
    W = cross_temporal_cov(kind, xts, residuals)
    dense = y - W.apply(K.T) @ np.linalg.solve(normal_matrix(K, W), K @ y)
    structural = project_structural(y, W, xts.struct_perm @ xts.struct_summing).y_tilde
    # The bare kernel keeps the sparse LU, the structure's takes the two-stage
    # path; oct-shr (39 residual cycles) is Woodbury over the factor of K D K'
    # the dispatch picks: sparse LU over the bare kernel, two-stage over the
    # structure's.
    paths = ("woodbury",) * 2 if kind == "oct-shr" else ("sparse-lu", "two-stage")
    for res, path in zip((project(y, W, K), reconcile_flat(y, xts, W)), paths):
        assert res.diagnostics["factorization"] == path
        assert relative_gap(res.y_tilde, dense) <= 1e-10
        assert relative_gap(res.y_tilde, structural) <= 1e-10
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


@pytest.mark.parametrize(
    "kind", ["oct-ols", "oct-struc", "oct-wlsv", "oct-acov", "oct-bdshr", "oct-shr"]
)
def test_condition_estimate_within_factor_two(kind):
    xts = grouped_structure(32, 4, 12, 1)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    true = np.linalg.cond(normal_matrix(xts.kernel, W), 1)
    # The bare kernel; the structure's, two-stage for oct-wlsv and oct-acov
    for res in (project(y, W, xts.kernel), reconcile_flat(y, xts, W)):
        assert true / 2 <= res.condition_estimate <= true * 2


@pytest.fixture
def estimate_calls(monkeypatch):
    """Names of the condition-estimate routines run, in call order."""
    calls = []

    def counted(name, f):
        def run(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return run

    monkeypatch.setattr(
        scipy.sparse.linalg, "onenormest", counted("norm1", scipy.sparse.linalg.onenormest)
    )
    monkeypatch.setattr(
        scipy.linalg.lapack, "dpocon", counted("dpocon", scipy.linalg.lapack.dpocon)
    )
    return calls


# Each factorization path: (factorization, kind, through the structure or the
# bare kernel, grouped_structure shape).  Rank 45, then rank 652 (size 1036).
LAZY_PATHS = {
    "cholesky": ("cholesky", "oct-wlsv", True, (8, 2, 4, 1)),
    "sparse-lu": ("sparse-lu", "oct-wlsv", False, (32, 4, 12, 1)),
    "two-stage": ("two-stage", "oct-wlsv", True, (32, 4, 12, 1)),
    "woodbury": ("woodbury", "oct-shr", False, (32, 4, 12, 1)),
    "woodbury through the structure": ("woodbury", "oct-shr", True, (32, 4, 12, 1)),
}


@pytest.mark.parametrize("path", list(LAZY_PATHS))
def test_condition_estimate_runs_once_on_first_read(estimate_calls, path):
    factorization, kind, through_structure, shape = LAZY_PATHS[path]
    xts = grouped_structure(*shape)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    res = reconcile_flat(y, xts, W) if through_structure else project(y, W, xts.kernel)
    assert res.diagnostics["factorization"] == factorization
    assert estimate_calls == []  # not run until read
    first = res.condition_estimate
    runs = len(estimate_calls)
    assert runs > 0 and "dpocon" not in estimate_calls  # one rule on every path
    assert res.condition_estimate == first and res.warning is None
    assert len(estimate_calls) == runs
    factored = _normal_factor(xts.kernel, W, "test", xts if through_structure else None)
    assert factored[0] == factorization
    assert _condition_estimate(xts.kernel, W, factored[1]) == first


def hager_norm1_estimate(apply, r):
    """Hager's 1-norm estimate of a symmetric ``r x r`` operator from its
    products, with Higham's alternating-sign test vector (LAPACK's
    ``dlacn2``): how :func:`_condition_estimate` once estimated each norm."""
    x = np.full(r, 1.0 / r)
    est = 0.0
    for _ in range(5):
        y = apply(x)
        if np.abs(y).sum() <= est:
            break
        est = np.abs(y).sum()
        z = apply(np.where(y >= 0.0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(r)
        x[j] = 1.0
    alt = (-1.0) ** np.arange(r) * (1.0 + np.arange(r) / max(r - 1, 1))
    return float(max(est, 2.0 * np.abs(apply(alt)).sum() / (3.0 * r)))


def hager_condition_estimate(K, W, solve):
    r = K.shape[0]
    return hager_norm1_estimate(lambda b: K @ W.apply(K.T @ b), r) * hager_norm1_estimate(solve, r)


# The kinds of test_condition_estimate_within_factor_two, then LAZY_PATHS,
# then two cycles solved through one cycle's factor.
ESTIMATE_CASES = list(dict.fromkeys([
    (kind, through, (32, 4, 12, 1))
    for kind in ["oct-ols", "oct-struc", "oct-wlsv", "oct-acov", "oct-bdshr", "oct-shr"]
    for through in (False, True)
] + [(kind, through, shape) for _, kind, through, shape in LAZY_PATHS.values()] + [
    ("oct-wlsv", True, (32, 4, 12, 2)), ("oct-shr", True, (32, 4, 12, 2)),
]))


@pytest.mark.parametrize("kind, through_structure, shape", ESTIMATE_CASES)
def test_condition_estimate_matches_hagers_loop(kind, through_structure, shape):
    xts = grouped_structure(*shape)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    res = reconcile_flat(y, xts, W) if through_structure else project(y, W, xts.kernel)
    solve = _normal_factor(xts.kernel, W, "test", xts if through_structure else None)[1]
    oracle = hager_condition_estimate(xts.kernel, W, solve)
    assert abs(res.condition_estimate - oracle) <= 1e-12 * oracle


def test_condition_estimate_leaves_the_global_random_state_alone():
    xts = grouped_structure(32, 4, 12, 1)
    y, residuals = seeded_inputs(xts)
    np.random.seed(5)
    before = np.random.get_state()
    for kind in ("oct-wlsv", "oct-shr"):
        W = cross_temporal_cov(kind, xts, residuals)
        for res in (project(y, W, xts.kernel), reconcile_flat(y, xts, W)):
            assert res.condition_estimate > 1.0
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    np.testing.assert_array_equal(before[1], after[1])


def test_results_without_a_normal_solve_have_no_condition_estimate(toy, estimate_calls):
    rng = np.random.default_rng(3)
    Y = rng.normal(size=(toy.n, toy.width))
    results = [
        ka_two_step(Y, toy, OLS_HEURISTIC),
        iterative(Y, toy, OLS_HEURISTIC)[0],
        project_structural(Y.ravel(), identity_w(toy.size), toy.struct_perm @ toy.struct_summing),
    ]
    for res in results:
        assert res.condition_estimate is None and res.warning is None
    assert estimate_calls == []


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


def test_structural_form_rejects_a_w_of_the_wrong_size(toy):
    with pytest.raises(DimensionMismatch, match="covariance has size 20, forecast vector has 21"):
        project_structural(np.ones(21), identity_w(20), toy.struct_perm @ toy.struct_summing)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_structural_form_rejects_non_finite_forecasts_before_factoring(toy, bad, monkeypatch):
    def no_factorization(*args):
        raise AssertionError("factored W for a non-finite forecast")

    monkeypatch.setattr(ctrec.reconcile, "_normal_factor", no_factorization)
    y = np.ones(21)
    y[4] = bad
    with pytest.raises(InvalidEntry, match="NaN or infinite"):
        project_structural(y, identity_w(21), toy.struct_perm @ toy.struct_summing)


def test_empty_kernel_takes_dense_path(large):
    xts, y, residuals = large
    for W in (identity_w(xts.size), cross_temporal_cov("oct-shr", xts, residuals)):
        res = project(y, W, sp.csr_matrix((0, xts.size)))
        assert res.diagnostics["factorization"] == "cholesky"
        np.testing.assert_array_equal(res.y_tilde, y)


@pytest.mark.parametrize("sparse_kernel", [False, True])
def test_empty_kernel_returns_the_forecast_with_condition_one(sparse_kernel):
    rng = np.random.default_rng(9)
    y = rng.normal(size=30)
    K = sp.csr_matrix((0, y.size)) if sparse_kernel else np.zeros((0, y.size))
    for W in w_of_each_structure(rng, y.size):
        res = project(y, W, K)
        np.testing.assert_array_equal(res.y_tilde, y)
        assert res.condition_estimate == 1.0, W.structure


# ---------------------------------------------------------------------------
# W block-diagonal by series: the two-stage path


SERIES_BLOCK_KINDS = ["oct-ols", "oct-struc", "oct-wlsv", "oct-acov"]


def two_stage(xts, W):
    """The two-stage solver of ``K W K'``, whatever the rank."""
    return _two_stage(xts, _series_blocks(W, xts.n), "test")


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_two_stage_matches_dense_and_structural_oracles(m, h):
    rng = np.random.default_rng(100 * m + h)
    xts = build_cross_temporal(random_hierarchy(rng, n_max=7), build_temporal(m), h)
    residuals = random_residuals(rng, xts)
    K = xts.kernel
    y = rng.normal(size=xts.size)
    S = xts.struct_perm @ xts.struct_summing
    for kind in SERIES_BLOCK_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        solve = two_stage(xts, W)
        G = normal_matrix(K, W)
        b = rng.normal(size=(K.shape[0], 3))
        assert relative_gap(solve(b), np.linalg.solve(G, b)) <= 1e-10, kind
        assert relative_gap(solve(b[:, 0]), np.linalg.solve(G, b[:, 0])) <= 1e-10, kind
        y_tilde = y - W.apply(K.T @ solve(K @ y))
        dense = y - W.apply(K.T @ np.linalg.solve(G, K @ y))
        assert relative_gap(y_tilde, dense) <= 1e-10, kind
        assert relative_gap(y_tilde, project_structural(y, W, S).y_tilde) <= 1e-10, kind


def test_two_stage_matches_sparse_lu_at_size_11816():
    xts = grouped_structure(200, 10, 12, 2)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov("oct-acov", xts, residuals)
    res = reconcile_flat(y, xts, W)
    assert res.diagnostics["factorization"] == "two-stage"
    sparse = project(y, W, xts.kernel)
    assert sparse.diagnostics["factorization"] == "sparse-lu"
    assert relative_gap(res.y_tilde, sparse.y_tilde) <= 1e-10
    assert res.diagnostics["constraint_residual"] <= 1e-10 * np.max(np.abs(y))


def test_factorization_routing_through_the_structure():
    medium = grouped_structure(32, 4, 12, 1)  # rank 652
    y, residuals = seeded_inputs(medium)
    for kind in SERIES_BLOCK_KINDS + ["oct-wlsh"]:
        res = reconcile_flat(y, medium, cross_temporal_cov(kind, medium, residuals))
        assert res.diagnostics["factorization"] == "two-stage", kind
    routes = {"oct-bdshr": "cholesky", "oct-shr": "woodbury"}  # series coupled
    for kind, path in routes.items():
        res = reconcile_flat(y, medium, cross_temporal_cov(kind, medium, residuals))
        assert res.diagnostics["factorization"] == path, kind
    small = grouped_structure(32, 4, 4, 1)  # rank 131, under the rank rule
    y, residuals = seeded_inputs(small)
    for kind in SERIES_BLOCK_KINDS:
        res = reconcile_flat(y, small, cross_temporal_cov(kind, small, residuals))
        assert res.diagnostics["factorization"] == "cholesky", kind


def test_one_entry_between_series_falls_back_to_the_sparse_lu(large):
    xts, y, residuals = large
    A = sp.lil_matrix(cross_temporal_cov("oct-acov", xts, residuals).matrix)
    q = xts.width
    A[q - 1, q] = A[q, q - 1] = 0.1 * np.sqrt(A[q - 1, q - 1] * A[q, q])
    W = CovarianceModel(kind="w", structure="block-diagonal", size=xts.size, matrix=A.tocsr())
    assert _series_blocks(W, xts.n) is None
    res = reconcile_flat(y, xts, W)
    assert res.diagnostics["factorization"] == "sparse-lu"
    dense = y - W.apply(xts.kernel.T) @ np.linalg.solve(
        normal_matrix(xts.kernel, W), xts.kernel @ y
    )
    assert relative_gap(res.y_tilde, dense) <= 1e-10


@pytest.mark.parametrize("structure", ["diagonal", "block-diagonal"])
def test_indefinite_series_block_raises_from_the_temporal_stage(structure):
    xts = grouped_structure(32, 4, 12, 1)
    d = np.ones(xts.size)
    d[5 * xts.width : 6 * xts.width] = -1.0  # W_5 = -I: B_5 = -Z Z'
    W = CovarianceModel(
        kind="w", structure=structure, size=xts.size,
        diag_values=d if structure == "diagonal" else None,
        matrix=sp.diags(d).tocsr() if structure == "block-diagonal" else None,
    )
    with pytest.raises(SingularSystem, match="project, temporal stage"):
        reconcile_flat(np.ones(xts.size), xts, W)


def test_indefinite_g_with_definite_series_blocks_raises_from_the_cross_sectional_stage(
    large,
):
    # test_indefinite_diagonal_w_raises_on_sparse_path's W at j = 500 with
    # d_j = -1 makes B_8 indefinite too.  With d_j = -1/2, G is indefinite
    # and every B_i definite, as the leverages of column j in K (0.71) and
    # in Z (0.63) lie on either side of 1 / (1 - d_j) = 2/3.
    xts = large[0]
    j = 500
    d = np.ones(xts.size)
    d[j] = -0.5
    W = CovarianceModel(kind="w", structure="diagonal", size=xts.size, diag_values=d)
    Z = xts.temporal_kernel.toarray()
    for i in range(xts.n):
        B = Z @ (d[i * xts.width : (i + 1) * xts.width, None] * Z.T)
        assert np.min(np.linalg.eigvalsh(B)) > 0
    K = xts.kernel
    x = scipy.sparse.linalg.spsolve(sp.csc_matrix(K @ K.T), K[:, [j]].toarray().ravel())
    assert x @ (K @ W.apply(K.T @ x)) < 0  # a direction of negative curvature
    with pytest.raises(SingularSystem, match="project, cross-sectional stage"):
        reconcile_flat(np.ones(xts.size), xts, W)


def sparse_product_schur(xts, M):
    """``S = K_h blkdiag(M_i) K_h'`` as the sparse triple product the
    two-stage path once formed: the oracle of its direct assembly."""
    n, hf, _ = M.shape
    q, rc = xts.width, xts.cs.n_a * hf
    K_h = xts.kernel[:rc][:, (q * np.arange(n)[:, None] + np.arange(q - hf, q)).ravel()]
    return K_h @ sp.bsr_matrix((M, np.arange(n), np.arange(n + 1)), shape=(n * hf, n * hf)) @ K_h.T


def assert_schur_complements_match_the_sparse_product(xts, W, monkeypatch, exact):
    """Factor ``K W K'`` in two stages and compare the Schur complement it
    assembles with :func:`sparse_product_schur`: the same pattern, the same
    factorization, values within 1e-15 relative (equal if ``exact``).
    Returns the complement's factorization."""
    seen = []

    def spy(kappa, M):
        seen.append((M, _schur_complement(kappa, M)))
        return seen[-1][1]

    monkeypatch.setattr(ctrec.reconcile, "_schur_complement", spy)
    two_stage(xts, W)
    (M, S), = seen
    oracle = sparse_product_schur(xts, M)
    assert S.nnz == oracle.nnz, W.kind
    np.testing.assert_array_equal(S.toarray() != 0, oracle.toarray() != 0)
    assert relative_gap(S.toarray(), oracle.toarray()) <= 1e-15, W.kind
    if exact:
        np.testing.assert_array_equal(S.toarray(), oracle.toarray(), err_msg=W.kind)
    assert _factor(S, "test")[0] == _factor(oracle, "test")[0]
    return _factor(S, "test")[0]


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_schur_complement_matches_the_sparse_product(m, h, monkeypatch):
    rng = np.random.default_rng(300 * m + h)
    xts = build_cross_temporal(random_hierarchy(rng, n_max=7), build_temporal(m), h)
    residuals = random_residuals(rng, xts)
    for kind in SERIES_BLOCK_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        # 0/1 weights: the same products, summed in the same order.
        assert_schur_complements_match_the_sparse_product(xts, W, monkeypatch, exact=True)


def test_schur_complement_of_weighted_edges_matches_the_sparse_product(tmp_path, monkeypatch):
    spec = tmp_path / "weighted.txt"
    spec.write_text(
        "m = 4\n[edges]\nnode,parent,weight\n"
        "A,T,0.5\nB,T,2.5\nx,A,1\ny,A,0.3\nz,A,-1.25\nu,B,0.7\nv,B,3\nw,T,1.1\n"
    )
    cs, ts = read_hierarchy(spec)
    assert set(np.unique(cs.kernel)) - {0.0, 1.0, -1.0}  # weights other than 0 and 1
    xts = build_cross_temporal(cs, ts, 2)
    residuals = random_residuals(np.random.default_rng(7), xts)
    for kind in SERIES_BLOCK_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        assert_schur_complements_match_the_sparse_product(xts, W, monkeypatch, exact=False)


def test_schur_complement_is_in_canonical_form():
    rng = np.random.default_rng(301)
    cs = random_hierarchy(rng, n_max=9)
    for hf in (1, 4, 12):
        M = rng.standard_normal((cs.n, hf, hf))
        S = _schur_complement(cs.kernel, M @ np.swapaxes(M, 1, 2) + np.eye(hf))
        assert S.format == "csr" and S.has_canonical_format and S.shape == (cs.n_a * hf,) * 2


@pytest.mark.parametrize(
    "shape, factorization",
    [
        ((200, 40, 12, 1), "sparse-lu"),  # complement of 492 rows
        ((32, 4, 12, 1), "cholesky"),  # size 1036
        ((200, 10, 12, 2), "cholesky"),  # size 11816
    ],
)
def test_schur_complement_matches_the_sparse_product_at_bench_sizes(
    shape, factorization, monkeypatch
):
    xts = grouped_structure(*shape)
    _, residuals = seeded_inputs(xts)
    for kind in SERIES_BLOCK_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        got = assert_schur_complements_match_the_sparse_product(xts, W, monkeypatch, exact=True)
        assert got == factorization, kind
        res = reconcile_flat(np.ones(xts.size), xts, W)
        assert res.diagnostics["factorization"] == "two-stage", kind


def dense_series_blocks(W, n):
    """The ``(n, q, q)`` stack of the blocks of a diagonal ``W``, built
    densely as the two-stage path once took it."""
    q = W.size // n
    blocks = np.zeros((n, q, q))
    blocks[:, np.arange(q), np.arange(q)] = W.diagonal().reshape(n, q)
    return blocks


DIAGONAL_KINDS = ["oct-ols", "oct-struc", "oct-wlsh", "oct-wlsv"]


def assert_diagonal_blocks_solve_bit_identically(xts, W, rng):
    diagonals = _series_blocks(W, xts.n)
    assert diagonals.shape == (xts.n, xts.width), W.kind
    solve = _two_stage(xts, diagonals, "test")
    oracle = _two_stage(xts, dense_series_blocks(W, xts.n), "test")
    b = rng.normal(size=(xts.kernel.shape[0], 2))
    np.testing.assert_array_equal(solve(b), oracle(b), err_msg=W.kind)
    np.testing.assert_array_equal(solve(b[:, 0]), oracle(b[:, 0]), err_msg=W.kind)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_diagonal_w_solves_as_its_dense_blocks_on_random_structures(m, h):
    rng = np.random.default_rng(200 * m + h)
    xts = build_cross_temporal(random_hierarchy(rng, n_max=7), build_temporal(m), h)
    residuals = random_residuals(rng, xts)
    assert_diagonal_blocks_solve_bit_identically(xts, identity_w(xts.size), rng)
    for kind in DIAGONAL_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        assert_diagonal_blocks_solve_bit_identically(xts, W, rng)


@pytest.mark.parametrize("shape", [(32, 4, 12, 1), (200, 10, 12, 2)])  # size 1036, 11816
def test_diagonal_w_solves_as_its_dense_blocks_at_bench_sizes(shape):
    xts = grouped_structure(*shape)
    y, residuals = seeded_inputs(xts)
    rng = np.random.default_rng(xts.size)
    assert_diagonal_blocks_solve_bit_identically(xts, identity_w(xts.size), rng)
    for kind in DIAGONAL_KINDS:
        W = cross_temporal_cov(kind, xts, residuals)
        assert_diagonal_blocks_solve_bit_identically(xts, W, rng)


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


def test_oct_shr_through_the_structure_factors_k_d_k_in_two_stages(monkeypatch):
    xts = grouped_structure(32, 4, 12, 1)  # rank 652
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov("oct-shr", xts, residuals)
    assert W.structure == "low-rank"
    blocks = []

    def spy(xts, diagonals, context):
        blocks.append(diagonals)
        return _two_stage(xts, diagonals, context)

    monkeypatch.setattr(ctrec.reconcile, "_two_stage", spy)
    via_structure = reconcile_flat(y, xts, W)
    assert via_structure.diagnostics["factorization"] == "woodbury"
    (D,) = blocks  # K D K' in two stages, D as a stack of diagonals
    np.testing.assert_array_equal(D, W.diag_values.reshape(xts.n, xts.width))
    bare = project(y, W, xts.kernel)  # the bare kernel: K D K' by sparse LU
    assert len(blocks) == 1 and bare.diagnostics["factorization"] == "woodbury"
    assert relative_gap(via_structure.y_tilde, bare.y_tilde) <= 1e-14


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


@settings(max_examples=3, deadline=None)
@given(m=st.sampled_from([4, 12]), h=st.sampled_from([1, 2, 3]), g=st.integers(2, 6),
       data=st.data())
def test_reconciles_of_3000_to_6000_values_agree_and_are_idempotent(m, h, g, data):
    """Grouped structures beyond the dense oracles' reach: the bare kernel
    and the structure's own path agree, both leave no constraint residual,
    and reconciling again moves nothing."""
    w = build_temporal(m).cycle_len * h  # values per series
    xts = grouped_structure(data.draw(st.integers(-(-3000 // w), 6000 // w)) - 1 - g, g, m, h)
    y, residuals = seeded_inputs(xts)
    for kind in ("oct-ols", "oct-wlsv", "oct-acov", "oct-shr"):
        W = cross_temporal_cov(kind, xts, residuals)
        bare, res = project(y, W, xts.kernel), reconcile_flat(y, xts, W)
        if kind == "oct-shr":
            for r in (bare, res):
                assert r.diagnostics["factorization"] == "woodbury"
        else:
            assert res.diagnostics["factorization"] == "two-stage"
        assert relative_gap(res.y_tilde, bare.y_tilde) <= 1e-10
        for y_tilde in (bare.y_tilde, res.y_tilde):
            assert np.max(np.abs(xts.kernel @ y_tilde)) <= 1e-10 * np.max(np.abs(y))
        again = reconcile_flat(res.y_tilde, xts, W)
        scale = np.max(np.abs(res.y_tilde))
        assert np.max(np.abs(again.y_tilde - res.y_tilde)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Solves per forecast cycle


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("kind", OCT_KINDS)
def test_every_oct_kind_solved_per_cycle_matches_the_bare_kernel(kind, h):
    xts = grouped_structure(8, 2, 4, h)  # 11 series, 77 values per cycle
    y, seeded = seeded_inputs(xts)  # 39 residual cycles: oct-shr is low-rank
    wide = random_residuals(np.random.default_rng(h), xts)  # 87: oct-sam needs 78
    for residuals in [wide] if kind == "oct-sam" else [seeded, wide]:
        W = cross_temporal_cov(kind, xts, residuals)
        assert W.one_cycle is not None
        res = reconcile_flat(y, xts, W)
        assert relative_gap(res.y_tilde, project(y, W, xts.kernel).y_tilde) <= 1e-10
        assert res.diagnostics["constraint_residual"] <= 1e-10 * np.max(np.abs(y))


@pytest.fixture
def factored_ranks(monkeypatch):
    """The row count of every ``K`` that :func:`_normal_factor` factors."""
    ranks = []

    def spy(kernel, W, context, xts=None):
        ranks.append(kernel.shape[0])
        return _normal_factor(kernel, W, context, xts)

    monkeypatch.setattr(ctrec.reconcile, "_normal_factor", spy)
    return ranks


@pytest.mark.parametrize("kind, factorization", [
    ("oct-ols", "two-stage"), ("oct-wlsv", "two-stage"), ("oct-acov", "two-stage"),
    ("oct-bdshr", "cholesky"), ("oct-shr", "woodbury"),
])
def test_two_cycles_factor_the_normal_matrix_of_one(factored_ranks, kind, factorization):
    xts = grouped_structure(32, 4, 12, 2)  # rank 1304: 652 per cycle
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    res = reconcile_flat(y, xts, W)
    # Then the one cycle's G1, and for oct-shr its K1 D1 K1' inside woodbury.
    assert factored_ranks[0] == xts.rank and set(factored_ranks[1:]) == {xts.rank // 2}
    assert res.diagnostics["factorization"] == factorization
    assert relative_gap(res.y_tilde, project(y, W, xts.kernel).y_tilde) <= 1e-10


def one_entry_between_cycles(W, pos):
    A = sp.lil_matrix(W.matrix)
    i, j = pos[0, 3], pos[1, 3]  # one value of series 0, in cycles 0 and 1
    A[i, j] = A[j, i] = 0.1 * np.sqrt(A[i, i] * A[j, j])
    return CovarianceModel("w", "block-diagonal", W.size, matrix=A.tocsr())


def a_diagonal_that_differs_in_one_cycle(W, pos):
    d = W.diag_values.copy()
    d[pos[1, 3]] *= 2.0
    return CovarianceModel("w", "diagonal", W.size, diag_values=d)


def a_factor_that_mixes_cycles(W, pos):
    U = W.matrix.U.copy()
    q = U.shape[1] // 2
    U[pos[1], :q] = 0.5 * U[pos[0], :q]  # cycle 0's columns reach cycle 1
    return CovarianceModel("w", "low-rank", W.size, diag_values=W.diag_values, matrix=U)


# Each change, and the cycles of every K that the solve factors: a hand-built
# W carries no cycle model, so woodbury's K D K' takes the whole G too.
@pytest.mark.parametrize("kind, change, factorization, cycles", [
    ("oct-acov", one_entry_between_cycles, "two-stage", [2]),
    ("oct-wlsv", a_diagonal_that_differs_in_one_cycle, "two-stage", [2]),
    ("oct-shr", a_factor_that_mixes_cycles, "woodbury", [2, 2]),
])
def test_models_that_are_not_equal_cycles_take_the_full_path(
    factored_ranks, kind, change, factorization, cycles
):
    xts = grouped_structure(32, 4, 12, 2)
    y, residuals = seeded_inputs(xts)
    W = change(cross_temporal_cov(kind, xts, residuals), _cycle_positions(xts.ts, 2, xts.n))
    assert W.one_cycle is None
    res = reconcile_flat(y, xts, W)
    assert factored_ranks == [xts.rank // 2 * c for c in cycles]
    assert res.diagnostics["factorization"] == factorization
    assert relative_gap(res.y_tilde, project(y, W, xts.kernel).y_tilde) <= 1e-10
    assert res.diagnostics["constraint_residual"] <= 1e-10 * np.max(np.abs(y))


@pytest.mark.parametrize("n, m, h, C, xm", [
    # 2 series at h = 3 and 3 series at h = 2, both 42 values at m = 4
    (2, 4, 3, [[1, 1]], 4),
    # 3 series at m = 4 and 7 series at m = 2, both 21 values a cycle, h = 2
    (3, 4, 2, [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]], 2),
])
def test_a_model_laid_out_for_another_structure_takes_the_full_path(
    factored_ranks, n, m, h, C, xm
):
    ts = build_temporal(m)
    rng = np.random.default_rng(3)
    residuals = ResidualTableau(rng.standard_normal((n * ts.cycle_len, 30)), n, ts)
    W = temporal_cov("t-acov", ts, residuals, h=h)
    xts = build_cross_temporal(build_cross_sectional(C), build_temporal(xm), 2)
    assert W.size == xts.size and W.one_cycle is not None
    assert W.cycle_layout != (xts.ts.factors, xts.h, xts.n)
    y = rng.standard_normal(xts.size)
    res = reconcile_flat(y, xts, W)
    assert factored_ranks == [xts.rank]
    assert relative_gap(res.y_tilde, project(y, W, xts.kernel).y_tilde) <= 1e-10
    assert res.diagnostics["constraint_residual"] <= 1e-10 * np.max(np.abs(y))


@pytest.mark.parametrize("kind", ["oct-bdsam", "oct-bdsam-l"])
def test_ill_conditioned_kinds_per_cycle_are_as_accurate_as_the_bare_kernel(kind):
    """At 3108 values the sample kinds' ``G`` is ill-conditioned (39 residual
    cycles for 37 series), so the two paths differ by up to 1.1e-10 relative.
    Against a solve refined five times, the per-cycle path's error in ``y~``
    stays within twice the bare kernel's, both under 2e-10 of ``max|y|``."""
    xts = grouped_structure(32, 4, 12, 3)
    y, residuals = seeded_inputs(xts)
    W = cross_temporal_cov(kind, xts, residuals)
    K, d0 = xts.kernel, xts.kernel @ y
    errors = []
    for structure in (xts, None):
        solve = _normal_factor(K, W, "test", structure)[1]
        x = refined = solve(d0)
        for _ in range(5):
            refined = refined + solve(d0 - K @ W.apply(K.T @ refined))
        errors.append(np.max(np.abs(W.apply(K.T @ (x - refined)))) / np.max(np.abs(y)))
    per_cycle, bare = errors
    assert per_cycle <= 2 * bare and max(errors) <= 2e-10


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
    with pytest.raises(SingularSystem, match=message):  # a stack of diagonals
        _projectors(Z, np.stack([healthy, bad, healthy]))
    with pytest.raises(SingularSystem, match=message):  # a stack of matrices
        _projectors(Z, np.stack([np.diag(healthy), np.diag(bad)]))


def test_stacked_projectors_scale_each_tolerance():
    ts = build_temporal(12)
    Z = build_cross_temporal(build_cross_sectional([[1, 1]]), ts, 1).temporal_kernel
    healthy = np.random.default_rng(71).uniform(0.5, 2.0, ts.cycle_len)
    projs = _projectors(Z, np.stack([1e12 * healthy, 1e-6 * healthy]))
    W = CovarianceModel(kind="w", structure="diagonal", size=healthy.size, diag_values=healthy)
    single = projector(Z, W)
    for P in projs:  # W and c W give the same projector
        np.testing.assert_allclose(P, single, rtol=1e-10, atol=1e-12)


def solve_projectors(kernel, blocks):
    """The projector stack by batched solves with the lower Cholesky
    factors: how :func:`_projectors` once built it."""
    K = np.asarray(kernel.todense() if sp.issparse(kernel) else kernel, dtype=float)
    KW = K * blocks[:, None, :] if blocks.ndim == 2 else K @ blocks
    L = _cholesky_gate(KW @ K.T)[0]
    B = np.concatenate([np.broadcast_to(K, KW.shape), KW], axis=-1)
    V, VW = np.split(np.linalg.solve(L, B), 2, axis=-1)  # L^{-1} K, L^{-1} K W
    return np.eye(K.shape[1]) - np.swapaxes(VW, -1, -2) @ V


@pytest.mark.parametrize("shape", sorted({shape for *_, shape in ESTIMATE_CASES}))
def test_projector_stacks_match_the_batched_solves(shape):
    xts = grouped_structure(*shape)
    _, residuals = seeded_inputs(xts)
    for kind in T_KINDS:
        blocks = _series_blocks(temporal_cov(kind, xts.ts, residuals, xts.h), xts.n)
        got = _projectors(xts.temporal_kernel, blocks)
        assert relative_gap(got, solve_projectors(xts.temporal_kernel, blocks)) <= 1e-13, kind
    for kind in CS_KINDS:
        E = [residuals.level_matrix(k) for k in xts.ts.factors]
        blocks = np.stack([cross_sectional_cov(kind, xts.cs, Ek).dense() for Ek in E])
        got = _projectors(xts.cs.kernel, blocks)
        assert relative_gap(got, solve_projectors(xts.cs.kernel, blocks)) <= 1e-13, kind


def per_series_loop(xts, kind, residuals):
    """Each series' temporal projector from its own ``temporal_cov`` call,
    the model densified: how the projectors were once built."""
    E = [None if residuals is None else residuals.series_block(i) for i in range(xts.n)]
    models = [temporal_cov(kind, xts.ts, Ei, h=xts.h) for Ei in E]
    return _projectors(xts.temporal_kernel, np.stack([W.dense() for W in models]))


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("kind", T_KINDS)
def test_temporal_projectors_match_the_per_series_loop(kind, h):
    rng = np.random.default_rng(80 + h)
    xts = random_structure(rng, h_choices=(h,))
    cases = [(xts, random_residuals(rng, xts, n_cycles=xts.ts.cycle_len + 5))]
    medium = grouped_structure(32, 4, 12, h)
    cases.append((medium, seeded_inputs(medium)[1]))
    if kind in ("t-ols", "t-struc"):
        cases += [(xts, None), (medium, None)]
    for xts, residuals in cases:
        got = _per_series_temporal_projectors(xts, kind, residuals)
        np.testing.assert_array_equal(got, per_series_loop(xts, kind, residuals))


@pytest.mark.parametrize("kind, stack", [
    ("t-ols", 1), ("t-struc", 1), ("t-wlsv", 37),
    ("cs-ols", 1), ("cs-struc", 1), ("cs-shr", 6),
    ("oct-ols", 1), ("oct-wlsv", 37),
])
def test_equal_series_blocks_factor_one_temporal_projector(monkeypatch, kind, stack):
    """A stack of equal blocks reaches the SPD gate as one block: the
    temporal projectors of every series, the cross-sectional projectors of
    every level, and stage one of the two-stage solve."""
    xts = grouped_structure(32, 4, 12, 1)  # 37 series, 6 levels
    y, residuals = seeded_inputs(xts)
    stacks = []

    def spy(A):
        stacks.append(A.shape[:-2])
        return _cholesky_gate(A)

    monkeypatch.setattr(ctrec.reconcile, "_cholesky_gate", spy)
    if kind.startswith("t-"):
        assert len(_per_series_temporal_projectors(xts, kind, residuals)) == xts.n
    elif kind.startswith("cs-"):
        assert len(_per_level_projectors(xts, kind, residuals)) == len(xts.ts.factors)
    else:
        res = reconcile_cross_temporal(y.reshape(xts.n, xts.width), xts, kind, residuals)
        assert res.diagnostics["factorization"] == "two-stage"
        assert stacks.pop() == ()  # stage two: the dense Schur complement
    assert stacks == [(stack,)]


@pytest.mark.parametrize("kind", ["t-ols", "t-wlsv"])
def test_temporal_projectors_reject_residuals_of_other_series(toy, kind):
    other = build_cross_temporal(build_cross_sectional([[1, 1, 1]]), toy.ts, 1)
    residuals = random_residuals(np.random.default_rng(81), other)
    with pytest.raises(DimensionMismatch, match="residuals cover 4 series, not 3"):
        reconcile_temporal(toy.tableau(np.ones((toy.n, toy.width))), kind, residuals)


def test_tableaux_and_structures_leave_caller_arrays_writeable(toy):
    Y = np.random.default_rng(72).normal(size=(toy.n, toy.width))
    toy.tableau(Y)
    reconcile_cross_temporal(Y, toy, "oct-ols")
    ka_two_step(Y, toy, HeuristicConfig("t-ols", "cs-ols"))
    C = np.array([[1.0, 1.0]])
    build_cross_sectional(C)
    assert Y.flags.writeable and C.flags.writeable
