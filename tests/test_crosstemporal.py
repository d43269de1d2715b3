import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrec.crosstemporal
from ctrec import (
    DimensionMismatch,
    HeuristicConfig,
    InvalidInput,
    SingularSystem,
    bottom_up,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    coherence_report,
    commutation_matrix,
    iterative,
    ka_two_step,
    reconcile_cross_temporal,
    validate_raw_kernel,
)
from ctrec.covariance import CovarianceModel
from ctrec.crosstemporal import numerical_rank
from ctrec.reconcile import project
from ctrec.temporal import full_summing
from tests.conftest import random_hierarchy, random_residuals

# 2x3 numerical example: the permutation between the two vectorizations.
COMMUTATION_6 = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)

TOY_STRUCT_SUMMING = np.vstack(
    [
        np.array(
            [
                [1, 1, 1, 1, 1, 1, 1, 1],
                [1, 1, 0, 0, 1, 1, 0, 0],
                [0, 0, 1, 1, 0, 0, 1, 1],
                [1, 0, 0, 0, 1, 0, 0, 0],
                [0, 1, 0, 0, 0, 1, 0, 0],
                [0, 0, 1, 0, 0, 0, 1, 0],
                [0, 0, 0, 1, 0, 0, 0, 1],
                [1, 1, 1, 1, 0, 0, 0, 0],
                [1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 1],
            ],
            dtype=float,
        ),
        np.eye(8),
    ]
)


def toy_kernels():
    Z1 = np.hstack([np.eye(3), -np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]])])
    I7 = np.eye(7)
    redundant = np.vstack(
        [
            np.hstack([I7, -I7, -I7]),
            scipy.linalg.block_diag(Z1, Z1, Z1),
        ]
    )
    I_star = np.hstack([np.zeros((4, 3)), np.eye(4)])
    full_rank = np.vstack(
        [
            np.hstack([I_star, -I_star, -I_star]),
            scipy.linalg.block_diag(Z1, Z1, Z1),
        ]
    )
    return redundant, full_rank


def test_commutation_golden():
    X = np.array([[11.0, 12.0, 13.0], [21.0, 22.0, 23.0]])
    vec_X = X.ravel(order="F")
    vec_Xt = X.T.ravel(order="F")
    np.testing.assert_array_equal(commutation_matrix(3, 2).toarray(), COMMUTATION_6)
    np.testing.assert_array_equal(COMMUTATION_6 @ vec_Xt, vec_X)
    np.testing.assert_array_equal(commutation_matrix(2, 3) @ vec_X, vec_Xt)


def test_commutation_identity_and_involution():
    np.testing.assert_array_equal(commutation_matrix(1, 5).toarray(), np.eye(5))
    K = commutation_matrix(3, 3)
    np.testing.assert_array_equal((K @ K).toarray(), np.eye(9))
    K23 = commutation_matrix(2, 3)
    np.testing.assert_array_equal((K23.T @ K23).toarray(), np.eye(6))


@pytest.mark.parametrize("r, c", [(2.5, 2), (2, "3"), (True, 2), (0, 2)])
def test_commutation_matrix_rejects_a_dimension_that_is_not_a_positive_integer(r, c):
    with pytest.raises(InvalidInput, match="must be an integer of at least 1"):
        commutation_matrix(r, c)


def test_toy_golden_matrices(toy):
    redundant, full_rank = toy_kernels()
    assert toy.kernel_redundant.shape == (16, 21)
    np.testing.assert_array_equal(toy.kernel_redundant.toarray(), redundant)
    assert toy.kernel.shape == (13, 21)
    np.testing.assert_array_equal(toy.kernel.toarray(), full_rank)
    assert toy.struct_summing.shape == (21, 8)
    np.testing.assert_array_equal(toy.struct_summing.toarray(), TOY_STRUCT_SUMMING)
    assert toy.struct_agg.shape == (13, 8)
    np.testing.assert_array_equal(toy.struct_agg.toarray(), TOY_STRUCT_SUMMING[:13])
    assert numerical_rank(toy.kernel) == 13 == toy.rank


def test_toy_struct_perm_golden(toy):
    Q = np.zeros((21, 21))
    Q[:10, :10] = np.eye(10)
    for r, c in zip(range(10, 14), range(13, 17)):
        Q[r, c] = 1.0
    for r, c in zip(range(14, 17), range(10, 13)):
        Q[r, c] = 1.0
    Q[17:, 17:] = np.eye(4)
    np.testing.assert_array_equal(toy.struct_perm.toarray(), Q)


def test_tableau_vectorization_views(toy):
    rng = np.random.default_rng(0)
    tab = toy.tableau(rng.normal(size=(3, 7)))
    np.testing.assert_array_equal(
        tab.vec_by_variable, tab.values.ravel()
    )
    np.testing.assert_array_equal(
        tab.vec_by_time, tab.values.ravel(order="F")
    )
    np.testing.assert_array_equal(
        toy.commutation @ tab.vec_by_time, tab.vec_by_variable
    )
    again = type(tab).from_vec_by_variable(tab.vec_by_variable, toy)
    np.testing.assert_array_equal(again.values, tab.values)
    np.testing.assert_array_equal(tab.level_block(2), tab.values[:, 1:3])


def test_permutations_orthogonal(toy):
    for P in (toy.commutation, toy.struct_perm):
        prod = (P.T @ P).toarray()
        np.testing.assert_array_equal(prod, np.eye(P.shape[0]))


def test_pure_cross_sectional_reduction():
    cs = build_cross_sectional([[1]])
    ts = build_temporal(1)
    xts = build_cross_temporal(cs, ts, 1)
    np.testing.assert_array_equal(xts.kernel.toarray(), [[1.0, -1.0]])


def test_rank_formula_small():
    cs = build_cross_sectional([[1, 1]])
    ts = build_temporal(2)
    xts = build_cross_temporal(cs, ts, 1)
    assert xts.rank == 1 * 2 + 3 * 1 == 5
    assert numerical_rank(xts.kernel) == 5


@pytest.mark.parametrize("n_b,m,h", [(2, 4, 1), (3, 2, 2), (2, 4, 2), (4, 3, 1)])
def test_kernel_equivalence_small(n_b, m, h):
    rng = np.random.default_rng(n_b * 100 + m * 10 + h)
    C = np.vstack([np.ones(n_b), rng.integers(0, 2, (1, n_b)).astype(float) + 0.0])
    if not C[1].any():
        C[1, 0] = 1.0
    xts = build_cross_temporal(build_cross_sectional(C), build_temporal(m), h)
    null_red = scipy.linalg.null_space(xts.kernel_redundant.toarray())
    null_full = scipy.linalg.null_space(xts.kernel.toarray())
    assert null_red.shape[1] == null_full.shape[1] == xts.cs.n_b * xts.ts.m * h
    assert np.max(np.abs(xts.kernel @ null_red)) <= 1e-10
    assert np.max(np.abs(xts.kernel_redundant @ null_full)) <= 1e-10


def test_redundant_rows_in_full_row_space(toy):
    H_full = toy.kernel.toarray()
    H_red = toy.kernel_redundant.toarray()
    sol, resid, *_ = np.linalg.lstsq(H_full.T, H_red.T, rcond=None)
    recon = H_full.T @ sol
    assert np.max(np.abs(recon - H_red.T)) <= 1e-9


def test_struct_summing_spans_kernel(toy):
    QS = (toy.struct_perm @ toy.struct_summing).toarray()
    assert np.max(np.abs(toy.kernel @ QS)) <= 1e-10
    assert np.linalg.matrix_rank(QS) == toy.cs.n_b * toy.ts.m * toy.h


def test_struct_summing_bottom_identity(toy):
    S = toy.struct_summing.toarray()
    nbm = toy.cs.n_b * toy.ts.m * toy.h
    np.testing.assert_array_equal(S[-nbm:], np.eye(nbm))


def test_bottom_up_worked_example(toy):
    B = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    tab = bottom_up(B, toy)
    assert tab.values[0, 0] == 36.0  # total, annual
    assert tab.values[1, 0] == 10.0  # first bottom, annual
    np.testing.assert_array_equal(tab.values[2, 1:3], [11.0, 15.0])
    np.testing.assert_array_equal(tab.values[0, 3:], [6.0, 8.0, 10.0, 12.0])
    assert tab.provenance == "bottom-up"
    d_cs, d_te = coherence_report(tab, toy)
    assert d_cs <= 1e-12 and d_te <= 1e-12


def test_bottom_up_zero_and_structural_equivalence(toy):
    zero = bottom_up(np.zeros((2, 4)), toy)
    np.testing.assert_array_equal(zero.values, 0.0)
    rng = np.random.default_rng(8)
    B = rng.normal(size=(2, 4))
    tab = bottom_up(B, toy)
    via_struct = toy.struct_perm @ (toy.struct_summing @ B.ravel())
    np.testing.assert_allclose(tab.vec_by_variable, via_struct, atol=1e-12)


def test_bottom_up_dimension_check(toy):
    with pytest.raises(DimensionMismatch):
        bottom_up(np.zeros((2, 5)), toy)


def test_bottom_up_fixed_point_of_projection(toy):
    rng = np.random.default_rng(4)
    tab = bottom_up(rng.normal(size=(2, 4)), toy)
    y = tab.vec_by_variable
    W_diag = CovarianceModel(
        kind="w", structure="diagonal", size=21,
        diag_values=rng.uniform(0.5, 3.0, 21),
    )
    res = project(y, W_diag, toy.kernel)
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-10)
    A = rng.normal(size=(21, 21))
    W_full = CovarianceModel(
        kind="w", structure="full", size=21, matrix=A @ A.T + 21 * np.eye(21)
    )
    res = project(y, W_full, toy.kernel)
    np.testing.assert_allclose(res.y_tilde, y, atol=1e-9)


def test_coherence_report_cases(toy):
    rng = np.random.default_rng(9)
    Y = rng.normal(size=(3, 7))
    d_cs, d_te = coherence_report(Y, toy)
    assert d_cs > 0 and d_te > 0
    with pytest.raises(DimensionMismatch):
        coherence_report(np.zeros((3, 8)), toy)


def test_two_cycle_structure_shapes():
    cs = build_cross_sectional([[1, 1]])
    ts = build_temporal(4)
    xts = build_cross_temporal(cs, ts, 2)
    assert xts.width == 14 and xts.size == 42
    assert xts.kernel.shape == (2 * (1 * 4 + 3 * 3), 42)
    assert numerical_rank(xts.kernel) == xts.rank
    QS = (xts.struct_perm @ xts.struct_summing).toarray()
    assert np.max(np.abs(xts.kernel @ QS)) <= 1e-10
    rng = np.random.default_rng(1)
    tab = bottom_up(rng.normal(size=(2, 8)), xts)
    d_cs, d_te = coherence_report(tab, xts)
    assert d_cs <= 1e-10 and d_te <= 1e-10


def test_raw_kernel_path():
    # Two hierarchies sharing one total cannot be written as [I | -C]
    # directly; the raw constraint path takes the kernel as given.
    K = np.array(
        [
            [1, 0, -1, -1, -1, 0, 0],
            [1, 0, 0, 0, 0, -1, -1],
            [0, 1, -1, -1, 0, 0, 0],
        ],
        dtype=float,
    )
    validated = validate_raw_kernel(K)
    assert validated.shape == (3, 7)
    rng = np.random.default_rng(12)
    y = rng.normal(size=7)
    W = CovarianceModel(kind="ols", structure="identity", size=7)
    res = project(y, W, validated)
    assert np.max(np.abs(validated @ res.y_tilde)) <= 1e-10
    with pytest.raises(SingularSystem):
        validate_raw_kernel(np.vstack([K, K[0]]))
    with pytest.raises(DimensionMismatch):
        validate_raw_kernel(np.eye(3))


@st.composite
def aggregation_matrices(draw):
    """0/1 or weighted upper rows, some duplicated or summing a single unit."""
    n_b = draw(st.integers(1, 5))
    rows = []
    shapes = ("binary", "weighted", "single", "duplicate")
    for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=4)):
        if shape == "duplicate" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
        elif shape == "single":
            row = [0.0] * n_b
            row[draw(st.integers(0, n_b - 1))] = 1.0
        else:
            values = (0.0, 1.0) if shape != "weighted" else (0.0, 0.5, 1.0, 2.5, -1.0)
            row = draw(st.lists(st.sampled_from(values), min_size=n_b, max_size=n_b))
        rows.append(list(row))
    return np.array(rows)


@st.composite
def temporal_structures(draw):
    m = draw(st.sampled_from((1, 2, 4, 6, 12)))
    if draw(st.booleans()):
        return build_temporal(m)
    inner = [k for k in range(2, m) if m % k == 0]
    kept = draw(st.lists(st.sampled_from(inner), unique=True)) if inner else []
    return build_temporal(m, [m, 1, *kept])


@settings(max_examples=60, deadline=None)
@given(C=aggregation_matrices(), ts=temporal_structures(), h=st.integers(1, 3))
def test_kernel_full_row_rank_by_construction(C, ts, h):
    xts = build_cross_temporal(build_cross_sectional(C), ts, h)
    assert xts.kernel.shape[0] == xts.rank
    assert numerical_rank(xts.kernel) == xts.rank


def _hf_cross_sectional_rows(cs, ts, h):
    """Oracle: the cross-sectional kernel rows at the ``h*m`` highest-
    frequency points, entry by entry, time point first, then upper series."""
    q = h * ts.cycle_len
    rows, cols, vals = [], [], []
    for t in range(h * ts.m):
        for j in range(cs.n_a):
            for s in np.flatnonzero(cs.kernel[j]):
                rows.append(t * cs.n_a + j)
                cols.append(s * q + h * ts.k_star + t)
                vals.append(cs.kernel[j, s])
    return sp.csr_matrix((vals, (rows, cols)), shape=(h * ts.m * cs.n_a, cs.n * q))


@pytest.mark.parametrize("m", [1, 4, 12])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_kernel_hf_rows_match_the_entrywise_oracle(m, h):
    rng = np.random.default_rng(10 * m + h)
    C = random_hierarchy(rng).agg_matrix
    cs = build_cross_sectional(C * rng.uniform(0.5, 2.0, C.shape))
    ts = build_temporal(m)
    want = _hf_cross_sectional_rows(cs, ts, h)
    got = build_cross_temporal(cs, ts, h).kernel[: want.shape[0]]
    assert got.nnz == want.nnz
    np.testing.assert_array_equal(got.toarray(), want.toarray())


# ---------------------------------------------------------------------------
# Structural matrices, built on first use


LAZY = ("commutation", "struct_perm", "struct_summing", "struct_agg")


def struct_perm_oracle(cs, ts, h):
    """The per-bottom loop that built ``struct_perm`` eagerly."""
    q, lf, hf = h * ts.cycle_len, h * ts.k_star, h * ts.m
    perm = np.empty(cs.n * q, dtype=np.intp)
    for i in range(cs.n_a):
        perm[i * q : (i + 1) * q] = np.arange(i * q, (i + 1) * q)
    base = cs.n_a * q
    for ib in range(cs.n_b):
        dst = (cs.n_a + ib) * q
        perm[dst : dst + lf] = base + ib * lf + np.arange(lf)
        perm[dst + lf : dst + q] = base + cs.n_b * lf + ib * hf + np.arange(hf)
    return sp.csr_matrix((np.ones(perm.size), (np.arange(perm.size), perm)))


def eager_structural_matrices(cs, ts, h):
    """The four matrices as ``build_cross_temporal`` built them eagerly."""
    q = h * ts.cycle_len
    Q = struct_perm_oracle(cs, ts, h)
    summing = sp.csr_matrix(
        Q.T @ sp.kron(cs.summing_matrix, full_summing(ts, h), format="csr")
    )
    return {
        "commutation": commutation_matrix(cs.n, q),
        "struct_perm": Q,
        "struct_summing": summing,
        "struct_agg": sp.csr_matrix(summing[: cs.n_a * q + cs.n_b * h * ts.k_star]),
    }


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("seed", range(12))
def test_lazy_structural_matrices_equal_the_eager_construction(seed, h):
    rng = np.random.default_rng(seed)
    ts = build_temporal(int(rng.choice([1, 2, 3, 4, 6, 12])))
    cs = random_hierarchy(rng, 8)
    xts = build_cross_temporal(cs, ts, h)
    for name, want in eager_structural_matrices(cs, ts, h).items():
        got = getattr(xts, name)
        assert (got.format, got.shape) == ("csr", want.shape), name
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


def test_solves_build_no_structural_matrix(monkeypatch):
    built = []
    real = ctrec.crosstemporal.build_full_temporal_kernel

    def counted(ts, h):
        built.append(h)
        return real(ts, h)

    monkeypatch.setattr(ctrec.crosstemporal, "build_full_temporal_kernel", counted)
    rng = np.random.default_rng(3)
    cs = build_cross_sectional([[1, 1, 1], [1, 1, 0]])
    xts = build_cross_temporal(cs, build_temporal(4), 2)
    residuals = random_residuals(rng, xts)
    Y = rng.normal(size=(xts.n, xts.width))
    config = HeuristicConfig()
    reconcile_cross_temporal(Y, xts, "oct-wlsv", residuals)
    ka_two_step(Y, xts, config, residuals)
    iterative(Y, xts, config, residuals)
    coherence_report(Y, xts)
    assert built == [2]
    assert not set(LAZY) & set(vars(xts))
