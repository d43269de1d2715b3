import numpy as np
import pytest
import scipy.sparse as sp

from ctrec import (
    InvalidInput,
    NotAFactor,
    RaggedEdge,
    ResidualTableau,
    aggregate_series,
    build_cross_sectional,
    build_full_temporal_kernel,
    build_temporal,
    generate_coherent,
)
from ctrec.temporal import build_full_temporal_agg, full_summing


def full_vector(ts, x):
    """Stack all temporal aggregates of ``x`` in the level-blocked layout."""
    return np.concatenate([aggregate_series(ts, x, k) for k in ts.factors])


QUARTERLY_K1 = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
    ],
    dtype=float,
)

MONTHLY_K1 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    ],
    dtype=float,
)


def test_quarterly_matrices():
    ts = build_temporal(4)
    assert ts.factors == (4, 2, 1)
    assert ts.k_star == 3
    np.testing.assert_array_equal(ts.agg_matrix, QUARTERLY_K1)
    np.testing.assert_array_equal(
        ts.summing_matrix, np.vstack([QUARTERLY_K1, np.eye(4)])
    )
    np.testing.assert_array_equal(
        ts.kernel, np.hstack([np.eye(3), -QUARTERLY_K1])
    )
    np.testing.assert_array_equal(ts.kernel @ ts.summing_matrix, 0.0)


def test_monthly_matrices():
    ts = build_temporal(12)
    assert ts.factors == (12, 6, 4, 3, 2, 1)
    assert ts.k_star == 16
    assert ts.agg_matrix.shape == (16, 12)
    np.testing.assert_array_equal(ts.agg_matrix, MONTHLY_K1)


def test_degenerate_single_frequency():
    ts = build_temporal(1)
    assert ts.factors == (1,)
    assert ts.k_star == 0
    assert ts.agg_matrix.shape == (0, 1)
    np.testing.assert_array_equal(ts.summing_matrix, np.eye(1))


def test_hourly_dimensions():
    ts = build_temporal(24)
    assert ts.k_star == 36
    assert ts.kernel.shape == (36, 60)
    Z = build_full_temporal_kernel(ts, 1)
    assert Z.shape == (36, 60)


def test_invariants_across_m():
    for m in (1, 2, 3, 4, 6, 7, 12, 16, 24, 30):
        ts = build_temporal(m)
        divisors = [k for k in range(m, 0, -1) if m % k == 0]
        assert list(ts.factors) == divisors
        assert ts.k_star + ts.m == sum(ts.M_k.values())
        np.testing.assert_array_equal(ts.kernel @ ts.summing_matrix, 0.0)
        gram = ts.summing_matrix.T @ ts.summing_matrix
        assert np.linalg.matrix_rank(gram) == m


def test_zero_m_rejected():
    with pytest.raises(InvalidInput):
        build_temporal(0)


def test_factor_whitelist():
    ts = build_temporal(12, factors=[12, 3, 1])
    assert ts.factors == (12, 3, 1)
    assert ts.k_star == 1 + 4
    assert ts.agg_matrix.shape == (5, 12)
    np.testing.assert_array_equal(ts.kernel @ ts.summing_matrix, 0.0)
    with pytest.raises(InvalidInput):
        build_temporal(12, factors=[6, 3, 1])
    with pytest.raises(NotAFactor):
        build_temporal(12, factors=[12, 5, 1])
    # excluded orders are rejected even when they divide the cycle length
    with pytest.raises(NotAFactor):
        aggregate_series(ts, np.ones(12), 6)


def test_aggregate_series_examples():
    ts = build_temporal(4)
    np.testing.assert_array_equal(
        aggregate_series(ts, [1.0, 2.0, 3.0, 4.0], 2), [3.0, 7.0]
    )
    x = np.arange(8, dtype=float)
    np.testing.assert_array_equal(aggregate_series(ts, x, 1), x)
    np.testing.assert_array_equal(
        aggregate_series(ts, np.ones(8), 4), [4.0, 4.0]
    )
    with pytest.raises(RaggedEdge):
        aggregate_series(ts, np.ones(6), 2)
    with pytest.raises(NotAFactor):
        aggregate_series(ts, np.ones(8), 3)


def test_full_kernel_single_cycle_matches():
    ts = build_temporal(4)
    np.testing.assert_array_equal(
        build_full_temporal_kernel(ts, 1).toarray(), ts.kernel
    )


def test_full_kernel_two_cycles():
    ts = build_temporal(4)
    Z = build_full_temporal_kernel(ts, 2)
    assert Z.shape == (6, 14)
    rng = np.random.default_rng(11)
    x = rng.normal(size=8)
    stacked = full_vector(ts, x)
    assert stacked.shape == (14,)
    assert np.max(np.abs(Z @ stacked)) <= 1e-12


def test_full_kernel_annihilates_aggregates_all_m():
    rng = np.random.default_rng(5)
    for m in range(1, 65):
        ts = build_temporal(m)
        N = 2
        x = rng.normal(scale=100.0, size=N * m)
        resid = build_full_temporal_kernel(ts, N) @ full_vector(ts, x)
        assert np.max(np.abs(resid), initial=0.0) <= 1e-10


def test_full_summing_consistency():
    ts = build_temporal(6)
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    np.testing.assert_allclose(full_summing(ts, 2) @ x, full_vector(ts, x))


def test_level_slices():
    ts = build_temporal(4)
    assert ts.level_slice(4) == slice(0, 1)
    assert ts.level_slice(2) == slice(1, 3)
    assert ts.level_slice(1) == slice(3, 7)
    assert ts.level_slice(2, cycles=3) == slice(3, 9)
    with pytest.raises(NotAFactor):
        ts.level_slice(3)


QUARTERLY = build_temporal(4)
COUNT_CASES = {
    "build_temporal m True": lambda: build_temporal(True),
    "build_temporal factor 0": lambda: build_temporal(4, [4, 0, 1]),
    "build_temporal factor -2": lambda: build_temporal(4, [4, -2, 1]),
    "build_temporal factor 2.5": lambda: build_temporal(4, [4, 2.5, 1]),
    "generate_coherent n_cycles 2.5": lambda: generate_coherent(
        build_cross_sectional([[1, 1]]), QUARTERLY, 2.5
    ),
    "build_full_temporal_kernel N 2.5": lambda: build_full_temporal_kernel(QUARTERLY, 2.5),
    "aggregate_series k 2.0": lambda: aggregate_series(QUARTERLY, np.ones(8), 2.0),
    "ResidualTableau n 0": lambda: ResidualTableau(np.ones((0, 3)), 0, QUARTERLY),
    "ResidualTableau n 1.0": lambda: ResidualTableau(np.ones((7, 3)), 1.0, QUARTERLY),
}


@pytest.mark.parametrize("case", list(COUNT_CASES))
def test_counts_and_orders_must_be_integers_of_at_least_1(case):
    with pytest.raises(InvalidInput, match="must be an integer of at least 1, got"):
        COUNT_CASES[case]()


def kron_temporal_agg(ts, N):
    """One ``I_{N M_k} (x) ones(1, k)`` per non-unit factor, stacked: how
    :func:`build_full_temporal_agg` once built the matrix."""
    blocks = [
        sp.kron(sp.identity(N * ts.M_k[k]), np.ones((1, k)), format="csr")
        for k in ts.factors[:-1]
    ]
    return sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix((0, N * ts.m))


@pytest.mark.parametrize("N", [1, 2, 5, 40])
@pytest.mark.parametrize(
    "m, factors",
    [(1, None), (2, None), (3, None), (4, None), (6, None), (7, None), (12, None), (24, None),
     (12, [12, 3, 1]), (12, [12, 6, 4, 1]), (24, [24, 8, 2, 1])],
)
def test_full_temporal_agg_matches_the_kron_build(m, factors, N):
    ts = build_temporal(m, factors)
    got, ref = build_full_temporal_agg(ts, N), kron_temporal_agg(ts, N)
    assert got.shape == ref.shape and got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
