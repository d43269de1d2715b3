import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrec import (
    DimensionMismatch,
    InvalidEntry,
    InvalidInput,
    build_cross_sectional,
    coherent_subspace_check,
    deduplicate_nodes,
)

TWO_LEVEL_C = [
    [1, 1, 1, 1, 1],
    [1, 1, 0, 0, 0],
    [0, 0, 1, 1, 1],
]


def test_two_level_example_matrices():
    st_ = build_cross_sectional(TWO_LEVEL_C)
    assert st_.n_a == 3 and st_.n_b == 5 and st_.n == 8
    expected_S = np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(st_.summing_matrix, expected_S)
    np.testing.assert_array_equal(
        st_.kernel, np.hstack([np.eye(3), -np.array(TWO_LEVEL_C, dtype=float)])
    )
    np.testing.assert_array_equal(st_.kernel @ st_.summing_matrix, np.zeros((3, 5)))


def test_smallest_hierarchy():
    st_ = build_cross_sectional([[1]])
    np.testing.assert_array_equal(st_.summing_matrix, [[1.0], [1.0]])
    np.testing.assert_array_equal(st_.kernel, [[1.0, -1.0]])


def test_single_sum_kernel():
    st_ = build_cross_sectional([[1, 1]])
    np.testing.assert_array_equal(st_.kernel, [[1.0, -1.0, -1.0]])
    np.testing.assert_array_equal(st_.kernel @ st_.summing_matrix, np.zeros((1, 2)))


def test_default_labels_and_accessors():
    st_ = build_cross_sectional([[1, 1]])
    assert st_.labels == ("U1", "B1", "B2")
    assert st_.upper_labels == ("U1",)
    assert st_.bottom_labels == ("B1", "B2")


def test_label_validation():
    with pytest.raises(DimensionMismatch):
        build_cross_sectional([[1, 1]], ["A", "B"])
    with pytest.raises(DimensionMismatch):
        build_cross_sectional([[1, 1]], ["A", "B", "B"])


def test_nan_rejected():
    with pytest.raises(InvalidEntry):
        build_cross_sectional([[1, np.nan]])
    with pytest.raises(InvalidEntry):
        build_cross_sectional([[1, np.inf]])


def test_empty_rejected():
    with pytest.raises(DimensionMismatch):
        build_cross_sectional(np.zeros((0, 3)))


def test_weighted_matrix_allowed():
    st_ = build_cross_sectional([[0.5, 2.0]])
    assert np.max(np.abs(st_.kernel @ st_.summing_matrix)) <= 1e-12


def test_dedup_unbalanced_example():
    # Balanced form of a three-level hierarchy whose third child has no
    # children of its own; the last upper row duplicates a bottom row.
    C = np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    labels = ["Tot", "A", "B", "Cdup", "AA", "AB", "BA", "BB", "C"]
    C_red, labels_red, removed = deduplicate_nodes(C, labels)
    expected = np.array(
        [[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0]], dtype=float
    )
    np.testing.assert_array_equal(C_red, expected)
    assert removed == ["Cdup"]
    assert labels_red == ["Tot", "A", "B", "AA", "AB", "BA", "BB", "C"]


def test_dedup_noop():
    C = np.array(TWO_LEVEL_C, dtype=float)
    C_red, _, removed = deduplicate_nodes(C)
    np.testing.assert_array_equal(C_red, C)
    assert removed == []


def test_dedup_by_hand():
    C = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    C_red, labels_red, removed = deduplicate_nodes(C, ["U1", "U2", "U3", "B1", "B2"])
    np.testing.assert_array_equal(C_red, [[1.0, 1.0]])
    assert removed == ["U1", "U2"]
    assert labels_red == ["U3", "B1", "B2"]


def test_dedup_idempotent():
    C = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
    once, labels_once, _ = deduplicate_nodes(C)
    twice, labels_twice, removed = deduplicate_nodes(once, labels_once)
    np.testing.assert_array_equal(once, twice)
    assert removed == [] and labels_once == labels_twice


def test_dedup_tolerance_for_floats():
    C = np.array([[1.0 + 5e-13, 0.0], [1.0, 0.5]])
    C_red, _, removed = deduplicate_nodes(C)
    assert C_red.shape == (1, 2) and len(removed) == 1


def test_coherent_subspace_check(toy):
    cs = toy.cs
    rng = np.random.default_rng(3)
    B = rng.normal(size=(cs.n_b, 6))
    Y = cs.summing_matrix @ B
    assert coherent_subspace_check(Y, cs, tol=1e-12)
    Y_bad = Y.copy()
    Y_bad[0, 0] += 1.0
    assert not coherent_subspace_check(Y_bad, cs, tol=1e-9)
    assert coherent_subspace_check(np.zeros((cs.n, 4)), cs, tol=0.0)
    with pytest.raises(DimensionMismatch):
        coherent_subspace_check(np.zeros((cs.n + 1, 4)), cs)
    Y_bad[0, 0] = np.nan
    with pytest.raises(InvalidEntry, match="NaN"):
        coherent_subspace_check(Y_bad, cs)
    with pytest.raises(InvalidInput, match="tolerance"):
        coherent_subspace_check(Y, cs, tol=-1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n_a=st.integers(1, 20),
    n_b=st.integers(1, 50),
    seed=st.integers(0, 2**31 - 1),
)
def test_column_sums_property(n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    C = rng.integers(0, 2, size=(n_a, n_b)).astype(float)
    st_ = build_cross_sectional(C)
    np.testing.assert_array_equal(st_.kernel @ st_.summing_matrix, 0.0)
    col_sums = st_.summing_matrix.sum(axis=0)
    np.testing.assert_array_equal(col_sums, 1.0 + C.sum(axis=0))


@pytest.mark.parametrize("count", [3, 6])
def test_deduplicate_nodes_rejects_a_wrong_label_count(count):
    C = [[1, 1, 1], [0, 1, 0]]  # five nodes
    with pytest.raises(DimensionMismatch, match=f"expected 5 labels, got {count}"):
        deduplicate_nodes(C, [f"L{i}" for i in range(count)])


def loop_deduplicate_nodes(C, labels):
    """Reference: the unit-row test one upper row at a time."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n_a = C.shape[0]
    tol = 0.0 if np.allclose(C, np.round(C), atol=0.0) else 1e-12
    keep, removed = [], []
    for j in range(n_a):
        nz = np.flatnonzero(np.abs(C[j]) > tol)
        if nz.size == 1 and abs(C[j, nz[0]] - 1.0) <= tol:
            removed.append(labels[j])
        else:
            keep.append(j)
    return C[keep], [labels[j] for j in keep] + list(labels[n_a:]), removed


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_deduplicate_nodes_matches_the_row_loop(seed, weighted):
    rng = np.random.default_rng(seed)
    n_b = int(rng.integers(2, 7))
    rows = [rng.integers(0, 3, n_b), np.eye(n_b)[rng.integers(n_b)], np.zeros(n_b),
            2.0 * np.eye(n_b)[0], -np.eye(n_b)[0], np.eye(n_b)[0] + np.eye(n_b)[-1]]
    if weighted:
        rows += [np.eye(n_b)[0] * (1.0 + 5e-13), np.eye(n_b)[1] * (1.0 + 5e-12),
                 np.eye(n_b)[0] + 5e-13 * np.eye(n_b)[1], rng.uniform(0, 1, n_b)]
    C = np.array(rows, dtype=float)[rng.permutation(len(rows))]
    labels = [f"N{i}" for i in range(C.shape[0] + n_b)]
    C_red, labels_red, removed = deduplicate_nodes(C, labels)
    ref_C, ref_labels, ref_removed = loop_deduplicate_nodes(C, labels)
    np.testing.assert_array_equal(C_red, ref_C)
    assert (labels_red, removed) == (ref_labels, ref_removed) and removed
