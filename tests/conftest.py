"""Shared fixtures and random-instance helpers."""

import numpy as np
import pytest

from ctrec import (
    ResidualTableau,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    generate_coherent,
    naive_base_forecasts,
)


@pytest.fixture
def toy():
    """One total over two quarterly bottoms, a single forecast year."""
    cs = build_cross_sectional([[1, 1]], ["X", "W", "Z"])
    ts = build_temporal(4)
    return build_cross_temporal(cs, ts, 1)


def random_hierarchy(rng, n_max=10):
    """Random 0/1 aggregation matrix with a leading all-ones total row."""
    n_b = int(rng.integers(2, max(3, n_max - 1)))
    n_a = int(rng.integers(1, max(2, n_max - n_b + 1)))
    n_a = min(n_a, n_max - n_b)
    C = np.zeros((n_a, n_b))
    C[0] = 1.0
    for j in range(1, n_a):
        row = rng.integers(0, 2, n_b).astype(float)
        if not row.any():
            row[int(rng.integers(0, n_b))] = 1.0
        C[j] = row
    return build_cross_sectional(C)


def random_structure(rng, n_max=10, m_choices=(2, 4, 12), h_choices=(1, 2)):
    cs = random_hierarchy(rng, n_max)
    ts = build_temporal(int(rng.choice(m_choices)))
    h = int(rng.choice(h_choices))
    return build_cross_temporal(cs, ts, h)


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


def random_residuals(rng, xts, n_cycles=None):
    """Residual tableau large enough for every sample-based estimator."""
    dim = xts.n * xts.ts.cycle_len
    if n_cycles is None:
        n_cycles = dim + 10
    return ResidualTableau(
        rng.standard_normal((dim, n_cycles)), xts.n, xts.ts
    )
