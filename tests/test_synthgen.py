import numpy as np
import pytest

from ctrec import (
    InvalidInput,
    NoiseSpec,
    build_cross_sectional,
    build_temporal,
    coherence_report,
    generate_coherent,
    naive_base_forecasts,
)
from ctrec.temporal import build_full_temporal_kernel, full_summing
from tests.conftest import grouped_structure


@pytest.fixture
def toy_parts():
    cs = build_cross_sectional([[1, 1]], ["X", "W", "Z"])
    ts = build_temporal(4)
    return cs, ts


def test_deterministic_reruns(toy_parts):
    cs, ts = toy_parts
    a1, b1 = generate_coherent(cs, ts, 10, seed=42)
    a2, b2 = generate_coherent(cs, ts, 10, seed=42)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    a3, _ = generate_coherent(cs, ts, 10, seed=43)
    assert np.any(a3 != a1)


def test_generated_actuals_coherent(toy_parts, toy):
    cs, ts = toy_parts
    actuals, _ = generate_coherent(cs, ts, 20, seed=1)
    Z = build_full_temporal_kernel(ts, 20)
    assert np.abs(cs.kernel @ actuals).max() <= 1e-10
    assert np.abs(Z @ actuals.T).max() <= 1e-10


def test_constant_paths_give_constant_multiples(toy_parts):
    cs, ts = toy_parts
    spec = NoiseSpec(level=3.0, season_amplitude=0.0, drift=0.0, sigma=0.0)
    actuals, bottoms = generate_coherent(cs, ts, 5, seed=0, noise=spec)
    np.testing.assert_allclose(bottoms, 3.0)
    for k in ts.factors:
        np.testing.assert_allclose(
            actuals[1, ts.level_slice(k, 5)], 3.0 * k
        )
    np.testing.assert_allclose(actuals[0], 2.0 * actuals[1])


def test_base_forecasts_incoherent(toy_parts, toy):
    cs, ts = toy_parts
    actuals, _ = generate_coherent(cs, ts, 20, seed=5)
    for scheme in ("seasonal-naive", "mean"):
        Y_hat, resid = naive_base_forecasts(
            actuals, cs, ts, origin=18, h=1, scheme=scheme
        )
        d_cs, d_te = coherence_report(Y_hat, toy)
        assert d_cs > 1e-12 and d_te > 1e-12


def test_residual_layout(toy_parts):
    cs, ts = toy_parts
    actuals, _ = generate_coherent(cs, ts, 15, seed=6)
    origin = 12
    Y_hat, resid = naive_base_forecasts(actuals, cs, ts, origin=origin, h=1)
    assert Y_hat.shape == (3, 7)
    assert resid.values.shape == (21, origin - 1)
    # residual of the annual total at cycle tau+1 is y - phi * y_prev
    series = actuals[0, ts.level_slice(4, 15)][:origin]
    phi = float(np.dot(series[:-1], series[1:]) / np.dot(series[:-1], series[:-1]))
    expected = series[1:] - phi * series[:-1]
    np.testing.assert_allclose(resid.series_block(0)[0], expected, atol=1e-12)


def test_two_cycle_horizon(toy_parts):
    cs, ts = toy_parts
    actuals, _ = generate_coherent(cs, ts, 15, seed=7)
    Y_hat, _ = naive_base_forecasts(actuals, cs, ts, origin=10, h=2)
    assert Y_hat.shape == (3, 14)


def test_invalid_arguments(toy_parts):
    cs, ts = toy_parts
    actuals, _ = generate_coherent(cs, ts, 5, seed=8)
    with pytest.raises(InvalidInput):
        naive_base_forecasts(actuals, cs, ts, origin=5, h=1)
    with pytest.raises(InvalidInput):
        naive_base_forecasts(actuals, cs, ts, origin=1, h=1)
    with pytest.raises(InvalidInput):
        generate_coherent(cs, ts, 0)
    with pytest.raises(InvalidInput):
        naive_base_forecasts(actuals, cs, ts, origin=4, h=1, scheme="arima")


def loop_generate_coherent(cs, ts, n_cycles, seed=0, noise=None):
    """Reference: the seasonal walk one step at a time."""
    noise = noise or NoiseSpec()
    rng = np.random.default_rng(seed)
    T = n_cycles * ts.m
    t = np.arange(T)
    bottoms = np.empty((cs.n_b, T))
    for i in range(cs.n_b):
        phase = rng.uniform(0, 2 * np.pi)
        season = noise.season_amplitude * np.sin(
            2 * np.pi * (t % ts.m) / max(ts.m, 2) + phase
        )
        shocks = noise.sigma * rng.standard_normal(T)
        walk = np.zeros(T)
        for j in range(ts.m, T):
            walk[j] = walk[j - ts.m] + shocks[j]
        bottoms[i] = noise.level + noise.drift * t + season + walk
    full = bottoms @ full_summing(ts, n_cycles).T
    return np.vstack([cs.agg_matrix @ full, full]), bottoms


def loop_naive_base_forecasts(actuals, cs, ts, origin, h, scheme):
    """Reference: one series, one level and one forecast step at a time."""
    n_total = actuals.shape[1] // ts.cycle_len
    cl = ts.cycle_len
    Y_hat = np.empty((cs.n, h * cl))
    resid = np.empty((cs.n * cl, origin - 1))
    for i in range(cs.n):
        col = 0
        for k in ts.factors:
            Mk = ts.M_k[k]
            train = actuals[i, ts.level_slice(k, n_total)][: origin * Mk]
            if scheme == "seasonal-naive":
                past, cur = train[:-Mk], train[Mk:]
                denom = float(np.dot(past, past))
                phi = 1.0 if denom == 0.0 else float(np.dot(past, cur) / denom)
                fitted = phi * train[:-Mk]
                fc = np.empty(h * Mk)
                last = train[-Mk:]
                for j in range(h * Mk):
                    fc[j] = phi ** (j // Mk + 1) * last[j % Mk]
            else:
                mean = float(np.mean(train))
                dev = train - mean
                denom = float(np.dot(dev[:-1], dev[:-1]))
                rho = float(np.dot(dev[:-1], dev[1:]) / denom) if denom else 0.0
                rho = min(0.999, max(-0.999, rho))
                fitted = mean + rho * dev[:-1]
                steps = np.arange(1, h * Mk + 1)
                fc = mean + rho**steps * dev[-1]
                fitted = fitted[Mk - 1 :]
            errors = train[Mk:] - fitted[-(origin - 1) * Mk :]
            off = ts.level_slice(k).start
            resid[i * cl + off : i * cl + off + Mk] = errors.reshape(origin - 1, Mk).T
            Y_hat[i, col : col + h * Mk] = fc
            col += h * Mk
    return Y_hat, resid


GROUPED = [(4, 2), (9, 3)]  # (bottoms, interleaved groups) of grouped_structure


@pytest.mark.parametrize("m", [1, 2, 4, 6, 12])
@pytest.mark.parametrize("n_b, g", GROUPED)
def test_generate_coherent_matches_the_stepwise_walk(m, n_b, g):
    xts = grouped_structure(n_b, g, m, 1)
    for seed in (0, 5):
        actuals, bottoms = generate_coherent(xts.cs, xts.ts, 7, seed=seed)
        ref_actuals, ref_bottoms = loop_generate_coherent(xts.cs, xts.ts, 7, seed=seed)
        np.testing.assert_array_equal(actuals, ref_actuals)
        np.testing.assert_array_equal(bottoms, ref_bottoms)


@pytest.mark.parametrize("scheme", ["seasonal-naive", "mean"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 4, 6, 12])
@pytest.mark.parametrize("n_b, g", GROUPED)
def test_naive_forecasts_match_the_per_series_loop(m, h, scheme, n_b, g):
    """Residuals are bit-identical.  So are the forecasts, except seasonal-naive
    beyond the first cycle: NumPy's ``power`` and C's ``pow`` may round
    ``phi ** j`` apart in the last bit."""
    xts = grouped_structure(n_b, g, m, h)
    cs, ts = xts.cs, xts.ts
    actuals, _ = generate_coherent(cs, ts, 9 + h, seed=m + h)
    for k in ts.factors:  # from origin 2, seasonal-naive's zero history: phi = 1
        actuals[0, ts.level_slice(k, 9 + h).start + np.arange(ts.M_k[k])] = 0.0
    actuals[1] = 2.5  # the mean scheme's flat history: rho = 0
    for origin in (2, 9):
        Y_hat, resid = naive_base_forecasts(actuals, cs, ts, origin, h, scheme)
        ref_Y_hat, ref_resid = loop_naive_base_forecasts(actuals, cs, ts, origin, h, scheme)
        np.testing.assert_array_equal(resid.values, ref_resid)
        if scheme == "mean" or h == 1:
            np.testing.assert_array_equal(Y_hat, ref_Y_hat)
            continue
        np.testing.assert_allclose(Y_hat, ref_Y_hat, rtol=1e-15, atol=0.0)
        for k in ts.factors:
            first_cycle = ts.level_slice(k, h).start + np.arange(ts.M_k[k])
            np.testing.assert_array_equal(Y_hat[:, first_cycle], ref_Y_hat[:, first_cycle])
