"""Synthetic coherent datasets and naive base forecasters.

Demo and test plumbing: bottom paths are drawn as seeded seasonal random
walks and aggregated to every node and level, so the generated actuals
are exactly coherent.  The naive forecasters fit one damped carry-over
parameter per node, which makes the base forecasts generically incoherent
(as independently produced forecasts are) while keeping per-level
residuals with realistic seasonal autocorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import ResidualTableau
from .errors import InvalidInput, require_integer
from .hierarchy import CrossSectionalStructure
from .temporal import TemporalStructure, full_summing, whole_cycles

__all__ = ["NoiseSpec", "generate_coherent", "naive_base_forecasts"]


@dataclass(frozen=True)
class NoiseSpec:
    """Shape of the generated bottom paths."""

    level: float = 20.0
    season_amplitude: float = 4.0
    drift: float = 0.05
    sigma: float = 1.0


def generate_coherent(
    cs: CrossSectionalStructure,
    ts: TemporalStructure,
    n_cycles: int,
    seed: int = 0,
    noise: NoiseSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw coherent actuals for ``n_cycles`` cycles.

    Returns ``(actuals, bottoms)``: the ``n x n_cycles(k*+m)``
    level-blocked tableau over all cycles and the underlying
    ``n_b x n_cycles*m`` bottom paths.  Reruns with the same seed are
    bit-identical.
    """
    require_integer("n_cycles", n_cycles, 1)
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
        # Seasonal random walk: each season follows its own random walk.
        shocks = noise.sigma * rng.standard_normal(T)
        walk = np.zeros(T)
        for j in range(ts.m, T):
            walk[j] = walk[j - ts.m] + shocks[j]
        bottoms[i] = noise.level + noise.drift * t + season + walk
    full = bottoms @ full_summing(ts, n_cycles).T
    actuals = np.vstack([cs.agg_matrix @ full, full])
    return actuals, bottoms


def _damped_seasonal_fit(v: np.ndarray, period: int) -> float:
    """Least-squares carry-over coefficient of the one-season-back value."""
    past, cur = v[:-period], v[period:]
    denom = float(np.dot(past, past))
    if denom == 0.0:
        return 1.0
    return float(np.dot(past, cur) / denom)


def naive_base_forecasts(
    actuals: np.ndarray,
    cs: CrossSectionalStructure,
    ts: TemporalStructure,
    origin: int,
    h: int = 1,
    scheme: str = "seasonal-naive",
) -> tuple[np.ndarray, ResidualTableau]:
    """Per-node naive forecasts after ``origin`` training cycles.

    Each node of the cross-temporal hierarchy is forecast from its own
    aggregated history only, so the forecasts are generically incoherent.

    ``seasonal-naive`` carries the previous season forward, damped by a
    per-node least-squares coefficient; ``mean`` pulls toward the
    training mean with a fitted first-order decay.  In-sample one-step
    residuals start at the second training cycle, giving ``origin - 1``
    residual columns.
    """
    if scheme not in ("seasonal-naive", "mean"):
        raise InvalidInput(f"unknown scheme {scheme!r}")
    actuals, n_total = whole_cycles(actuals, cs.n, ts, "actuals")
    cl = ts.cycle_len
    require_integer("h", h, 1)
    require_integer("origin", origin, 2)  # two training cycles at least
    if origin + h > n_total:
        raise InvalidInput(
            f"origin {origin} plus horizon {h} exceeds the {n_total} cycles"
        )

    n = cs.n
    Y_hat = np.empty((n, h * cl))
    resid = np.empty((n * cl, origin - 1))
    for i in range(n):
        col = 0
        for k in ts.factors:
            Mk = ts.M_k[k]
            src = ts.level_slice(k, n_total)
            series = actuals[i, src]
            train = series[: origin * Mk]
            if scheme == "seasonal-naive":
                phi = _damped_seasonal_fit(train, Mk)
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
                fitted = fitted[Mk - 1 :]  # align to full cycles from cycle 2
            errors = train[Mk:] - fitted[-(origin - 1) * Mk :]
            err_cycles = errors.reshape(origin - 1, Mk).T
            off = ts.level_slice(k).start
            resid[i * cl + off : i * cl + off + Mk] = err_cycles
            Y_hat[i, col : col + h * Mk] = fc
            col += h * Mk
    return Y_hat, ResidualTableau(resid, n, ts)
