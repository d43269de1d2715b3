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
from .errors import InvalidInput, require_integer, require_real
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

    def __post_init__(self):
        for name in ("level", "season_amplitude", "drift", "sigma"):
            require_real(name, getattr(self, name), 0 if name == "sigma" else None)


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
        # Seasonal random walk: each season follows its own random walk,
        # from zero in the first cycle.
        shocks = noise.sigma * rng.standard_normal(T)
        shocks[: ts.m] = 0.0
        walk = np.cumsum(shocks.reshape(n_cycles, ts.m), axis=0).ravel()
        bottoms[i] = noise.level + noise.drift * t + season + walk
    full = bottoms @ full_summing(ts, n_cycles).T
    actuals = np.vstack([cs.agg_matrix @ full, full])
    return actuals, bottoms


def _lsq_coefficients(x: np.ndarray, y: np.ndarray, default: float) -> np.ndarray:
    """Per row, the least-squares coefficient ``x . y / x . x`` of ``y`` on
    ``x``, or ``default`` for an all-zero row."""
    def dots(a, b):  # a (1 x L) @ (L x 1) matmul rounds as np.dot; einsum does not
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
    denom = dots(x, x)
    return np.divide(dots(x, y), denom, out=np.full(len(x), default), where=denom != 0.0)


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
    n = cs.n
    actuals, n_total = whole_cycles(actuals, n, ts, "actuals")
    require_integer("h", h, 1)
    require_integer("origin", origin, 2)  # two training cycles at least
    if origin + h > n_total:
        raise InvalidInput(
            f"origin {origin} plus horizon {h} exceeds the {n_total} cycles"
        )

    Y_hat, resid = np.empty((n, h * ts.cycle_len)), np.empty((n, ts.cycle_len, origin - 1))
    for k in ts.factors:
        Mk = ts.M_k[k]
        train = actuals[:, ts.level_slice(k, n_total)][:, : origin * Mk]
        if scheme == "seasonal-naive":
            # Damped carry-over of the value one season back.
            phi = _lsq_coefficients(train[:, :-Mk], train[:, Mk:], 1.0)[:, None]
            fitted = phi * train[:, :-Mk]
            fc = phi ** (np.arange(h * Mk) // Mk + 1) * np.tile(train[:, -Mk:], h)
        else:
            mean = np.mean(train, axis=1)[:, None]
            dev = train - mean
            rho = np.clip(_lsq_coefficients(dev[:, :-1], dev[:, 1:], 0.0), -0.999, 0.999)[:, None]
            fitted = (mean + rho * dev[:, :-1])[:, Mk - 1 :]  # full cycles from cycle 2
            fc = mean + rho ** np.arange(1, h * Mk + 1) * dev[:, -1:]
        Y_hat[:, ts.level_slice(k, h)] = fc
        errors = (train[:, Mk:] - fitted).reshape(n, origin - 1, Mk)  # cycles 2 .. origin
        resid[:, ts.level_slice(k)] = errors.transpose(0, 2, 1)
    return Y_hat, ResidualTableau(resid.reshape(n * ts.cycle_len, origin - 1), n, ts)
