import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrec import (
    BenchmarkZero,
    DimensionMismatch,
    EmptySelection,
    ErrorCube,
    InvalidInput,
    accuracy_index,
    avg_rel_index,
    avgrel_table,
    bottom_up,
    build_cross_temporal,
    error_cube,
    reconcile_cross_temporal,
    relative_index,
    rolling_harness,
)
from ctrec.evaluation import format_report
from ctrec.synthgen import generate_coherent, naive_base_forecasts
from tests.conftest import grouped_structure


def small_cube(base_errors, cand_errors, factors=(2, 1), n_a=1, labels=("T", "B1")):
    horizons = {2: base_errors[2].shape[2], 1: base_errors[1].shape[2]}
    return ErrorCube(
        procedures=("base", "cand"),
        series_labels=labels,
        n_a=n_a,
        factors=factors,
        horizons=horizons,
        errors={"base": base_errors, "cand": cand_errors},
    )


def constant_cube(base=2.0, cand=1.0, q=4):
    shape2 = (2, q, 1)
    shape1 = (2, q, 2)
    be = {2: np.full(shape2, base), 1: np.full(shape1, base)}
    ce = {2: np.full(shape2, cand), 1: np.full(shape1, cand)}
    return small_cube(be, ce)


def test_accuracy_index_examples():
    cube = constant_cube(base=2.0)
    assert accuracy_index(cube, "mse", 0, "base", 2, 1) == 4.0
    assert accuracy_index(cube, "mae", 0, "base", 2, 1) == 2.0
    be = {2: np.zeros((2, 2, 1)), 1: np.zeros((2, 2, 2))}
    ce = {2: np.zeros((2, 2, 1)), 1: np.zeros((2, 2, 2))}
    ce[2][0, :, 0] = [3.0, -4.0]
    cube = small_cube(be, ce)
    assert accuracy_index(cube, "rmse", 0, "cand", 2, 1) == pytest.approx(
        math.sqrt(12.5)
    )
    assert accuracy_index(cube, "mse", 1, "cand", 1, 2) == 0.0


def test_benchmark_against_itself_is_one():
    cube = constant_cube()
    assert relative_index(cube, "mse", 0, "base", 2, 1) == 1.0
    assert avg_rel_index(cube, "mse", "base") == 1.0
    assert avg_rel_index(cube, "rmse", "base", series="uts") == 1.0


def test_relative_index_and_zero_handling():
    cube = constant_cube(base=2.0, cand=1.0)
    assert relative_index(cube, "mse", 0, "cand", 2, 1) == 0.25
    be = {2: np.zeros((2, 3, 1)), 1: np.ones((2, 3, 2))}
    ce = {2: np.ones((2, 3, 1)), 1: np.ones((2, 3, 2))}
    cube = small_cube(be, ce)
    with pytest.raises(BenchmarkZero):
        relative_index(cube, "mse", 0, "cand", 2, 1)
    ce0 = {2: np.zeros((2, 3, 1)), 1: np.ones((2, 3, 2))}
    cube0 = small_cube(be, ce0)
    with pytest.warns(UserWarning):
        assert relative_index(cube0, "mse", 0, "cand", 2, 1) == 1.0


@pytest.mark.parametrize("index", [accuracy_index, relative_index])
@pytest.mark.parametrize("k, h", [(2, 0), (2, -1), (2, 2), (1, 3), (3, 1)])
def test_single_cell_indices_reject_cells_outside_the_cube(index, k, h):
    # constant_cube has one horizon at level 2 and two at level 1
    with pytest.raises(InvalidInput, match=f"level {k}"):
        index(constant_cube(), "mse", 0, "cand", k, h)


def test_geometric_mean_symmetry():
    # relative indices {1/4, 4} and {1/2, 1/2, 4} both average to 1
    q = 2
    be = {2: np.ones((2, q, 1)), 1: np.ones((2, q, 2))}
    ce = {2: np.ones((2, q, 1)), 1: np.ones((2, q, 2))}
    ce[2][0] = 0.5  # rMSE 0.25 for series 0
    ce[2][1] = 2.0  # rMSE 4 for series 1
    cube = small_cube(be, ce)
    assert avg_rel_index(cube, "mse", "cand", levels=[2]) == pytest.approx(1.0)
    ce[2][0] = 2.0  # rMSE 4 for series 0 at the aggregated level
    ce[1][:, :, :] = 1.0
    ce[1][0, :, 0] = math.sqrt(0.5)
    ce[1][0, :, 1] = math.sqrt(0.5)
    cube = small_cube(be, ce)
    got = avg_rel_index(
        cube, "mse", "cand", series=[0], levels=[1]
    )
    assert got == pytest.approx(0.5)
    # {0.5, 0.5, 4} over three cells -> cube root of 1
    sel = avg_rel_index(cube, "mse", "cand", series=[0], levels=[1, 2])
    assert sel == pytest.approx(1.0)


def test_singleton_equals_relative_index():
    cube = constant_cube(base=2.0, cand=3.0)
    got = avg_rel_index(cube, "mae", "cand", series=[1], levels=[1], horizons=(2, 2))
    assert got == relative_index(cube, "mae", 1, "cand", 1, 2)


def test_partition_identity():
    rng = np.random.default_rng(0)
    be = {2: rng.normal(size=(2, 5, 1)) + 3, 1: rng.normal(size=(2, 5, 2)) + 3}
    ce = {2: rng.normal(size=(2, 5, 1)) + 3, 1: rng.normal(size=(2, 5, 2)) + 3}
    cube = small_cube(be, ce)
    grand = avg_rel_index(cube, "mse", "cand")
    parts = []
    counts = []
    for k in (2, 1):
        parts.append(avg_rel_index(cube, "mse", "cand", levels=[k]))
        counts.append(2 * cube.horizons[k])
    combined = math.exp(
        sum(c * math.log(p) for p, c in zip(parts, counts)) / sum(counts)
    )
    assert grand == pytest.approx(combined, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(1e-6, 1e6), seed=st.integers(0, 1000))
def test_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    be = {2: rng.normal(size=(2, 4, 1)), 1: rng.normal(size=(2, 4, 2))}
    ce = {2: rng.normal(size=(2, 4, 1)), 1: rng.normal(size=(2, 4, 2))}
    cube = small_cube(be, ce)
    scaled = small_cube(
        {k: v * scale for k, v in be.items()},
        {k: v * scale for k, v in ce.items()},
    )
    for measure in ("mse", "mae", "rmse"):
        a = avg_rel_index(cube, measure, "cand")
        b = avg_rel_index(scaled, measure, "cand")
        assert a == pytest.approx(b, rel=1e-9)


def test_empty_selection():
    cube = constant_cube()
    with pytest.raises(EmptySelection):
        avg_rel_index(cube, "mse", "cand", horizons=(5, 4))


def test_rolling_harness_records_errors(toy):
    cs, ts = toy.cs, toy.ts
    actuals, _ = generate_coherent(cs, ts, 12, seed=3)
    origins = []
    for origin in (8, 9, 10):
        origins.append(naive_base_forecasts(actuals, cs, ts, origin=origin, h=1))

    procedures = {
        "bu": lambda Y, r, x: bottom_up(Y[x.cs.n_a :, x.ts.level_slice(1, x.h)], x).values,
        "oct-ols": lambda Y, r, x: reconcile_cross_temporal(Y, x, "oct-ols").tableau.values,
    }
    cube, report = rolling_harness(actuals, origins, procedures, toy, start_cycle=8)
    assert "percentage improvement" in report
    assert cube.procedures == ("base", "bu", "oct-ols")
    assert cube.n_origins == 3
    # hand-check one base error cell: series 0, level 4, origin 1 (0-based)
    Y_hat0 = origins[1][0]
    actual_annual = actuals[0, ts.level_slice(4, 12)][9]
    assert cube.errors["base"][4][0, 1, 0] == pytest.approx(
        actual_annual - Y_hat0[0, 0]
    )
    header, rows = avgrel_table(cube, "mse")
    assert header[:2] == ["group", "procedure"]
    assert header[2:] == [
        "k1_h1", "k1_h2", "k1_h3", "k1_h4", "k1_all",
        "k2_h1", "k2_h2", "k2_all", "k4_h1", "k4_all", "all",
    ]
    base_rows = [r for r in rows if r[1] == "base"]
    for row in base_rows:
        assert all(v == pytest.approx(1.0) for v in row[2:])
    report = format_report(header, rows)
    assert "benchmark" in report


def test_error_cube_is_target_minus_output(toy):
    cs, ts, h = toy.cs, toy.ts, 2
    xts = build_cross_temporal(cs, ts, h)
    n_total, start, q = 12, 7, 3
    actuals, _ = generate_coherent(cs, ts, n_total, seed=4)
    rng = np.random.default_rng(4)
    outputs = {
        name: [rng.normal(size=(xts.n, xts.width)) for _ in range(q)]
        for name in ("base", "p1", "p2")
    }
    cube = error_cube(actuals, outputs, cs, ts, h, start)
    assert cube.procedures == ("base", "p1", "p2")
    assert cube.n_origins == q
    for name, tableaux in outputs.items():
        for k in ts.factors:
            observed = actuals[:, ts.level_slice(k, n_total)]
            forecast = [Y[:, ts.level_slice(k, h)] for Y in tableaux]
            assert cube.errors[name][k].shape == (cs.n, q, h * ts.M_k[k])
            for i in range(cs.n):
                for t in range(q):
                    for j in range(h * ts.M_k[k]):
                        target = observed[i, (start + t) * ts.M_k[k] + j]
                        assert cube.errors[name][k][i, t, j] == (
                            target - forecast[t][i, j]
                        )


@pytest.mark.parametrize("index", [accuracy_index, relative_index])
@pytest.mark.parametrize(
    "series, proc, message",
    [("nope", "cand", "unknown series 'nope'"), (2, "cand", "unknown series 2"),
     (-1, "cand", "unknown series -1"), (0, "nope", "unknown procedure")],
)
def test_single_cell_indices_name_an_unknown_series_or_procedure(index, series, proc, message):
    with pytest.raises(InvalidInput, match=message):
        index(constant_cube(), "mse", series, proc, 2, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"series": ["nope"]}, "unknown series"), ({"series": [5]}, "unknown series 5"),
     ({"levels": [1.5]}, "level 1.5"), ({"levels": [3]}, "level 3")],
)
def test_avg_rel_index_names_an_unknown_selection(kwargs, message):
    with pytest.raises(InvalidInput, match=message):
        avg_rel_index(constant_cube(), "mse", "cand", **kwargs)
    with pytest.raises(InvalidInput, match="unknown procedure"):
        avg_rel_index(constant_cube(), "mse", "nope")


def test_single_cell_indices_reject_a_fractional_horizon():
    with pytest.raises(InvalidInput, match="horizon 1.5"):
        accuracy_index(constant_cube(), "mse", 0, "cand", 1, 1.5)


def test_error_cube_names_bad_arguments(toy):
    cs, ts = toy.cs, toy.ts
    actuals, _ = generate_coherent(cs, ts, 6, seed=4)
    good = [np.zeros((toy.n, toy.width))] * 2
    with pytest.raises(InvalidInput, match="start_cycle must be an integer"):
        error_cube(actuals, {"base": good}, cs, ts, 1, 2.0)
    with pytest.raises(InvalidInput, match="benchmark procedure"):
        error_cube(actuals, {}, cs, ts, 1, 2)
    with pytest.raises(DimensionMismatch, match="p1: expected 2 tableaux"):
        error_cube(actuals, {"base": good, "p1": [good[0], good[0][:, 1:]]}, cs, ts, 1, 2)
    with pytest.raises(DimensionMismatch, match="p1: expected 2 tableaux"):
        error_cube(actuals, {"base": good, "p1": good[:1]}, cs, ts, 1, 2)


def test_rolling_harness_checks_start_cycle_before_running(toy):
    def never(*args):
        raise AssertionError("a procedure ran")

    actuals, _ = generate_coherent(toy.cs, toy.ts, 6, seed=4)
    origins = [(np.zeros((toy.n, toy.width)), None)]
    with pytest.raises(InvalidInput, match="start_cycle must be an integer"):
        rolling_harness(actuals, origins, {"p": never}, toy, start_cycle=2.0)


def loop_error_cube(actuals, outputs, cs, ts, h, start_cycle):
    """Reference: the errors one origin at a time, level by level."""
    n_total = actuals.shape[1] // ts.cycle_len
    q = len(next(iter(outputs.values())))
    horizons = {k: h * ts.M_k[k] for k in ts.factors}
    errors = {
        name: {k: np.zeros((cs.n, q, horizons[k])) for k in ts.factors}
        for name in outputs
    }
    for t in range(q):
        target = np.empty((cs.n, h * ts.cycle_len))
        for k in ts.factors:
            lo = ts.level_slice(k, n_total).start + (start_cycle + t) * ts.M_k[k]
            target[:, ts.level_slice(k, h)] = actuals[:, lo : lo + horizons[k]]
        for name, tableaux in outputs.items():
            err = target - tableaux[t]
            for k in ts.factors:
                errors[name][k][:, t, :] = err[:, ts.level_slice(k, h)]
    return ErrorCube(tuple(outputs), tuple(cs.labels), cs.n_a, tuple(ts.factors),
                     horizons, errors)


@pytest.mark.parametrize("q", [0, 1, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 4, 6, 12])
@pytest.mark.parametrize("n_b, g", [(4, 2), (9, 3)])
def test_error_cube_matches_the_per_origin_loop(n_b, g, m, h, q):
    xts = grouped_structure(n_b, g, m, h)
    actuals, _ = generate_coherent(xts.cs, xts.ts, 8, seed=m * h)
    rng = np.random.default_rng(q)
    outputs = {
        name: [rng.normal(size=(xts.n, xts.width)) for _ in range(q)]
        for name in ("base", "p1", "p2")
    }
    start = 8 - h - max(q - 1, 0)
    cube = error_cube(actuals, outputs, xts.cs, xts.ts, h, start)
    ref = loop_error_cube(actuals, outputs, xts.cs, xts.ts, h, start)
    assert cube.n_origins == q and cube.horizons == ref.horizons
    for name in outputs:
        for k in xts.ts.factors:
            np.testing.assert_array_equal(cube.errors[name][k], ref.errors[name][k])
    if q:
        assert avgrel_table(cube) == avgrel_table(ref)
