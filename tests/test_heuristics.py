import numpy as np
import pytest

from ctrec import (
    HeuristicConfig,
    InvalidInput,
    NonConvergence,
    bottom_up,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    coherence_report,
    iterative,
    ka_two_step,
    reconcile_cross_sectional_tableau,
    reconcile_cross_temporal,
    reconcile_temporal,
)
from ctrec.heuristics import _DIVERGENCE_GROWTH
from tests.conftest import grouped_structure, random_residuals, seeded_inputs


def coherence_scale(tab):
    return 1.0 + float(np.max(np.abs(tab.values)))


def test_config_validation():
    with pytest.raises(InvalidInput):
        HeuristicConfig(tolerance=float("inf"))
    with pytest.raises(InvalidInput):
        HeuristicConfig(tolerance=0.0)
    with pytest.raises(InvalidInput):
        HeuristicConfig(tolerance=-1e-6)
    with pytest.raises(InvalidInput):  # bool is an int, but not a tolerance
        HeuristicConfig(tolerance=True)
    with pytest.raises(InvalidInput):
        HeuristicConfig(max_iterations=0)
    with pytest.raises(InvalidInput):
        HeuristicConfig(order="sideways")
    with pytest.raises(InvalidInput):
        HeuristicConfig(average="median")
    with pytest.raises(InvalidInput):
        HeuristicConfig(temporal_kind="t-nope")
    with pytest.raises(InvalidInput):
        HeuristicConfig(cross_sectional_kind="cs-nope")


@pytest.mark.parametrize("bad", [2.5, float("nan"), True, "3"])
def test_config_rejects_a_max_iterations_that_is_not_an_integer(bad):
    with pytest.raises(InvalidInput, match="max_iterations must be an integer"):
        HeuristicConfig(max_iterations=bad)
    assert HeuristicConfig(max_iterations=np.int64(3)).max_iterations == 3


def test_coherent_input_is_fixed_point(toy):
    rng = np.random.default_rng(0)
    tab = bottom_up(rng.normal(size=(2, 4)), toy)
    cfg = HeuristicConfig(temporal_kind="t-ols", cross_sectional_kind="cs-ols")
    res = ka_two_step(tab, toy, cfg)
    np.testing.assert_allclose(res.tableau.values, tab.values, atol=1e-10)
    res_it, trace = iterative(tab, toy, cfg)
    assert len(trace) == 1
    assert trace[0][0] <= 1e-9 and trace[0][1] <= 1e-9


def test_two_step_coherent_both_orders(toy):
    rng = np.random.default_rng(1)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))
    for order in ("tcs", "cst"):
        cfg = HeuristicConfig(order=order)
        out = ka_two_step(Y, toy, cfg, res_tab)
        d_cs, d_te = coherence_report(out.tableau, toy)
        scale = coherence_scale(out.tableau)
        assert d_cs <= 1e-8 * scale
        assert d_te <= 1e-8 * scale
        assert out.tableau.provenance == f"reconciled:ka-{order}"


def test_orders_differ_generically(toy):
    rng = np.random.default_rng(2)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))
    a = ka_two_step(Y, toy, HeuristicConfig(order="tcs"), res_tab)
    b = ka_two_step(Y, toy, HeuristicConfig(order="cst"), res_tab)
    rel = np.linalg.norm(a.y_tilde - b.y_tilde) / np.linalg.norm(a.y_tilde)
    assert rel > 1e-6


def test_two_step_vs_optimal(toy):
    # With identity weights the per-level projectors coincide and commute
    # with the temporal ones, so the two-step result IS the optimal one;
    # any data-driven weighting breaks the coincidence.
    rng = np.random.default_rng(3)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))

    cfg = HeuristicConfig(temporal_kind="t-ols", cross_sectional_kind="cs-ols")
    heur_ols = ka_two_step(Y, toy, cfg)
    opt_ols = reconcile_cross_temporal(Y, toy, "oct-ols")
    np.testing.assert_allclose(heur_ols.y_tilde, opt_ols.y_tilde, atol=1e-9)

    cfg = HeuristicConfig(temporal_kind="t-wlsv", cross_sectional_kind="cs-shr")
    heur = ka_two_step(Y, toy, cfg, res_tab)
    opt = reconcile_cross_temporal(Y, toy, "oct-wlsv", res_tab)
    d_cs, d_te = coherence_report(heur.tableau, toy)
    scale = coherence_scale(heur.tableau)
    assert max(d_cs, d_te) <= 1e-8 * scale
    assert np.linalg.norm(heur.y_tilde - opt.y_tilde) > 1e-6


def test_weighted_average_variant(toy):
    rng = np.random.default_rng(4)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))
    plain = ka_two_step(Y, toy, HeuristicConfig(average="plain"), res_tab)
    weighted = ka_two_step(Y, toy, HeuristicConfig(average="weighted"), res_tab)
    for out in (plain, weighted):
        d_cs, d_te = coherence_report(out.tableau, toy)
        assert max(d_cs, d_te) <= 1e-8 * coherence_scale(out.tableau)
    assert np.linalg.norm(plain.y_tilde - weighted.y_tilde) > 1e-9


def test_weighted_equals_plain_single_level():
    xts = build_cross_temporal(
        build_cross_sectional([[1, 1]]), build_temporal(1), 1
    )
    rng = np.random.default_rng(5)
    Y = rng.normal(size=(3, 1))
    cfg_p = HeuristicConfig(
        temporal_kind="t-ols", cross_sectional_kind="cs-ols", average="plain"
    )
    cfg_w = HeuristicConfig(
        temporal_kind="t-ols", cross_sectional_kind="cs-ols", average="weighted"
    )
    a = ka_two_step(Y, xts, cfg_p)
    b = ka_two_step(Y, xts, cfg_w)
    np.testing.assert_allclose(a.y_tilde, b.y_tilde, atol=1e-14)


def test_averaged_projector_annihilates_kernel(toy):
    from ctrec.heuristics import _averaged_cs_projector
    from ctrec.reconcile import _per_level_projectors

    rng = np.random.default_rng(6)
    res_tab = random_residuals(rng, toy)
    projs = _per_level_projectors(toy, "cs-shr", res_tab)
    for average in ("plain", "weighted"):
        M_bar = _averaged_cs_projector(projs, toy, average)
        assert np.max(np.abs(toy.cs.kernel @ M_bar)) <= 1e-10


def test_half_steps_enforce_their_dimension(toy):
    rng = np.random.default_rng(7)
    res_tab = random_residuals(rng, toy)
    tab = toy.tableau(rng.normal(loc=10.0, size=(3, 7)))
    scale = coherence_scale(tab)
    after_t = reconcile_temporal(tab, "t-wlsv", res_tab)
    assert coherence_report(after_t, toy)[1] <= 1e-10 * scale
    after_cs = reconcile_cross_sectional_tableau(tab, "cs-shr", res_tab)
    assert coherence_report(after_cs, toy)[0] <= 1e-10 * scale


@pytest.mark.parametrize("order", ["tcs", "cst"])
def test_iterative_converges_and_is_coherent(toy, order):
    rng = np.random.default_rng(8)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))
    cfg = HeuristicConfig(order=order, tolerance=1e-8, max_iterations=100)
    res, trace = iterative(Y, toy, cfg, res_tab)
    assert 1 <= len(trace) <= 100
    threshold = cfg.tolerance * coherence_scale(toy.tableau(Y))
    d_cs, d_te = coherence_report(res.tableau, toy)
    assert d_cs <= threshold and d_te <= threshold
    assert res.diagnostics["iterations"] == len(trace)


def test_iterative_nonconvergence_carries_trace(toy):
    rng = np.random.default_rng(9)
    res_tab = random_residuals(rng, toy)
    Y = rng.normal(loc=10.0, size=(3, 7))
    cfg = HeuristicConfig(tolerance=1e-300, max_iterations=2)
    with pytest.raises(NonConvergence) as err:
        iterative(Y, toy, cfg, res_tab)
    assert len(err.value.trace) == 2


@pytest.fixture(scope="module")
def rank_deficient_t_sam():
    """Naive forecasts over 23 residual cycles at m = 4: every series'
    7 x 7 ``t-sam`` moment matrix has rank 4 to rounding (eigenvalue ratios
    of 1e-16 and below, some Cholesky pivot ratios above the ``r eps``
    tolerance).  The lift decides on the eigenvalues, so all are lifted."""
    xts = grouped_structure(32, 4, 4, 1)
    y, residuals = seeded_inputs(xts, origin=24)
    return xts, xts.tableau(y.reshape(xts.n, xts.width)), residuals


def test_t_sam_heuristics_survive_moment_matrices_singular_to_rounding(
    rank_deficient_t_sam,
):
    xts, tab, residuals = rank_deficient_t_sam
    scale = coherence_scale(tab)
    temporal = reconcile_temporal(tab, "t-sam", residuals)
    assert coherence_report(temporal, xts)[1] <= 1e-10 * scale
    for order in ("tcs", "cst"):
        out = ka_two_step(tab, xts, HeuristicConfig("t-sam", order=order), residuals)
        assert max(coherence_report(out.tableau, xts)) <= 1e-10 * scale
    for cs_kind in ("cs-ols", "cs-struc"):
        config = HeuristicConfig("t-sam", cs_kind)
        out, trace = iterative(tab, xts, config, residuals)
        threshold = config.tolerance * scale
        assert max(coherence_report(out.tableau, xts)) <= threshold
        assert trace[-1][1] <= threshold


def test_t_sam_iterative_with_weighted_cross_sectional_steps_diverges(
    rank_deficient_t_sam,
):
    """The lifted ``t-sam`` blocks have condition ~1e8, and their temporal
    projectors, coherent to 1e-12 of their norm, have spectral norms up to
    ~1.6e3.  Alternated with the oblique ``cs-wls`` or ``cs-shr`` steps
    they amplify the incoherence ~15x per pass, where ``t-acov`` converges
    in two: :class:`NonConvergence`, not a singular system."""
    xts, tab, residuals = rank_deficient_t_sam
    _, trace = iterative(tab, xts, HeuristicConfig("t-acov", "cs-wls"), residuals)
    assert len(trace) == 2
    for cs_kind in ("cs-wls", "cs-shr"):
        with pytest.raises(NonConvergence, match="no convergence") as err:
            iterative(tab, xts, HeuristicConfig("t-sam", cs_kind), residuals)
        trace = np.asarray(err.value.trace)
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace[:, 0]) > 0)


def test_iterative_divergence_stops_before_the_iterates_overflow():
    """``t-sam`` with ``cs-sam`` grows the incoherence ~4e4x per pass and
    overflowed after 69 passes; the growth stop ends it at the second."""
    xts = grouped_structure(32, 4, 12, 1)
    y, residuals = seeded_inputs(xts, origin=40)
    with pytest.raises(NonConvergence, match="diverged") as err:
        iterative(y.reshape(xts.n, xts.width), xts, HeuristicConfig("t-sam", "cs-sam"), residuals)
    trace = err.value.trace
    assert len(trace) == 2 and np.all(np.isfinite(trace))
    assert trace[1][1] > _DIVERGENCE_GROWTH * trace[0][1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_iterative_overflow_is_nonconvergence_with_the_trace(toy):
    with pytest.raises(NonConvergence, match="non-finite values after 0 iterations") as err:
        iterative(np.full((toy.n, toy.width), 1e308), toy, HeuristicConfig("t-ols", "cs-ols"))
    assert err.value.trace == []


@pytest.mark.parametrize("cs_kind", ["cs-wls", "cs-shr"])
@pytest.mark.parametrize("order", ["tcs", "cst"])
def test_iterative_stops_at_the_first_pass_whose_discrepancy_grows_tenfold(
    rank_deficient_t_sam, cs_kind, order
):
    """These runs grow 6-16x per pass and used to run all 100 passes."""
    xts, tab, residuals = rank_deficient_t_sam
    config = HeuristicConfig("t-sam", cs_kind, order=order)
    with pytest.raises(NonConvergence, match="diverged") as err:
        iterative(tab, xts, config, residuals)
    d = np.asarray(err.value.trace)[:, 1 if order == "tcs" else 0]
    assert 2 <= len(d) <= 4
    assert d[-1] > _DIVERGENCE_GROWTH * d[-2]
    assert np.all(d[1:-1] <= _DIVERGENCE_GROWTH * d[:-2])


@pytest.fixture(scope="module")
def grouped_monthly():
    xts = grouped_structure(32, 4, 12, 1)
    y, residuals = seeded_inputs(xts)
    return xts, y.reshape(xts.n, xts.width), residuals


def iterative_gap(grouped_monthly, temporal_kind, cross_sectional_kind, oct_kind):
    """Relative gap between the converged iterative heuristic and the
    closed-form optimal cross-temporal solution."""
    xts, Y, residuals = grouped_monthly
    cfg = HeuristicConfig(temporal_kind, cross_sectional_kind, tolerance=1e-14)
    heuristic = iterative(Y, xts, cfg, residuals)[0].y_tilde
    optimal = reconcile_cross_temporal(Y, xts, oct_kind, residuals).y_tilde
    return np.max(np.abs(heuristic - optimal)) / np.max(np.abs(optimal))


@pytest.mark.parametrize(
    "temporal_kind, cross_sectional_kind, oct_kind",
    [("t-wlsv", "cs-wls", "oct-wlsv"), ("t-ols", "cs-ols", "oct-ols"),
     ("t-struc", "cs-struc", "oct-struc")],
)
def test_iterative_converges_to_the_closed_form_for_separable_diagonal_weights(
    grouped_monthly, temporal_kind, cross_sectional_kind, oct_kind
):
    """When the cross-temporal ``W`` is diagonal and each single-dimension
    step uses that diagonal's own weights, the alternating projections
    converge to the optimal solution itself."""
    assert iterative_gap(grouped_monthly, temporal_kind, cross_sectional_kind, oct_kind) <= 1e-12


def test_iterative_differs_from_the_closed_form_when_its_weights_do_not_match(grouped_monthly):
    # t-wlsh weights each position of a level by its own variance; oct-wlsv
    # pools the positions, so the steps no longer use W's own weights.
    assert iterative_gap(grouped_monthly, "t-wlsh", "cs-wls", "oct-wlsv") >= 1e-8
