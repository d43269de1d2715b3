"""Command-line interface.

Exit codes: 0 success, 2 input/format error, 3 numerical failure,
4 non-convergence (the iteration trace is written to ``ctrec-trace.csv``
in the working directory).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import io as fio
from .covariance import CS_KINDS, OCT_KINDS, T_KINDS
from .crosstemporal import bottom_up, build_cross_temporal, coherence_report
from .errors import (
    CtrecError,
    DegenerateSample,
    InvalidInput,
    NonConvergence,
    SingularCovariance,
    SingularSystem,
    require_integer,
)
from .evaluation import avgrel_table, error_cube, format_report
from .heuristics import HeuristicConfig, iterative, ka_two_step
from .reconcile import (
    reconcile_cross_sectional_tableau,
    reconcile_cross_temporal,
    reconcile_temporal,
)
from .synthgen import generate_coherent, naive_base_forecasts

_NUMERIC_ERRORS = (SingularCovariance, SingularSystem, DegenerateSample)
# Every other package error is an input error; checked after the above.
_INPUT_ERRORS = (CtrecError, OSError)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NonConvergence as exc:
            trace_path = Path("ctrec-trace.csv")
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write("iteration,d_cs,d_te\n")
                for j, (dcs, dte) in enumerate(exc.trace, start=1):
                    fh.write(f"{j},{dcs!r},{dte!r}\n")
            click.echo(f"error: {exc} (trace written to {trace_path})", err=True)
            sys.exit(4)
        except _NUMERIC_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except _INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load(hierarchy, h):
    cs, ts = fio.read_hierarchy(hierarchy)
    return cs, ts, build_cross_temporal(cs, ts, h)


def _apply_config(config_path, overrides: dict) -> dict:
    """Config file values fill in options the command line left at None."""
    cfg = fio.read_config(config_path, _CONFIG_KEYS) if config_path else {}
    return {**cfg, **{k: v for k, v in overrides.items() if v is not None}}


# Config key -> (HeuristicConfig field, conversion of a config file string).
_HEURISTIC_KEYS = {
    "temporal": ("temporal_kind", str),
    "cross_sectional": ("cross_sectional_kind", str),
    "order": ("order", str),
    "delta": ("tolerance", float),
    "max_iter": ("max_iterations", int),
}
# The keys a config file may set: one file may serve both commands.
_CONFIG_KEYS = ("method", *_HEURISTIC_KEYS)


def _heuristic_settings(cfg: dict) -> dict:
    """The :class:`HeuristicConfig` fields set in ``cfg``, converted."""
    settings = {}
    for key, (name, convert) in _HEURISTIC_KEYS.items():
        if key in cfg:
            try:
                settings[name] = convert(cfg[key])
            except ValueError:
                raise InvalidInput(
                    f"config value {key} = {cfg[key]!r} is not a number"
                ) from None
    return settings


@click.group()
@click.version_option(__version__, prog_name="ctrec")
def main():
    """Cross-temporal forecast reconciliation."""


@main.command()
@click.argument("hierarchy", type=click.Path(exists=True))
@click.option("--h", "h", default=1, show_default=True, help="Forecast cycles.")
@_guard
def info(hierarchy, h):
    """Print the dimensions of a hierarchy's constraint system."""
    cs, ts, xts = _load(hierarchy, h)
    click.echo(f"series: n={cs.n} (upper {cs.n_a}, bottom {cs.n_b})")
    click.echo(
        "cycle: m={m}, factors {f}, k*={ks}".format(
            m=ts.m, f=",".join(str(k) for k in ts.factors), ks=ts.k_star
        )
    )
    click.echo(f"tableau: {cs.n} x {xts.width} (h={h})")
    kr = xts.kernel_redundant
    click.echo(f"redundant kernel: {kr.shape[0]} × {kr.shape[1]}")
    click.echo(
        f"H': {xts.kernel.shape[0]} × {xts.kernel.shape[1]} (rank {xts.rank})"
    )


def _reconcile_one(method, vals, h, cs, ts, xts, residuals):
    """The reconciled tableau, and the cross-temporal solve's result (else
    ``None``)."""
    tab = xts.tableau(vals)
    if method == "bu":
        hf = vals[cs.n_a :, ts.level_slice(1, h)]
        return bottom_up(hf, xts), None
    if method.startswith("cs-"):
        return reconcile_cross_sectional_tableau(tab, method, residuals), None
    if method.startswith("t-"):
        return reconcile_temporal(tab, method, residuals), None
    res = reconcile_cross_temporal(tab, xts, method, residuals)  # an oct- kind
    return res.tableau, res


@main.command()
@click.option("--method", help="bu, cs-<kind>, t-<kind> or oct-<kind>; required "
              "unless --config sets method.")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--residuals", "residuals_path", type=click.Path(exists=True))
@click.option("--hierarchy", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True))
@_guard
def reconcile(method, in_path, residuals_path, hierarchy, out_path, config_path):
    """Reconcile one forecast file (or every file in a directory)."""
    method = _apply_config(config_path, {"method": method}).get("method")
    if method is None:
        raise click.UsageError("Missing option '--method' (or 'method =' in --config).")
    known = ("bu",) + CS_KINDS + T_KINDS + OCT_KINDS
    if method not in known:
        raise InvalidInput(f"unknown method {method!r}")
    cs, ts = fio.read_hierarchy(hierarchy)

    in_path = Path(in_path)
    if in_path.is_dir():
        files = sorted(in_path.glob("*.csv"))
        if not files:
            raise InvalidInput(f"{in_path}: no CSV files")
        out_dir = Path(out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        targets = [(f, out_dir / f.name) for f in files]
    else:
        targets = [(in_path, Path(out_path))]

    res_dir = None
    residuals = None
    if residuals_path:
        rp = Path(residuals_path)
        if rp.is_dir():
            res_dir = rp
        else:
            residuals = fio.read_residuals(rp, cs, ts)

    xts = None
    for src, dst in targets:
        vals, h = fio.read_values(src, cs, ts)
        if xts is None or xts.h != h:
            xts = build_cross_temporal(cs, ts, h)
        res = residuals
        if res_dir is not None:
            res = fio.read_residuals(res_dir / src.name, cs, ts)
        before = coherence_report(vals, xts)
        out, solved = _reconcile_one(method, vals, h, cs, ts, xts, res)
        after = coherence_report(out.values, xts)
        fio.write_values(dst, out.values, cs, ts)
        click.echo(f"{src.name}: d_cs {before[0]:.6g} -> {after[0]:.6g}, "
                   f"d_te {before[1]:.6g} -> {after[1]:.6g}")
        if solved is not None:
            click.echo(
                f"  {solved.diagnostics['factorization']}, "
                f"condition estimate: {solved.condition_estimate:.3e}"
            )
            if solved.warning is not None:
                click.echo(f"  warning: {solved.warning}")
    click.echo(f"wrote {len(targets)} reconciled file(s) to {out_path}")


@main.command()
@click.option("--temporal", "temporal_kind", show_default=HeuristicConfig.temporal_kind)
@click.option("--cross-sectional", "cs_kind",
              show_default=HeuristicConfig.cross_sectional_kind)
@click.option("--order", type=click.Choice(["tcs", "cst"]),
              show_default=HeuristicConfig.order)
@click.option("--iterative", "use_iterative", is_flag=True)
@click.option("--delta", type=float, show_default=str(HeuristicConfig.tolerance))
@click.option("--max-iter", type=int, show_default=str(HeuristicConfig.max_iterations))
@click.option("--weighted-average", is_flag=True)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--residuals", "residuals_path", type=click.Path(exists=True))
@click.option("--hierarchy", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True))
@_guard
def heuristic(
    temporal_kind,
    cs_kind,
    order,
    use_iterative,
    delta,
    max_iter,
    weighted_average,
    in_path,
    residuals_path,
    hierarchy,
    out_path,
    config_path,
):
    """Two-step or iterative heuristic reconciliation."""
    cfg = _apply_config(config_path, {
        "temporal": temporal_kind, "cross_sectional": cs_kind, "order": order,
        "delta": delta, "max_iter": max_iter,
    })
    config = HeuristicConfig(
        average="weighted" if weighted_average else "plain", **_heuristic_settings(cfg)
    )
    cs, ts = fio.read_hierarchy(hierarchy)
    vals, h = fio.read_values(in_path, cs, ts)
    xts = build_cross_temporal(cs, ts, h)
    residuals = (
        fio.read_residuals(residuals_path, cs, ts) if residuals_path else None
    )
    before = coherence_report(vals, xts)
    if use_iterative:
        result, trace = iterative(vals, xts, config, residuals)
        click.echo("iteration trace (d_cs, d_te):")
        for j, (dcs, dte) in enumerate(trace, start=1):
            click.echo(f"  {j:3d}  {dcs:.6e}  {dte:.6e}")
    else:
        # No ex-ante rule picks the better order; report both L2 distances
        # to the base forecasts so the user can choose.
        results = {}
        for o in ("tcs", "cst"):
            results[o] = ka_two_step(
                vals, xts, dataclasses.replace(config, order=o), residuals
            )
            dist = float(np.linalg.norm(results[o].adjustment))
            click.echo(f"L2 distance to base, order {o}: {dist:.6g}")
        result = results[config.order]
    after = coherence_report(result.tableau.values, xts)
    fio.write_values(out_path, result.tableau.values, cs, ts)
    click.echo(f"d_cs {before[0]:.6g} -> {after[0]:.6g}, "
               f"d_te {before[1]:.6g} -> {after[1]:.6g}")
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--actuals", "actuals_path", required=True,
              type=click.Path(exists=True))
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True),
              help="Directory with one subdirectory of origin files per procedure.")
@click.option("--hierarchy", required=True, type=click.Path(exists=True))
@click.option("--measure", type=click.Choice(["mse", "mae", "rmse"]),
              default="mse", show_default=True)
@click.option("--benchmark", default="base", show_default=True)
@click.option("--out", "out_path", type=click.Path())
@_guard
def evaluate(actuals_path, runs_dir, hierarchy, measure, benchmark, out_path):
    """Compute average relative accuracy tables over a rolling experiment.

    Every procedure must hold the same origin file names; origin
    ``t`` of ``q`` is aligned with actual cycle ``N - q - h + t`` so that
    the last origin forecasts the final observed cycles.
    """
    cs, ts = fio.read_hierarchy(hierarchy)
    actuals, n_total = fio.read_values(actuals_path, cs, ts)
    runs = Path(runs_dir)
    proc_dirs = sorted(p for p in runs.iterdir() if p.is_dir())
    names = [p.name for p in proc_dirs]
    if benchmark not in names:
        raise InvalidInput(
            f"benchmark {benchmark!r} not among procedures {names}"
        )
    names = [benchmark] + [n for n in names if n != benchmark]
    file_lists = {}
    for name in names:
        files = sorted((runs / name).glob("*.csv"))
        if not files:
            raise InvalidInput(f"{runs / name}: no origin files")
        file_lists[name] = files
    for name in names[1:]:
        for want, got in zip(file_lists[benchmark], file_lists[name]):
            if got.name != want.name:
                raise InvalidInput(
                    f"{runs / name}: origin file {got.name!r} where "
                    f"{benchmark} has {want.name!r}"
                )
    # error_cube rejects a procedure with another origin count or horizon.
    loaded = {name: [fio.read_values(f, cs, ts) for f in files]
              for name, files in file_lists.items()}
    per_proc = {name: [v for v, _ in pairs] for name, pairs in loaded.items()}
    q, h = len(per_proc[benchmark]), loaded[benchmark][0][1]
    if q + h - 1 > n_total:
        raise InvalidInput(f"{q} origins of {h} cycles do not fit into {n_total} observed cycles")
    cube = error_cube(actuals, per_proc, cs, ts, h, n_total - q - h + 1)
    header, rows = avgrel_table(cube, measure)
    click.echo(format_report(header, rows))
    if out_path:
        fio.write_table(out_path, header, rows)
        click.echo(f"wrote {out_path}")


@main.command()
@click.option("--hierarchy", required=True, type=click.Path(exists=True))
@click.option("--cycles", default=20, show_default=True,
              help="Training cycles before the first origin.")
@click.option("--origins", default=1, show_default=True)
@click.option("--h", "h", default=1, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--scheme", type=click.Choice(["seasonal-naive", "mean"]),
              default="seasonal-naive", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guard
def synth(hierarchy, cycles, origins, h, seed, scheme, out_dir):
    """Generate a demo dataset: actuals, per-origin base forecasts, residuals."""
    require_integer("--cycles", cycles, 2)
    require_integer("--origins", origins, 1)
    require_integer("--h", h, 1)
    cs, ts = fio.read_hierarchy(hierarchy)
    n_total = cycles + origins - 1 + h
    actuals, _ = generate_coherent(cs, ts, n_total, seed=seed)
    out = Path(out_dir)
    (out / "runs" / "base").mkdir(parents=True, exist_ok=True)
    (out / "residuals").mkdir(parents=True, exist_ok=True)
    fio.write_values(out / "actuals.csv", actuals, cs, ts)
    for t in range(origins):
        Y_hat, residuals = naive_base_forecasts(
            actuals, cs, ts, origin=cycles + t, h=h, scheme=scheme
        )
        stem = f"origin_{t + 1:03d}.csv"
        fio.write_values(out / "runs" / "base" / stem, Y_hat, cs, ts)
        fio.write_residuals(out / "residuals" / stem, residuals, cs)
    click.echo(
        f"wrote {origins} origin(s) over {n_total} cycles to {out_dir}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
