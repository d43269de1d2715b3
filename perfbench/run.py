"""Benchmark of the ctrec package: one workload per run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rolling-medium --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
wraps the package's public functions in spans and reports per-layer
metrics instead.  The metric names, units and workloads are those of
``BENCHMARK.json`` at the checkout root.  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment, the problem counts, the gate's self-check and every
metric with its unit.  ``--record-reference`` re-records the default-seed
outputs the gate compares against; run it only on the commit that
defines the reference.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracing

NPROC = len(os.sched_getaffinity(0))
# BLAS threads per workload, default NPROC.  The CLI's solves are tiny
# (rank 131), so a second thread adds no speed, only spin-waiting that
# competes with the one Python thread doing the CSV work: with two, its
# passes varied by up to 25% within one run; with one, by about 10%.
BLAS_THREADS = {"cli-experiment": 1}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3
# Set-up repetitions before the first pass: at least SETUP_REPS, filling
# SETUP_FILL_S; then at least one filling SETUP_GAP_S after each pass.
SETUP_REPS, SETUP_FILL_S, SETUP_GAP_S = 5, 1.0, 0.2
# Fresh CLI processes timed for cli_start_s: this many after each pass,
# and at least CLI_LAUNCHES in all.
LAUNCHES_PER_GAP, CLI_LAUNCHES = 2, 7

COV_KINDS = ("oct-ols", "oct-struc", "oct-wlsv", "oct-bdshr", "oct-acov", "oct-shr",
             "t-wlsv", "cs-shr")
RECON_KINDS = COV_KINDS[:-1]
LAYERS = ("crosstemporal", "covariance", "reconcile", "heuristics", "evaluation", "io",
          "synthgen", "cli", "bench")
# Self-time metric of each layer, where it is not ``<layer>.s``.
SELF_METRIC = {"evaluation": "evaluation.self_s", "cli": "cli.self_s", "bench": "bench.self_s"}
PATCHES = {
    # Covariance estimators as the solvers and heuristics look them up.
    "reconcile": ("cross_temporal_cov", "temporal_cov", "cross_sectional_cov"),
    "evaluation": ("avgrel_table",),
    "io": ("read_hierarchy", "write_hierarchy", "read_values", "write_values",
           "read_residuals", "write_residuals"),
    # The library names the CLI imports.
    "cli": ("bottom_up", "build_cross_temporal", "coherence_report", "avgrel_table",
            "format_report", "iterative", "ka_two_step",
            "reconcile_cross_sectional_tableau", "reconcile_cross_temporal",
            "reconcile_temporal", "generate_coherent", "naive_base_forecasts"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ctrec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no ctrec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Fixed before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS.get(args.workload, NPROC))
    sys.path.insert(0, str(SRC))
    import ctrec

    if Path(ctrec.__file__).resolve().parent != SRC / "ctrec":
        print(f"perfbench: imported ctrec from {ctrec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import gate
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer(enabled=bool(args.trace))
    reference = gate.Reference(args.workload, args.seed, record=args.record_reference)
    wl = WORKLOADS[args.workload](args.seed, tracer, workdir, reference)
    if args.trace:
        for module, names in PATCHES.items():
            tracer.patch(importlib.import_module(f"ctrec.{module}"), names)
    try:
        result = measure(wl, tracer, args)
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record_reference:
        if wl.failed:
            print("\n".join(["not recorded: the gate failed"] + wl.failures), file=sys.stderr)
            return 1
        reference.save()
        print(f"recorded {len(reference.recorded)} outputs to {reference.path}")
        return 0

    metrics, counts, lines = result
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("env:", json.dumps(environment()))
    print("problem:", json.dumps(counts))
    for line in lines:
        print(line)
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<32} {value!r:>24} {m['unit']}")
    ok, selfcheck = wl.self_check()
    for label, problems in selfcheck.items():
        print(f"gate self-check, {label} perturbed by 1e-6: "
              + ("; ".join(problems) if problems else "NOT CAUGHT"))
    for failure in wl.failures:
        print("failed:", failure)
    print(json.dumps({
        "correct": ok and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": out,
    }))
    return 0


def measure(wl, tracer, args):
    """Set up, prepare the inputs and run passes for about ``args.seconds``.

    A pass starts only while at least half of its expected length is left,
    but an untraced run makes at least MIN_PASSES, so its median rests on
    more than two passes.
    Untraced runs put CLI launches and set-up repetitions between passes,
    so that their medians sample the machine over the whole run.
    """
    traced = tracer.enabled
    tracer.enabled = False
    xts = wl.setup()  # warm-up
    tracer.enabled = traced
    setup_times, setup_spans = [], []

    def time_setups(reps, fill_s):
        t_fill = time.perf_counter()
        for i in itertools.count():
            if i >= reps and time.perf_counter() - t_fill >= fill_s:
                return
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_spans.append(tracer.take())

    time_setups(SETUP_REPS, SETUP_FILL_S)
    tracer.enabled = False
    wl.prepare(xts)
    counts = {
        "crosstemporal.n": xts.n,
        "crosstemporal.size": xts.size,
        "crosstemporal.rank": xts.rank,
        "crosstemporal.kernel_nnz": int(xts.kernel.nnz),
        **wl.counts,
    }
    if args.record_reference:
        wl.run_pass()
        return None

    # Traced runs alternate untraced and traced passes, so that the
    # tracing overhead is measured under the same machine load.
    passes, pass_spans, untraced, launches = [], [], [], []
    t_start = time.perf_counter()
    expected = 0.0
    min_passes = 1 if traced else MIN_PASSES
    while (len(passes) < min_passes
           or time.perf_counter() - t_start < args.seconds - expected / 2):
        t0 = time.perf_counter()
        if traced:
            untraced.append(wl.run_pass()[0])
            tracer.enabled = True
        passes.append(wl.run_pass())
        pass_spans.append(tracer.take())
        tracer.enabled = False
        if not traced:
            launches += [cli_launch(wl) for _ in range(LAUNCHES_PER_GAP)]
            time_setups(1, SETUP_GAP_S)
        expected = time.perf_counter() - t0
    while not traced and len(launches) < CLI_LAUNCHES:
        launches.append(cli_launch(wl))

    walls = [w for w, _, _ in passes]
    lines = [f"passes: {len(passes)}, wall_s per pass: "
             + ", ".join(f"{w:.4f}" for w in walls)]
    if traced:
        metrics, layer_lines = layer_metrics(pass_spans, setup_spans)
        metrics.update(counts)
        metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
        metrics["fail_rate"] = wl.failed / max(wl.attempted, 1)
        WORK.mkdir(exist_ok=True)
        path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(path, pass_spans)
        lines += layer_lines + [f"spans written to {path.relative_to(ROOT)}"]
        return metrics, counts, lines

    rates = [n / r for _, r, n in passes if r > 0]  # r is 0 only if a pass crashed
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "recon_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_start_s": statistics.median(launches),
    }
    lines.append(f"setup repetitions: {len(setup_times)}, CLI launches: {len(launches)}")
    return metrics, counts, lines


def cli_launch(wl) -> float:
    """Wall time of one fresh ``python -m ctrec.cli --help`` process.

    ``--help`` pays the same imports as any command; ``--version`` would
    need the package installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ctrec.cli", "--help"], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    wl.verdict("ctrec --help", [] if proc.returncode == 0 else [f"exit {proc.returncode}"])
    return elapsed


def layer_metrics(pass_spans, setup_spans):
    """Per-layer metrics: medians over traced passes, p50s over calls."""
    per_pass = []
    calls = defaultdict(list)
    for spans in pass_spans:
        self_s = tracing.self_times(spans)
        acc = Counter()
        resid = [0.0]
        for sid, _, name, t0, t1, attrs in spans:
            layer = tracing.layer_of(name)
            if name != "bench.gate":
                acc[layer] += self_s[sid]
            acc[name] += t1 - t0
            acc["rows_read" if ".read_" in name else "rows_written"] += attrs.get("rows", 0)
            acc["iterations"] += attrs.get("iterations", 0)
            if attrs.get("resid") is not None:
                resid.append(attrs["resid"])
            if "kind" in attrs:
                calls[f"{layer}.{attrs['kind']}"].append(t1 - t0)
            elif name in ("heuristics.ka_two_step", "heuristics.iterative"):
                calls[name].append(t1 - t0)
        m = {SELF_METRIC.get(layer, f"{layer}.s"): acc[layer] for layer in LAYERS}
        m["evaluation.avgrel_table_s"] = acc["evaluation.avgrel_table"]
        for f in ("read_residuals", "read_values", "write_values", "write_residuals"):
            m[f"io.{f}_s"] = acc[f"io.{f}"]
        for command in ("synth", "reconcile", "evaluate"):
            m[f"cli.{command}_s"] = acc[f"cli.{command}"]
        m["io.rows_read"] = acc["rows_read"]
        m["io.rows_written"] = acc["rows_written"]
        m["heuristics.ite.iterations"] = acc["iterations"]
        m["reconcile.max_resid"] = max(resid)
        per_pass.append(m)

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    def p50_ms(key):
        return 1e3 * statistics.median(calls[key]) if calls[key] else 0.0

    for kind in COV_KINDS:
        metrics[f"covariance.{kind}.ms_p50"] = p50_ms(f"covariance.{kind}")
    for kind in RECON_KINDS:
        metrics[f"reconcile.{kind}.ms_p50"] = p50_ms(f"reconcile.{kind}")
    metrics["heuristics.ka.ms_p50"] = p50_ms("heuristics.ka_two_step")
    metrics["heuristics.ite.ms_p50"] = p50_ms("heuristics.iterative")
    metrics["crosstemporal.build_s"] = statistics.median(
        sum(t1 - t0 for _, _, name, t0, t1, _ in spans
            if name == "crosstemporal.build_cross_temporal")
        for spans in setup_spans
    )

    wall = statistics.median(
        sum(t1 - t0 for _, _, name, t0, t1, _ in spans if name == "bench.pass")
        - sum(t1 - t0 for _, _, name, t0, t1, _ in spans if name == "bench.gate")
        for spans in pass_spans
    )
    shares = sorted((metrics[SELF_METRIC.get(layer, f"{layer}.s")], layer) for layer in LAYERS)
    lines = ["layer self time per pass (share of the traced pass):"]
    lines += [f"  {layer:<14} {s:10.4f} s  {s / wall:6.1%}" for s, layer in reversed(shares)]
    return metrics, lines


def environment() -> dict:
    """Library versions, OpenBLAS builds and BLAS thread counts."""
    import ctypes
    import platform

    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for mod in (numpy, scipy):
        name = mod.__name__
        try:
            env[f"{name}_blas"] = mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            env[f"{name}_blas"] = None
        libs = sorted(Path(mod.__file__).parent.parent.glob(f"{name}.libs/*openblas*"))
        for lib_path in libs:
            lib = ctypes.CDLL(str(lib_path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    env[f"{name}_blas_threads"] = getattr(lib, sym)()
                    break
    return env


if __name__ == "__main__":
    sys.exit(main())
