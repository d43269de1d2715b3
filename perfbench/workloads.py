"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process, the next call
made after the previous one returns.  Inputs come from the seed through
``generate_coherent`` and ``naive_base_forecasts``, outside the timed
region.  The hierarchy is one total plus ``g`` interleaved group totals
over ``n_b`` bottoms.  Why each workload was chosen is in ``NOTES.md``.

A workload times itself: ``run_pass`` returns the pass's wall time
without the gate's checks, the time spent inside reconciliation calls and
the number of tableaux reconciled.  Calls go through ``self.api``, whose
functions record spans when the tracer is on.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
import traceback
from collections import Counter
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

import ctrec
import ctrec.cli
import ctrec.io
from gate import (
    Gate,
    avgrel_rows,
    read_residuals_csv,
    read_table_csv,
    read_values_csv,
    relative_deviation,
    report_problems,
    table_problems,
    REL_TOL,
)

API = (
    "build_cross_sectional",
    "build_temporal",
    "build_cross_temporal",
    "bottom_up",
    "cross_temporal_cov",
    "reconcile_cross_temporal",
    "ka_two_step",
    "iterative",
    "rolling_harness",
)
IO_API = ("read_hierarchy",)

# Perturbation used by the gate's self-check, relative to max|y~|.
SELF_CHECK_STEP = 1e-6


def grouped_hierarchy(n_b: int, g: int):
    """Aggregation matrix and labels: one total, ``g`` interleaved groups."""
    C = np.zeros((1 + g, n_b))
    C[0] = 1.0
    for j in range(g):
        C[1 + j, j::g] = 1.0
    labels = (
        ["TOT"] + [f"G{j + 1}" for j in range(g)] + [f"B{i + 1:03d}" for i in range(n_b)]
    )
    return C, labels


def level_targets(actuals, ts, h, first_cycle, count):
    """Actual tableaux of ``count`` consecutive origins from ``first_cycle``."""
    n_total = actuals.shape[1] // ts.cycle_len
    out = []
    for t in range(count):
        target = np.empty((actuals.shape[0], h * ts.cycle_len))
        for k in ts.factors:
            lo = ts.level_slice(k, n_total).start + (first_cycle + t) * ts.M_k[k]
            target[:, ts.level_slice(k, h)] = actuals[:, lo : lo + h * ts.M_k[k]]
        out.append(target)
    return out


def normal_nnz(xts, W) -> int:
    """Nonzeros of ``K W K'`` for a diagonal ``W``."""
    K = sp.csr_matrix(xts.kernel)
    return int((K @ sp.diags(W.diag_values) @ K.T).nnz)


class Workload:
    name = ""
    # Oct kind whose first output the gate's self-check perturbs.
    sample_kind = "oct-wlsv"

    def __init__(self, seed, tracer, workdir, reference):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.ref = reference
        self.api = SimpleNamespace(
            **{n: tracer.wrap(getattr(ctrec, n)) for n in API},
            **{n: tracer.wrap(getattr(ctrec.io, n)) for n in IO_API},
        )
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.sample = None
        self.counts = {}

    # -- timing inside a pass ------------------------------------------------

    @contextlib.contextmanager
    def recon(self, label):
        """Time one reconciliation call (covariance, solve or heuristic)."""
        t0 = time.perf_counter()
        with self.tracer.span("bench." + label):
            yield
        self.recon_s += time.perf_counter() - t0
        self.tableaux += 1

    @contextlib.contextmanager
    def untimed(self):
        """Gate work inside a pass; its time is taken out of the pass."""
        t0 = time.perf_counter()
        with self.tracer.span("bench.gate"):
            yield
        self.excluded_s += time.perf_counter() - t0

    def run_pass(self):
        """One pass: ``(wall_s, recon_s, tableaux)``."""
        self.recon_s = self.excluded_s = 0.0
        self.tableaux = 0
        self._calls = Counter()
        t0 = time.perf_counter()
        try:
            with self.tracer.span("bench.pass"):
                self.body()
        except Exception:  # a crashed pass is a failed operation; measuring goes on
            self.verdict("pass", [traceback.format_exc(limit=-3)])
        wall = time.perf_counter() - t0 - self.excluded_s
        return wall, self.recon_s, self.tableaux

    # -- verdicts ------------------------------------------------------------

    def verdict(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def judge(self, name, Y, **checks):
        """Gate one reconciled tableau, the ``t``-th output of ``name``."""
        key = f"{name}/{self._calls[name]:02d}"
        self._calls[name] += 1
        ref = self.ref.get(key, Y)
        self.verdict(key, self.gate.problems(Y, ref=ref, **checks))
        if name == self.sample_kind and self.sample is None:
            self.sample = (np.array(Y), checks, ref)

    def self_check(self):
        """Perturb one gated output and show the gate rejects it.

        Two perturbations of size 1e-6 relative: one entry moved (breaks
        coherence), and a step along a coherent direction ``S e_j``
        (coherent, but no longer the W-weighted projection).
        """
        if self.sample is None:
            return False, {"no output": [f"no {self.sample_kind} output was gated"]}
        Y, checks, ref = self.sample
        step = SELF_CHECK_STEP * np.max(np.abs(Y))
        j = int(np.argmax(np.abs(Y)))
        one_entry = Y.copy()
        one_entry.flat[j] += step
        col = self.gate.St[0].toarray().ravel()
        coherent = Y + step * col.reshape(Y.shape) / np.max(np.abs(col))
        report = {}
        for label, bad in (("one entry", one_entry), ("coherent step", coherent)):
            report[label] = self.gate.problems(bad, ref=ref, **checks)
        return all(report.values()), report


# ---------------------------------------------------------------------------


class RollingMedium(Workload):
    """Method comparison over rolling origins, the use in the paper."""

    name = "rolling-medium"
    n_b, g, m, h = 32, 4, 12, 1
    first_origin, origins = 40, 12
    oct_kinds = ("oct-ols", "oct-struc", "oct-wlsv", "oct-bdshr", "oct-acov", "oct-shr")
    heuristic = ctrec.HeuristicConfig(temporal_kind="t-wlsv", cross_sectional_kind="cs-shr")

    def setup(self):
        C, labels = grouped_hierarchy(self.n_b, self.g)
        cs = self.api.build_cross_sectional(C, labels)
        ts = self.api.build_temporal(self.m)
        return self.api.build_cross_temporal(cs, ts, self.h)

    def prepare(self, xts):
        self.xts = xts
        self.gate = Gate(xts)
        cs, ts, h = xts.cs, xts.ts, self.h
        n_total = self.first_origin + self.origins - 1 + h
        self.actuals, _ = ctrec.generate_coherent(cs, ts, n_total, seed=self.seed)
        self.inputs = [
            ctrec.naive_base_forecasts(self.actuals, cs, ts, self.first_origin + t, h)
            for t in range(self.origins)
        ]
        self.targets = level_targets(self.actuals, ts, h, self.first_origin, self.origins)
        self.procedures = {"bu": self._bu}
        self.procedures.update({k: self._oct(k) for k in self.oct_kinds})
        self.procedures.update({"ka-tcs": self._ka, "ite-tcs": self._ite})
        n_cols = [r.n_cycles for _, r in self.inputs]
        W = ctrec.cross_temporal_cov("oct-wlsv", xts, self.inputs[0][1])
        self.counts = {
            "covariance.resid_cols": max(n_cols),
            "reconcile.normal_nnz": normal_nnz(xts, W),
            "evaluation.cells": xts.size * self.origins * (len(self.procedures) + 1),
        }

    def body(self):
        self._outputs = {name: [] for name in self.procedures}
        cube, report = self.api.rolling_harness(
            self.actuals, self.inputs, self.procedures, self.xts, self.first_origin, "mse"
        )
        with self.untimed():
            self.verdict("evaluation table", self._table_problems(cube, report))

    def _keep(self, name, Y, **checks):
        with self.untimed():
            self._outputs[name].append(Y)
            self.judge(name, Y, **checks)
        return Y

    def _bu(self, Y_hat, residuals, xts):
        hf = Y_hat[xts.cs.n_a :, xts.ts.level_slice(1, xts.h)]
        with self.recon("bu"):
            Y = self.api.bottom_up(hf, xts).values
        return self._keep("bu", Y)

    def _oct(self, kind):
        def proc(Y_hat, residuals, xts):
            with self.recon(kind):
                W = self.api.cross_temporal_cov(kind, xts, residuals)
                Y = self.api.reconcile_cross_temporal(Y_hat, xts, W=W).tableau.values
            return self._keep(kind, Y, W=W, Y_hat=Y_hat)

        return proc

    def _ka(self, Y_hat, residuals, xts):
        with self.recon("ka-tcs"):
            res = self.api.ka_two_step(Y_hat, xts, self.heuristic, residuals)
        return self._keep("ka-tcs", res.tableau.values)

    def _ite(self, Y_hat, residuals, xts):
        with self.recon("ite-tcs"):
            res, _ = self.api.iterative(Y_hat, xts, self.heuristic, residuals)
        return self._keep("ite-tcs", res.tableau.values,
                          threshold=res.diagnostics["threshold"])

    def _table_problems(self, cube, report):
        ts, h = self.xts.ts, self.h
        names = ["base"] + list(self.procedures)
        outputs = dict(self._outputs, base=[Y for Y, _ in self.inputs])
        errors = {
            p: np.stack([T - Y for T, Y in zip(self.targets, outputs[p])], axis=1)
            for p in names
        }
        problems = []
        for p in names:
            for k in ts.factors:
                want = errors[p][:, :, ts.level_slice(k, h)]
                if relative_deviation(cube.errors[p][k], want) > REL_TOL:
                    problems.append(f"error cube of {p} at level {k} is wrong")
        problems += report_problems(report, avgrel_rows(errors, names, ts, h, self.xts.cs.n_a))
        ref = self.ref.get("report", report)
        if ref is not None and str(ref) != report:
            problems.append("report differs from the recorded report")
        return problems


class LargeH2(Workload):
    """One production reconcile at the roadmap's ceiling size."""

    name = "large-h2"
    n_b, g, m, h = 200, 10, 12, 2
    origin = 40
    kinds = ("oct-ols", "oct-wlsv", "oct-acov")

    setup = RollingMedium.setup

    def prepare(self, xts):
        self.xts = xts
        self.gate = Gate(xts)
        cs, ts = xts.cs, xts.ts
        actuals, _ = ctrec.generate_coherent(cs, ts, self.origin + self.h, seed=self.seed)
        self.Y_hat, self.residuals = ctrec.naive_base_forecasts(
            actuals, cs, ts, self.origin, self.h
        )
        W = ctrec.cross_temporal_cov("oct-wlsv", xts, self.residuals)
        self.counts = {
            "covariance.resid_cols": self.residuals.n_cycles,
            "reconcile.normal_nnz": normal_nnz(xts, W),
            "evaluation.cells": 0,
        }

    def body(self):
        for kind in self.kinds:
            with self.recon(kind):
                W = self.api.cross_temporal_cov(kind, self.xts, self.residuals)
                res = self.api.reconcile_cross_temporal(self.Y_hat, self.xts, W=W)
            with self.untimed():
                self.judge(kind, res.tableau.values, W=W, Y_hat=self.Y_hat)
            del W, res


class CliExperiment(Workload):
    """The CLI driven in process: synth, four reconciles, evaluate."""

    name = "cli-experiment"
    n_b, g, m = 32, 4, 4
    cycles, origins = 24, 24
    methods = ("bu", "oct-wlsv", "oct-acov", "t-wlsv")

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec = self.workdir / "hierarchy.txt"
        C, labels = grouped_hierarchy(self.n_b, self.g)
        ctrec.io.write_hierarchy(
            self.spec, ctrec.build_cross_sectional(C, labels), ctrec.build_temporal(self.m)
        )

    def setup(self):
        cs, ts = self.api.read_hierarchy(self.spec)
        return self.api.build_cross_temporal(cs, ts, 1)

    def prepare(self, xts):
        self.xts = xts
        self.gate = Gate(xts)
        cs, ts = xts.cs, xts.ts
        n_total = self.cycles + self.origins
        self.actuals, _ = ctrec.generate_coherent(cs, ts, n_total, seed=self.seed)
        self.inputs = [
            ctrec.naive_base_forecasts(self.actuals, cs, ts, self.cycles + t, 1)
            for t in range(self.origins)
        ]
        self.targets = level_targets(self.actuals, ts, 1, self.cycles, self.origins)
        self.W = {
            kind: [ctrec.cross_temporal_cov(kind, xts, r) for _, r in self.inputs]
            for kind in ("oct-wlsv", "oct-acov")
        }
        self.counts = {
            "covariance.resid_cols": max(r.n_cycles for _, r in self.inputs),
            "reconcile.normal_nnz": normal_nnz(xts, self.W["oct-wlsv"][0]),
            "evaluation.cells": xts.size * self.origins * (len(self.methods) + 1),
        }

    def cli(self, command, *args):
        """Run one command through ``ctrec.cli.main``: ``(exit code, output)``."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        with self.tracer.span("cli." + command), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                ctrec.cli.main.main(
                    args=[command, *map(str, args)], prog_name="ctrec",
                    standalone_mode=False,
                )
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
            except Exception as exc:  # a crash is one failed command
                code = f"{type(exc).__name__}: {exc}"
        if command == "reconcile":
            self.recon_s += time.perf_counter() - t0
            self.tableaux += self.origins
        return code, sink.getvalue()

    def body(self):
        d = self.workdir / "pass"
        with self.untimed():
            shutil.rmtree(d, ignore_errors=True)
        spec = ("--hierarchy", self.spec)
        codes = {"synth": self.cli(
            "synth", *spec, "--cycles", self.cycles, "--origins", self.origins,
            "--seed", self.seed, "--out", d,
        )}
        for method in self.methods:
            extra = () if method == "bu" else ("--residuals", d / "residuals")
            codes[method] = self.cli(
                "reconcile", "--method", method, "--in", d / "runs" / "base",
                *extra, *spec, "--out", d / "runs" / method,
            )
        codes["evaluate"] = self.cli(
            "evaluate", "--actuals", d / "actuals.csv", "--runs", d / "runs",
            *spec, "--out", d / "table.csv",
        )
        with self.untimed():
            self._check(d, codes)

    def _check(self, d, codes):
        labels, ts = self.xts.cs.labels, self.xts.ts
        stems = [f"origin_{t + 1:03d}.csv" for t in range(self.origins)]

        def exit_problems(command):
            code, text = codes[command]
            return [] if code == 0 else [f"exit {code}: {text.strip()[-300:]}"]

        problems = exit_problems("synth")
        if not problems:
            expected = [("actuals.csv", read_values_csv(d / "actuals.csv", labels, ts),
                         self.actuals)]
            for stem, (Y_hat, res) in zip(stems, self.inputs):
                expected.append((f"runs/base/{stem}",
                                 read_values_csv(d / "runs" / "base" / stem, labels, ts),
                                 Y_hat))
                expected.append((f"residuals/{stem}",
                                 read_residuals_csv(d / "residuals" / stem, labels, ts),
                                 res.values))
            problems = [f"{name} differs from the generated data"
                        for name, got, want in expected
                        if relative_deviation(got, want) > REL_TOL]
        self.verdict("synth", problems)

        outputs = {"base": [Y for Y, _ in self.inputs]}
        for method in self.methods:
            problems = exit_problems(method)
            if not problems:
                outputs[method] = []
                for t, stem in enumerate(stems):
                    Y = read_values_csv(d / "runs" / method / stem, labels, ts)
                    outputs[method].append(Y)
                    checks = {"temporal_only": method.startswith("t-")}
                    if method in self.W:
                        checks.update(W=self.W[method][t], Y_hat=self.inputs[t][0])
                    key = f"{method}/{t:02d}"
                    ref = self.ref.get(key, Y)
                    problems += [f"{stem}: {p}" for p in
                                 self.gate.problems(Y, ref=ref, **checks)]
                    if method == self.sample_kind and self.sample is None:
                        self.sample = (Y, checks, ref)
            self.verdict(f"reconcile {method}", problems)

        problems = exit_problems("evaluate")
        if not problems and len(outputs) == len(self.methods) + 1:
            names = ["base"] + sorted(self.methods)
            errors = {
                p: np.stack([T - Y for T, Y in zip(self.targets, outputs[p])], axis=1)
                for p in names
            }
            rows = read_table_csv(d / "table.csv")
            got = np.array([[float(v) for v in r[2:]] for r in rows])
            problems = table_problems(
                rows, avgrel_rows(errors, names, ts, 1, self.xts.cs.n_a),
                self.ref.get("table", got),
            )
        elif not problems:
            problems = ["no table: a reconcile command failed"]
        self.verdict("evaluate", problems)


WORKLOADS = {w.name: w for w in (RollingMedium, LargeH2, CliExperiment)}
