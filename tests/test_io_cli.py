import csv
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctrec.io
from ctrec import (
    InvalidInput,
    ResidualTableau,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    generate_coherent,
    temporal_cov,
)
from ctrec.cli import main
from ctrec.evaluation import avgrel_table, error_cube
from ctrec.io import (
    FormatError,
    read_config,
    read_hierarchy,
    read_residuals,
    read_values,
    write_hierarchy,
    write_residuals,
    write_table,
    write_values,
)
from ctrec.synthgen import naive_base_forecasts
from tests.conftest import grouped_structure, random_hierarchy, seeded_inputs

TOY_SPEC = """m = 4
[matrix]
,W,Z
X,1,1
"""

EDGE_SPEC = """m = 4
[edges]
node,parent,weight
W,X,1
Z,X,1
"""


@pytest.fixture
def toy_file(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text(TOY_SPEC)
    return p


def test_hierarchy_matrix_and_edges_agree(tmp_path, toy_file):
    cs1, ts1 = read_hierarchy(toy_file)
    edge = tmp_path / "edges.txt"
    edge.write_text(EDGE_SPEC)
    cs2, ts2 = read_hierarchy(edge)
    assert cs1.labels == cs2.labels == ("X", "W", "Z")
    np.testing.assert_array_equal(cs1.agg_matrix, cs2.agg_matrix)
    assert ts1.m == ts2.m == 4


def test_hierarchy_round_trip(tmp_path):
    two_by_three = [[1, 1, 1], [1, 1, 0]]
    for C, labels in (
        (two_by_three, ["T", "A", "x", "y", "z"]),
        (two_by_three, ["T", "a, b", "x", "y", "z"]),
        (two_by_three, ["T", '"A" 1', "a, b", '"x" y', "z"]),
        ([[1, 1]], ["#T", "a", "b"]),  # not read back as a comment line
    ):
        cs = build_cross_sectional(C, labels)
        ts = build_temporal(12, factors=[12, 3, 1])
        path = tmp_path / "h.txt"
        write_hierarchy(path, cs, ts)
        cs2, ts2 = read_hierarchy(path)
        assert cs2.labels == cs.labels
        np.testing.assert_array_equal(cs2.agg_matrix, cs.agg_matrix)
        assert ts2.factors == ts.factors
        write_hierarchy(tmp_path / "h2.txt", cs2, ts2)
        assert (tmp_path / "h.txt").read_text() == (tmp_path / "h2.txt").read_text()


@pytest.mark.parametrize("labels", [["T", "a\nb", "c"], ["T\r", "a", "b"]])
def test_labels_with_line_breaks_are_rejected(labels):
    bad = next(label for label in labels if "\n" in label or "\r" in label)
    with pytest.raises(InvalidInput, match=re.escape(repr(bad))):
        build_cross_sectional([[1, 1]], labels)


def test_hierarchy_writer_bytes_for_plain_labels(tmp_path):
    cs = build_cross_sectional([[1, 1, 1], [1, 0.5, 0]], ["T", "A", "x", "y", "z"])
    write_hierarchy(tmp_path / "h.txt", cs, build_temporal(12, factors=[12, 3, 1]))
    assert (tmp_path / "h.txt").read_bytes() == (
        b"m = 12\nfactors = 12,3,1\n[matrix]\n,x,y,z\nT,1,1,1\nA,1,0.5,0\n"
    )


def test_hierarchy_matrix_field_over_csv_limit_is_a_format_error(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("m = 2\n[matrix]\n,a,b\n" + "T" * 200000 + ",1,1\n")
    with pytest.raises(FormatError, match="matrix block: field larger than field limit"):
        read_hierarchy(path)


def test_nested_edge_list(tmp_path):
    spec = """m = 2
[edges]
node,parent,weight
A,TOT,1
B,TOT,1
AA,A,1
AB,A,1
BA,B,1
BB,B,1
"""
    p = tmp_path / "nested.txt"
    p.write_text(spec)
    cs, ts = read_hierarchy(p)
    assert cs.labels == ("TOT", "A", "B", "AA", "AB", "BA", "BB")
    np.testing.assert_array_equal(
        cs.agg_matrix,
        [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]],
    )


def test_values_round_trip_bit_identical(tmp_path, toy_file):
    cs, ts = read_hierarchy(toy_file)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(3, 14)) * np.pi
    path = tmp_path / "v.csv"
    write_values(path, vals, cs, ts)
    back, cycles = read_values(path, cs, ts)
    assert cycles == 2
    np.testing.assert_array_equal(back, vals)
    write_values(tmp_path / "v2.csv", back, cs, ts)
    assert path.read_text() == (tmp_path / "v2.csv").read_text()


def test_values_missing_key_named(tmp_path, toy_file):
    cs, ts = read_hierarchy(toy_file)
    path = tmp_path / "v.csv"
    write_values(path, np.ones((3, 7)), cs, ts)
    lines = path.read_text().splitlines()
    del lines[5]  # drop one data row
    (tmp_path / "broken.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="missing key"):
        read_values(tmp_path / "broken.csv", cs, ts)


def test_values_duplicate_key(tmp_path, toy_file):
    cs, ts = read_hierarchy(toy_file)
    path = tmp_path / "v.csv"
    write_values(path, np.ones((3, 7)), cs, ts)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    (tmp_path / "dup.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_values(tmp_path / "dup.csv", cs, ts)


def test_residuals_round_trip(tmp_path, toy_file):
    cs, ts = read_hierarchy(toy_file)
    actuals, _ = generate_coherent(cs, ts, 10, seed=3)
    _, resid = naive_base_forecasts(actuals, cs, ts, origin=8)
    path = tmp_path / "r.csv"
    write_residuals(path, resid, cs)
    back = read_residuals(path, cs, ts)
    np.testing.assert_array_equal(back.values, resid.values)


def test_config_and_spec_keys_ignore_case_and_read_dash_as_underscore(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("Method = oct-wlsv\nMAX-ITER = 7\n")
    assert read_config(cfg, ("method", "max_iter")) == {"method": "oct-wlsv", "max_iter": "7"}
    spec = tmp_path / "spec.txt"
    spec.write_text(TOY_SPEC.replace("m = 4", "M = 4\nFactors = 4,1"))
    assert read_hierarchy(spec)[1].factors == (4, 1)


def test_read_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\nmethod = oct-wlsv\nmax-iter = 7\n")
    cfg = read_config(p, ("method", "max_iter"))
    assert cfg == {"method": "oct-wlsv", "max_iter": "7"}
    with pytest.raises(FormatError, match="line 3: unknown key 'max_iter'"):
        read_config(p, ("method",))


# ---------------------------------------------------------------------------
# CLI


def test_cli_version_is_the_package_version():
    """``--version`` prints the package literal; no installed distribution
    is needed, so it also works from a source checkout."""
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"ctrec, version {ctrec.__version__}\n"


def test_cli_info(toy_file):
    runner = CliRunner()
    result = runner.invoke(main, ["info", str(toy_file)])
    assert result.exit_code == 0
    assert "H': 13 × 21" in result.output
    assert "k*=3" in result.output


BAD_SPECS = {
    "factor 0": ("m = 4\nfactors = 4,0,1\n[matrix]\n,W,Z\nX,1,1\n",
                 "aggregation order must be an integer of at least 1, got 0"),
    "factor -2": ("m = 4\nfactors = 4,-2,1\n[matrix]\n,W,Z\nX,1,1\n",
                  "aggregation order must be an integer of at least 1, got -2"),
    "factor 3 of m = 4": ("m = 4\nfactors = 4,3,1\n[matrix]\n,W,Z\nX,1,1\n",
                          "3 does not divide the cycle length 4"),
    "edge cycle": ("m = 4\n[edges]\nA,TOT\nB,TOT\nAA,A\nBA,B\nB,A\nA,B\n",
                   "edges form a cycle through 'A'"),
    "edge self-loop": ("m = 4\n[edges]\nA,TOT\nB,TOT\nTOT,TOT\n",
                       "edges form a cycle through 'TOT'"),
    "repeated edge": ("m = 4\n[edges]\nnode,parent\nA,TOT\nB,TOT\nA,TOT\n",
                      "line 6: repeated edge 'A,TOT'"),
}


@pytest.mark.parametrize("case", list(BAD_SPECS))
def test_cli_info_rejects_a_bad_spec_naming_the_file(tmp_path, case):
    spec, message = BAD_SPECS[case]
    path = tmp_path / "spec.txt"
    path.write_text(spec)
    result = CliRunner().invoke(main, ["info", str(path)])
    assert result.exit_code == 2, result.output
    assert f"error: {path}: {message}" in result.output


def _write_forecasts(tmp_path, toy_file, seed=1):
    cs, ts = read_hierarchy(toy_file)
    actuals, _ = generate_coherent(cs, ts, 12, seed=seed)
    Y_hat, resid = naive_base_forecasts(actuals, cs, ts, origin=10)
    write_values(tmp_path / "fc.csv", Y_hat, cs, ts)
    write_residuals(tmp_path / "res.csv", resid, cs)
    return cs, ts


def test_cli_reconcile_all_method_families(tmp_path, toy_file):
    cs, ts = _write_forecasts(tmp_path, toy_file)
    runner = CliRunner()
    for method in ("bu", "cs-ols", "t-struc", "oct-wlsv"):
        out = tmp_path / f"out-{method}.csv"
        args = [
            "reconcile", "--method", method,
            "--in", str(tmp_path / "fc.csv"),
            "--residuals", str(tmp_path / "res.csv"),
            "--hierarchy", str(toy_file),
            "--out", str(out),
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert out.exists()
        assert "d_cs" in result.output
    assert "  cholesky, condition estimate: " in result.output
    vals, cycles = read_values(tmp_path / "out-oct-wlsv.csv", cs, ts)
    assert cycles == 1 and vals.shape == (3, 7)


def test_cli_reconcile_prints_the_ill_conditioning_warning(tmp_path, toy_file):
    cs, ts = _write_forecasts(tmp_path, toy_file)
    resid = read_residuals(tmp_path / "res.csv", cs, ts)
    scaled = resid.values.copy()
    scaled[: ts.cycle_len] *= 3e-7  # the total's variances about 1e-13 of the others'
    write_residuals(tmp_path / "res.csv", ResidualTableau(scaled, cs.n, ts), cs)
    result = CliRunner().invoke(main, [
        "reconcile", "--method", "oct-wlsv",
        "--in", str(tmp_path / "fc.csv"),
        "--residuals", str(tmp_path / "res.csv"),
        "--hierarchy", str(toy_file),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    estimate = re.fullmatch(r"  cholesky, condition estimate: (\S+)", lines[1]).group(1)
    assert float(estimate) > 1e12
    assert lines[2] == f"  warning: ill-conditioned system (condition estimate {estimate})"


def test_cli_reconcile_two_cycle_horizon(tmp_path, toy_file):
    cs, ts = read_hierarchy(toy_file)
    actuals, _ = generate_coherent(cs, ts, 12, seed=4)
    Y_hat, resid = naive_base_forecasts(actuals, cs, ts, origin=10, h=2)
    write_values(tmp_path / "fc2.csv", Y_hat, cs, ts)
    write_residuals(tmp_path / "res2.csv", resid, cs)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["reconcile", "--method", "oct-bdshr", "--in", str(tmp_path / "fc2.csv"),
         "--residuals", str(tmp_path / "res2.csv"),
         "--hierarchy", str(toy_file), "--out", str(tmp_path / "o2.csv")],
    )
    assert result.exit_code == 0, result.output
    vals, cycles = read_values(tmp_path / "o2.csv", cs, ts)
    assert cycles == 2 and vals.shape == (3, 14)


def test_cli_reconcile_exit_codes(tmp_path, toy_file):
    runner = CliRunner()
    cs, ts = _write_forecasts(tmp_path, toy_file)
    # 2: malformed input file
    bad = tmp_path / "bad.csv"
    bad.write_text("series,level_k\nX,4\n")
    result = runner.invoke(
        main,
        ["reconcile", "--method", "bu", "--in", str(bad),
         "--hierarchy", str(toy_file), "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 2
    # 2: unknown method
    result = runner.invoke(
        main,
        ["reconcile", "--method", "tcs-magic", "--in", str(tmp_path / "fc.csv"),
         "--hierarchy", str(toy_file), "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 2
    # 3: sample covariance without enough residual columns
    small = tmp_path / "small.csv"
    with open(small, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "level_k", "index_within_level", "origin_column", "value"])
        for label_i, label in enumerate(cs.labels):
            for k in ts.factors:
                for l in range(1, ts.M_k[k] + 1):
                    for tau in (1, 2):
                        w.writerow([label, k, l, tau, 0.5 * label_i + l + tau])
    result = runner.invoke(
        main,
        ["reconcile", "--method", "oct-sam", "--in", str(tmp_path / "fc.csv"),
         "--residuals", str(small), "--hierarchy", str(toy_file),
         "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 3
    assert "N > n(k*+m)" in result.output


def test_cli_heuristic_and_nonconvergence(tmp_path, toy_file):
    _write_forecasts(tmp_path, toy_file)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["heuristic", "--temporal", "t-wlsv", "--cross-sectional", "cs-shr",
         "--iterative", "--delta", "1e-6",
         "--in", str(tmp_path / "fc.csv"), "--residuals", str(tmp_path / "res.csv"),
         "--hierarchy", str(toy_file), "--out", str(tmp_path / "heur.csv")],
    )
    assert result.exit_code == 0, result.output
    assert "iteration trace" in result.output
    with runner.isolated_filesystem():
        result = runner.invoke(
            main,
            ["heuristic", "--iterative", "--delta", "1e-300", "--max-iter", "1",
             "--in", str(tmp_path / "fc.csv"),
             "--residuals", str(tmp_path / "res.csv"),
             "--hierarchy", str(toy_file), "--out", "never.csv"],
        )
        assert result.exit_code == 4
        assert "trace" in result.output


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_cli_heuristic_divergence_exits_4_with_the_trace(tmp_path):
    xts = grouped_structure(32, 4, 12, 1)
    y, resid = seeded_inputs(xts, origin=40)
    write_hierarchy(tmp_path / "h.txt", xts.cs, xts.ts)
    write_values(tmp_path / "fc.csv", y.reshape(xts.n, xts.width), xts.cs, xts.ts)
    write_residuals(tmp_path / "res.csv", resid, xts.cs)
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(
            main,
            ["heuristic", "--iterative", "--temporal", "t-sam", "--cross-sectional", "cs-sam",
             "--in", str(tmp_path / "fc.csv"), "--residuals", str(tmp_path / "res.csv"),
             "--hierarchy", str(tmp_path / "h.txt"), "--out", "never.csv"],
        )
        assert result.exit_code == 4, result.output
        assert "diverged" in result.output
        lines = open("ctrec-trace.csv", encoding="utf-8").read().splitlines()
        assert lines[0] == "iteration,d_cs,d_te" and len(lines) > 2


def test_cli_config_file(tmp_path, toy_file):
    _write_forecasts(tmp_path, toy_file)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("method = bu\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["reconcile", "--method", "bu", "--in", str(tmp_path / "fc.csv"),
         "--hierarchy", str(toy_file), "--out", str(tmp_path / "o.csv"),
         "--config", str(cfg)],
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", [["heuristic"], ["reconcile", "--method", "bu"]])
@pytest.mark.parametrize(
    "line, message",
    [("temporl = t-ols", "unknown key 'temporl'"), ("temporal t-ols", "expected key = value")],
)
def test_cli_bad_config_line_exits_2_naming_file_and_line(
    tmp_path, toy_file, command, line, message
):
    _write_forecasts(tmp_path, toy_file)
    config = f"# the third line is bad\norder = tcs\n{line}\n"
    code, output = _cli_output(tmp_path, toy_file, command, config)
    assert code == 2, output
    assert f"{tmp_path / 'cfg.txt'}: line 3: {message}" in output


def _cli_output(tmp_path, toy_file, args, config=None):
    """Exit code and written file of one run over the toy forecasts."""
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        args = args + ["--config", str(tmp_path / "cfg.txt")]
    result = CliRunner().invoke(
        main,
        args + ["--in", str(tmp_path / "fc.csv"), "--residuals", str(tmp_path / "res.csv"),
                "--hierarchy", str(toy_file), "--out", str(out)],
    )
    return result.exit_code, out.read_bytes() if out.exists() else result.output


@pytest.mark.parametrize(
    "flags, config, same_as",
    [
        (["--method", "oct-ols"], "method = bu\n", ["--method", "oct-ols"]),
        ([], "method = oct-ols\n", ["--method", "oct-ols"]),
        (["--method", "bu"], "method = t-struc\n", ["--method", "bu"]),
        ([], "method = t-struc\n", ["--method", "t-struc"]),
    ],
)
def test_cli_reconcile_flag_beats_config_which_fills_method(
    tmp_path, toy_file, flags, config, same_as
):
    _write_forecasts(tmp_path, toy_file)
    code, got = _cli_output(tmp_path, toy_file, ["reconcile", *flags], config)
    assert code == 0, got
    assert got == _cli_output(tmp_path, toy_file, ["reconcile", *same_as])[1]


@pytest.mark.parametrize("config", [None, "max_iter = 3\n"])
def test_cli_reconcile_without_a_method_exits_2(tmp_path, toy_file, config):
    _write_forecasts(tmp_path, toy_file)
    code, output = _cli_output(tmp_path, toy_file, ["reconcile"], config)
    assert code == 2
    assert "--method" in output


@pytest.mark.parametrize(
    "flags, config, same_as",
    [
        (["--temporal", "t-ols"], "temporal = t-struc\n", ["--temporal", "t-ols"]),
        ([], "temporal = t-struc\n", ["--temporal", "t-struc"]),
        (["--cross-sectional", "cs-ols"], "cross_sectional = cs-wls\n",
         ["--cross-sectional", "cs-ols"]),
        ([], "cross_sectional = cs-wls\n", ["--cross-sectional", "cs-wls"]),
        (["--order", "cst"], "order = tcs\n", ["--order", "cst"]),
        ([], "order = cst\n", ["--order", "cst"]),
    ],
)
def test_cli_heuristic_flag_beats_config_which_fills_kinds(
    tmp_path, toy_file, flags, config, same_as
):
    _write_forecasts(tmp_path, toy_file)
    code, got = _cli_output(tmp_path, toy_file, ["heuristic", *flags], config)
    assert code == 0, got
    assert got == _cli_output(tmp_path, toy_file, ["heuristic", *same_as])[1]
    assert got != _cli_output(tmp_path, toy_file, ["heuristic"])[1]


@pytest.mark.parametrize(
    "flags, config, code",
    [
        (["--max-iter", "1", "--delta", "1e-300"], "max_iter = 100\ndelta = 1e-3\n", 4),
        ([], "max_iter = 1\ndelta = 1e-300\n", 4),
        (["--max-iter", "100", "--delta", "1e-3"], "max_iter = 1\ndelta = 1e-300\n", 0),
    ],
)
def test_cli_heuristic_flag_beats_config_which_fills_stop_rule(
    tmp_path, toy_file, flags, config, code
):
    _write_forecasts(tmp_path, toy_file)
    with CliRunner().isolated_filesystem():  # the trace of exit 4 lands here
        got = _cli_output(tmp_path, toy_file, ["heuristic", "--iterative", *flags], config)
    assert got[0] == code, got[1]


def test_cli_synth_reconcile_evaluate_pipeline(tmp_path, toy_file):
    runner = CliRunner()
    out = tmp_path / "demo"
    result = runner.invoke(
        main,
        ["synth", "--hierarchy", str(toy_file), "--cycles", "10",
         "--origins", "5", "--seed", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert (out / "actuals.csv").exists()
    assert len(list((out / "runs" / "base").glob("*.csv"))) == 5

    result = runner.invoke(
        main,
        ["reconcile", "--method", "bu", "--in", str(out / "runs" / "base"),
         "--residuals", str(out / "residuals"), "--hierarchy", str(toy_file),
         "--out", str(out / "runs" / "bu")],
    )
    assert result.exit_code == 0, result.output
    assert len(list((out / "runs" / "bu").glob("*.csv"))) == 5

    result = runner.invoke(
        main,
        ["evaluate", "--actuals", str(out / "actuals.csv"),
         "--runs", str(out / "runs"), "--hierarchy", str(toy_file),
         "--measure", "mse", "--benchmark", "base",
         "--out", str(out / "table.csv")],
    )
    assert result.exit_code == 0, result.output
    assert "percentage improvement" in result.output
    header = (out / "table.csv").read_text().splitlines()[0].split(",")
    assert header[:2] == ["group", "procedure"]
    assert header[-1] == "all"
    assert "k1_h1" in header and "k4_all" in header


def test_cli_evaluate_table_matches_error_cube(tmp_path, toy_file):
    runner = CliRunner()
    out = tmp_path / "demo"
    result = runner.invoke(
        main,
        ["synth", "--hierarchy", str(toy_file), "--cycles", "10",
         "--origins", "4", "--h", "2", "--seed", "5", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["reconcile", "--method", "oct-wlsv", "--in", str(out / "runs" / "base"),
         "--residuals", str(out / "residuals"), "--hierarchy", str(toy_file),
         "--out", str(out / "runs" / "oct")],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        ["evaluate", "--actuals", str(out / "actuals.csv"),
         "--runs", str(out / "runs"), "--hierarchy", str(toy_file),
         "--measure", "mae", "--out", str(out / "table.csv")],
    )
    assert result.exit_code == 0, result.output

    cs, ts = read_hierarchy(toy_file)
    actuals, n_total = read_values(out / "actuals.csv", cs, ts)
    outputs = {
        name: [read_values(f, cs, ts)[0]
               for f in sorted((out / "runs" / name).glob("*.csv"))]
        for name in ("base", "oct")
    }
    cube = error_cube(actuals, outputs, cs, ts, 2, n_total - 4 - 2 + 1)
    header, rows = avgrel_table(cube, "mae")
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0].split(",") == header
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[:2] == row[:2]
        assert [float(c) for c in cells[2:]] == row[2:]


def test_cli_evaluate_rejects_a_missing_origin_file_and_another_horizon(tmp_path, toy_file):
    out = tmp_path / "demo"
    runner = CliRunner()
    result = runner.invoke(main, ["synth", "--hierarchy", str(toy_file), "--cycles", "10",
                                  "--origins", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    base = out / "runs" / "base"
    (out / "runs" / "bu").mkdir()
    for stem in ("origin_001.csv", "origin_002.csv"):
        (out / "runs" / "bu" / stem).write_bytes((base / stem).read_bytes())
    args = ["evaluate", "--actuals", str(out / "actuals.csv"), "--runs", str(out / "runs"),
            "--hierarchy", str(toy_file)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "bu: expected 3 tableaux of shape (3, 7)" in result.output
    cs, ts = read_hierarchy(toy_file)
    write_values(out / "runs" / "bu" / "origin_003.csv", np.zeros((3, 14)), cs, ts)  # h = 2
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "bu: expected 3 tableaux of shape (3, 7)" in result.output


def test_cli_evaluate_states_a_shortfall_of_actual_cycles(tmp_path, toy_file):
    out = tmp_path / "demo"
    runner = CliRunner()
    result = runner.invoke(main, ["synth", "--hierarchy", str(toy_file), "--cycles", "10",
                                  "--origins", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    cs, ts = read_hierarchy(toy_file)
    write_values(out / "short.csv", np.zeros((3, 2 * 7)), cs, ts)  # 2 cycles
    result = runner.invoke(main, ["evaluate", "--actuals", str(out / "short.csv"),
                                  "--runs", str(out / "runs"), "--hierarchy", str(toy_file)])
    assert result.exit_code == 2, result.output
    assert "3 origins of 1 cycles do not fit into 2 observed cycles" in result.output


def test_cli_evaluate_rejects_origin_files_that_differ_by_name(tmp_path, toy_file):
    out = tmp_path / "demo"
    runner = CliRunner()
    result = runner.invoke(main, ["synth", "--hierarchy", str(toy_file), "--cycles", "10",
                                  "--origins", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    base = out / "runs" / "base"
    (out / "runs" / "bu").mkdir()
    for t, stem in zip((1, 3, 9), sorted(p.name for p in base.glob("*.csv"))):
        (out / "runs" / "bu" / f"origin_{t:03d}.csv").write_bytes((base / stem).read_bytes())
    result = runner.invoke(main, ["evaluate", "--actuals", str(out / "actuals.csv"),
                                  "--runs", str(out / "runs"), "--hierarchy", str(toy_file)])
    assert result.exit_code == 2, result.output
    assert (f"{out / 'runs' / 'bu'}: origin file 'origin_003.csv' where base has "
            "'origin_002.csv'") in result.output


@pytest.mark.parametrize(
    "call, bad",
    [
        ("naive_base_forecasts h", 0),
        ("naive_base_forecasts h", -1),
        ("naive_base_forecasts h", 1.0),
        ("naive_base_forecasts h", True),
        ("naive_base_forecasts origin", 1),
        ("naive_base_forecasts origin", 2.5),
        ("build_cross_temporal h", 0),
        ("build_cross_temporal h", 2.0),
        ("build_cross_temporal h", True),
        ("temporal_cov h", 0),
        ("temporal_cov h", 2.5),
        ("temporal_cov h", 2.0),
        ("temporal_cov h", True),
        ("synth --h", 0),
        ("synth --h", -1),
        ("synth --origins", 0),
        ("synth --origins", -1),
        ("synth --cycles", 1),
    ],
)
def test_bad_horizon_or_origin_count_is_invalid_input(tmp_path, toy_file, call, bad):
    function, _, name = call.partition(" ")
    least = 2 if name in ("origin", "--cycles") else 1
    message = f"{name} must be an integer of at least {least}, got {bad!r}"
    if function == "synth":
        result = CliRunner().invoke(main, [
            "synth", "--hierarchy", str(toy_file), "--cycles", "4",
            name, str(bad), "--out", str(tmp_path / "demo"),
        ])
        assert result.exit_code == 2, result.output
        assert f"error: {message}" in result.output
        assert not (tmp_path / "demo").exists()  # nothing written
        return
    cs, ts = read_hierarchy(toy_file)
    with pytest.raises(InvalidInput, match=re.escape(message)):
        if function == "naive_base_forecasts":
            actuals, _ = generate_coherent(cs, ts, 6, seed=0)
            naive_base_forecasts(actuals, cs, ts, **{"origin": 4, "h": 1, name: bad})
        elif function == "temporal_cov":
            temporal_cov("t-ols", ts, h=bad)
        else:
            build_cross_temporal(cs, ts, bad)


def _corrupt_first_row(path, column, text):
    """Copy of a long-format CSV whose first data row has ``column`` = ``text``."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = text
    bad = path.with_name("bad-" + path.name)
    bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    return bad


@pytest.mark.parametrize(
    "case, key",
    [
        ("hierarchy m", "m = 'four'"),
        ("values level_k", "level_k 'x'"),
        ("values non-finite", "non-finite value"),
        ("residuals non-finite", "non-finite value"),
        ("residuals value", "value 'abc'"),
        ("residuals origin_column", "origin_column '0'"),
        ("values field limit", "line 2: field larger than field limit"),
        ("config delta", "delta = 'abc'"),
        ("config max_iter", "max_iter = '2.5'"),
    ],
)
def test_cli_unparsable_input_exits_2_naming_the_key(tmp_path, toy_file, case, key):
    _write_forecasts(tmp_path, toy_file)
    spec, fc, res = toy_file, tmp_path / "fc.csv", tmp_path / "res.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("")
    if case == "hierarchy m":
        spec = tmp_path / "bad-spec.txt"
        spec.write_text(TOY_SPEC.replace("m = 4", "m = four"))
    elif case == "values level_k":
        fc = _corrupt_first_row(fc, "level_k", "x")
    elif case == "values non-finite":
        fc = _corrupt_first_row(fc, "value", "nan")
    elif case == "residuals non-finite":
        res = _corrupt_first_row(res, "value", "nan")
    elif case == "residuals value":
        res = _corrupt_first_row(res, "value", "abc")
    elif case == "residuals origin_column":
        res = _corrupt_first_row(res, "origin_column", "0")
    elif case == "values field limit":
        fc = _corrupt_first_row(fc, "value", "1" * 200000)
    else:
        cfg.write_text(key.replace("'", "") + "\n")
    result = CliRunner().invoke(
        main,
        ["heuristic", "--iterative", "--in", str(fc), "--residuals", str(res),
         "--hierarchy", str(spec), "--config", str(cfg),
         "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 2, result.output
    assert key in result.output


# ---------------------------------------------------------------------------
# Long-format readers: one exact message per single-fault file


def _long_files(tmp_path, toy_file):
    """A valid value file (one cycle) and residual file (two origin columns)."""
    cs, ts = read_hierarchy(toy_file)
    rng = np.random.default_rng(7)
    write_values(tmp_path / "values.csv", rng.normal(size=(3, 7)), cs, ts)
    resid = ResidualTableau(rng.normal(size=(21, 2)), cs.n, ts)
    write_residuals(tmp_path / "residuals.csv", resid, cs)
    return cs, ts


def _set(row, column, text):
    def edit(lines):
        header = lines[0].split(",")
        cells = lines[row].split(",")
        cells[header.index(column)] = text
        return lines[:row] + [",".join(cells)] + lines[row + 1 :]

    return edit


def _drop_column(name):
    def edit(lines):
        j = lines[0].split(",").index(name)
        return [",".join(c for i, c in enumerate(line.split(",")) if i != j)
                for line in lines]

    return edit


def _series_last_then_short(lines):
    """Move the series column last, then drop that cell from row 1."""
    rows = [line.split(",") for line in lines]
    rows = [cells[1:] + cells[:1] for cells in rows]
    rows[1] = rows[1][:-1]
    return [",".join(cells) for cells in rows]


_FAULTS = {
    "duplicate key": lambda lines: lines + [lines[1]],
    "missing key": lambda lines: lines[:5] + lines[6:],
    "unknown series": _set(1, "series", "Q"),
    "unknown level": _set(1, "level_k", "3"),
    "index out of range": _set(1, "index_within_level", "9"),
    "origin_column 0": _set(2, "origin_column", "0"),
    "level_k not a number": _set(1, "level_k", "x"),
    "index not a number": _set(1, "index_within_level", "1.0"),
    "origin_column not a number": _set(1, "origin_column", "0x1"),
    "value not a number": _set(1, "value", "abc"),
    "short row": lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]] + lines[2:],
    "missing header column": _drop_column("value"),
    "header only": lambda lines: lines[:1],
    "field limit": _set(1, "value", "1" * 200000),
    "non-finite": _set(2, "value", "-inf"),
    "bad row after a blank line": lambda lines: (
        lines[:1] + [""] + _set(1, "level_k", "x")(lines)[1:]
    ),
    "level_k beyond int64": _set(1, "level_k", "9223372036854775808"),
    "origin_column 0 before a bad value": lambda lines: (
        _set(3, "value", "abc")(_set(1, "origin_column", "0")(lines))
    ),
    "duplicate key before a bad level_k": lambda lines: (
        lines[:2] + [lines[1]] + _set(2, "level_k", "x")(lines)[2:]
    ),
    "missing header column and a long field": lambda lines: (
        _drop_column("value")(_set(2, "level_k", "1" * 200000)(lines))
    ),
    "short row without series": _series_last_then_short,
}

_VALUE_COLUMNS = "['index_within_level', 'level_k', 'series', 'value']"
_RESIDUAL_COLUMNS = (
    "['index_within_level', 'level_k', 'origin_column', 'series', 'value']"
)


@pytest.mark.parametrize(
    "reader, fault, message",
    [
        ("values", "duplicate key", "duplicate key ('X', 4, 1)"),
        ("values", "missing key", "missing key (X, 1, 2)"),
        ("values", "unknown series", "unknown series 'Q'"),
        ("values", "unknown level",
         "level blocks [1, 2, 3, 4] do not cover the factor set [1, 2, 4]"),
        ("values", "index out of range", "index 9 out of range 1..1 at (X, 4)"),
        ("values", "level_k not a number", "line 2: level_k 'x' is not a number"),
        ("values", "index not a number",
         "line 2: index_within_level '1.0' is not a number"),
        ("values", "value not a number", "line 2: value 'abc' is not a number"),
        ("values", "short row", "line 2: value None is not a number"),
        ("values", "missing header column", f"expected columns {_VALUE_COLUMNS}"),
        ("values", "header only", "no data rows"),
        ("values", "field limit", "line 2: field larger than field limit (131072)"),
        ("values", "bad row after a blank line",
         "line 3: level_k 'x' is not a number"),
        ("values", "non-finite", "non-finite value at ('X', 2, 1)"),
        ("values", "level_k beyond int64",
         "line 2: level_k '9223372036854775808' is not a number"),
        ("values", "duplicate key before a bad level_k",
         "duplicate key ('X', 4, 1)"),
        ("values", "missing header column and a long field",
         f"expected columns {_VALUE_COLUMNS}"),
        ("values", "short row without series", "line 2: series is missing"),
        ("residuals", "duplicate key", "duplicate key ('X', 4, 1, 1)"),
        ("residuals", "missing key", "missing key (X, 2, 2, 1)"),
        ("residuals", "unknown series", "unknown series 'Q'"),
        ("residuals", "unknown level", "bad level/index (X, 3, 1)"),
        ("residuals", "index out of range", "bad level/index (X, 4, 9)"),
        ("residuals", "origin_column 0", "line 3: origin_column '0' is below 1"),
        ("residuals", "level_k not a number", "line 2: level_k 'x' is not a number"),
        ("residuals", "index not a number",
         "line 2: index_within_level '1.0' is not a number"),
        ("residuals", "origin_column not a number",
         "line 2: origin_column '0x1' is not a number"),
        ("residuals", "value not a number", "line 2: value 'abc' is not a number"),
        ("residuals", "short row", "line 2: value None is not a number"),
        ("residuals", "missing header column",
         f"expected columns {_RESIDUAL_COLUMNS}"),
        ("residuals", "header only", "no data rows"),
        ("residuals", "field limit",
         "line 2: field larger than field limit (131072)"),
        ("residuals", "bad row after a blank line",
         "line 3: level_k 'x' is not a number"),
        ("residuals", "non-finite", "non-finite value at ('X', 4, 1, 2)"),
        ("residuals", "level_k beyond int64",
         "line 2: level_k '9223372036854775808' is not a number"),
        ("residuals", "origin_column 0 before a bad value",
         "line 2: origin_column '0' is below 1"),
        ("residuals", "duplicate key before a bad level_k",
         "duplicate key ('X', 4, 1, 1)"),
        ("residuals", "missing header column and a long field",
         f"expected columns {_RESIDUAL_COLUMNS}"),
        ("residuals", "short row without series", "line 2: series is missing"),
    ],
)
def test_long_format_fault_messages(
    tmp_path, toy_file, monkeypatch, reader, fault, message
):
    cs, ts = _long_files(tmp_path, toy_file)
    lines = (tmp_path / f"{reader}.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(_FAULTS[fault](lines)) + "\n")
    read = read_values if reader == "values" else read_residuals
    reads = []
    read_text = ctrec.io._read_text
    monkeypatch.setattr(
        ctrec.io, "_read_text", lambda path: reads.append(path) or read_text(path)
    )
    with pytest.raises(FormatError) as info:
        read(bad, cs, ts)
    assert str(info.value) == f"{bad}: {message}"
    assert reads == [bad]  # the file is read from disk once


@pytest.mark.parametrize("name", ["values.csv", "residuals.csv", "spec.txt"])
def test_byte_order_mark_is_accepted(tmp_path, toy_file, name):
    """Spreadsheet programs save CSV text with a UTF-8 byte-order mark."""
    cs, ts = _long_files(tmp_path, toy_file)
    write_hierarchy(tmp_path / "spec.txt", cs, ts)
    plain = tmp_path / name
    marked = tmp_path / f"bom-{name}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    if name == "values.csv":
        got, want = read_values(marked, cs, ts), read_values(plain, cs, ts)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
    elif name == "residuals.csv":
        got, want = read_residuals(marked, cs, ts), read_residuals(plain, cs, ts)
        np.testing.assert_array_equal(got.values, want.values)
    else:
        (got_cs, got_ts), (want_cs, want_ts) = read_hierarchy(marked), read_hierarchy(plain)
        assert got_cs.labels == want_cs.labels
        np.testing.assert_array_equal(got_cs.agg_matrix, want_cs.agg_matrix)
        assert got_ts.factors == want_ts.factors


@pytest.mark.parametrize("reader", ["values", "residuals"])
def test_long_format_layout_is_free(tmp_path, toy_file, reader):
    """Blank lines, a reordered header and an extra column are accepted."""
    cs, ts = _long_files(tmp_path, toy_file)
    path = tmp_path / f"{reader}.csv"
    read = read_values if reader == "values" else read_residuals
    want = read(path, cs, ts)
    want = want[0] if reader == "values" else want.values
    rows = [line.split(",") for line in path.read_text().splitlines()]
    order = list(reversed(range(len(rows[0]))))
    edited = [",".join([rows[0][j] for j in order] + ["note"])]
    for i, cells in enumerate(rows[1:][::-1]):
        edited += ["", ",".join([cells[j] for j in order] + [f"n{i}"])]
    edited.append("")
    bad = tmp_path / "free.csv"
    bad.write_text("\n".join(edited) + "\n\n")
    got = read(bad, cs, ts)
    got = got[0] if reader == "values" else got.values
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# numpy's C reader against the csv.reader path, its oracle

_PLAIN_LABEL = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='",'),
    max_size=14,
)  # spaces, '#' and labels past 8 characters among them
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
# Cells that numpy's reader must not be left to read: forms that only
# Python's int/float take, forms that numpy's takes and Python's do not,
# forms that neither takes, and labels that csv unquotes or splitlines splits.
_ODD = {
    "int": ["1_2", "\u0661\u0662", "1.0", "0x10", "", "x", "1e3", "9223372036854775808",
            "\x1f1", "1\x1f", "\u01fe", "\u20031", "\U00100031", "1 2"],
    "value": ["1_0.5", "\u0661.5", "0x1p3", "", "abc", "1\x1f", "\x1f2.5", "1.0d3",
              "nan(1)", "\u00a01", "\u01fe"],
    "series": ['"a, b"', 'x"y', "\u00e9", "a\x1cb", "a\u2028b", "a\x0bb", "a\x00b",
               "a\x1fb", "\ufeffT", "\U00100031"],
}


@st.composite
def _int_cell(draw):
    v = draw(st.one_of(st.integers(-3, 40), st.integers(-(2**63), 2**63 - 1)))
    text = draw(st.sampled_from(["{}", "+{}", "00{}"])).format(v) if v >= 0 else str(v)
    return draw(_SPACE) + text + draw(_SPACE)


@st.composite
def _float_cell(draw):
    x = draw(st.floats(allow_nan=True, allow_infinity=True))
    text = draw(st.sampled_from([repr(x), format(x, ".5e"), format(x, ".3g")]))
    text = draw(st.sampled_from(
        [text, text, "nan", "-Infinity", "inf", "1e400", "+.5", "5.", "-0", "2.5E-310"]
    ))
    return draw(_SPACE) + text + draw(_SPACE)


@st.composite
def _long_text(draw):
    """A long-format file ``(text, int_fields, plain)``: ``plain`` files
    must take numpy's reader; up to two odd edits (an odd cell, a short
    row, a whitespace-only line) make a file that may take either path."""
    int_fields = draw(st.sampled_from([ctrec.io._VALUE_INTS, ctrec.io._RESIDUAL_INTS]))
    header = draw(st.permutations(["series", *int_fields, "value"]))
    header += draw(st.sampled_from([[], ["note"]]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        cells = {"series": draw(_PLAIN_LABEL), "note": "n", "value": draw(_float_cell())}
        cells.update((name, draw(_int_cell())) for name in int_fields)
        extra = draw(st.sampled_from([0, 0, 0, 1, 2]))
        rows.append([cells[name] for name in header] + ["x"] * extra)
    plain = bool(rows)  # a file without data rows makes numpy warn
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2])) if rows else 0):
        plain = False
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["series", "int", "value", "short", "space"]))
        if edit == "short":
            rows[i] = rows[i][: draw(st.integers(0, len(header) - 1))]
        elif edit == "space":
            rows.insert(i, [draw(st.sampled_from([" ", "\t"]))])
        else:
            name = draw(st.sampled_from(int_fields)) if edit == "int" else edit
            j = header.index(name)
            if j < len(rows[i]):
                rows[i][j] = draw(st.sampled_from(_ODD[edit]))
    lines = [",".join(header)]
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1])) + [",".join(row)]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + draw(st.sampled_from(["\n", "\r\n"])).join(lines), int_fields, plain


def _columns_or_error(path, int_fields):
    """``_read_long``'s columns as bytes, or the text of its FormatError."""
    try:
        series, ints, values, fault = ctrec.io._read_long(path, int_fields)
    except FormatError as exc:
        return str(exc)
    return (series, ints.dtype.str, ints.shape, ints.tobytes(), values.dtype.str,
            values.shape, values.tobytes(), str(fault("check")))


def _one_row(series="A", level_k="4", value="1.5", plain=False):
    """A value file of one data row, as a :func:`_long_text` case."""
    return (f"series,level_k,index_within_level,value\n{series},{level_k},1,{value}",
            ctrec.io._VALUE_INTS, plain)


@settings(max_examples=200, deadline=None)
@given(case=_long_text())
@example(case=("series,level_k,index_within_level,value\n\n", ctrec.io._VALUE_INTS, False))
@example(case=_one_row(series="# a label past 8", value=" -1E+5 ", plain=True))
@example(case=_one_row(level_k="\u01fe"))  # numpy reads it as 462
@example(case=_one_row(level_k="\U00100031"))  # numpy 2.4 crashes on it
@example(case=_one_row(level_k="4\x1f"))  # numpy strips it, int() does not
@example(case=_one_row(series="a\x1cb"))  # a line break to splitlines only
@example(case=_one_row(series='"a"'))  # csv unquotes it, numpy does not
@example(case=_one_row(value="1" * 131073))  # over the csv field limit
def test_loadtxt_path_matches_the_csv_path(case):
    text, int_fields, plain = case
    loaded = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        table = loadtxt(*args, **kwargs)
        loaded.append(table)
        return table

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "long.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(ctrec.io.np, "loadtxt", spy):
            got = _columns_or_error(path, int_fields)
        with mock.patch.object(ctrec.io, "_loadtxt_columns", lambda *args: None):
            want = _columns_or_error(path, int_fields)
    assert got == want
    if plain:
        assert loaded, "a plain file must be read by numpy's reader"


# ---------------------------------------------------------------------------
# Writers: csv.writer oracles and a write / shuffle / read round trip


def _oracle_values(path, values, cs, ts):
    """The row-by-row ``csv.writer`` form of a value file."""
    cycles = values.shape[1] // ts.cycle_len
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "level_k", "index_within_level", "value"])
        for i, label in enumerate(cs.labels):
            for k in ts.factors:
                slc = ts.level_slice(k, cycles)
                for pos, v in enumerate(values[i, slc], start=1):
                    w.writerow([label, k, pos, format(float(v), ".17g")])


def _oracle_residuals(path, residuals, cs):
    """The row-by-row ``csv.writer`` form of a residual file."""
    ts = residuals.ts
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["series", "level_k", "index_within_level", "origin_column", "value"])
        for i, label in enumerate(cs.labels):
            block = residuals.series_block(i)
            for k in ts.factors:
                slc = ts.level_slice(k)
                for l in range(ts.M_k[k]):
                    for tau in range(residuals.n_cycles):
                        v = format(float(block[slc.start + l, tau]), ".17g")
                        w.writerow([label, k, l + 1, tau + 1, v])


def _awkward_floats(rng, shape):
    """Floats over the whole exponent range, with signed zeros and
    subnormals among them."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 1.0])
    pick = rng.random(shape) < 0.1
    x[pick] = rng.choice(special, int(pick.sum()))
    return x


def _shuffled(path, rng):
    """Copy of a CSV file with its data rows in random order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [lines[j] for j in 1 + rng.permutation(len(lines) - 1)]
    out = path.with_name("shuffled-" + path.name)
    out.write_text("\n".join(lines[:1] + rows) + "\n", encoding="utf-8")
    return out


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([2, 4, 12]),
    h=st.sampled_from([1, 2]),
    quoted=st.booleans(),
)
def test_long_format_round_trip(seed, m, h, quoted):
    rng = np.random.default_rng(seed)
    cs = random_hierarchy(rng)
    if quoted:  # labels that csv must quote, or that look like numbers
        cs = build_cross_sectional(
            cs.agg_matrix, [f'{j}, "é" {j}' if j % 2 else f" {j}" for j in range(cs.n)]
        )
    ts = build_temporal(m)
    values = _awkward_floats(rng, (cs.n, h * ts.cycle_len))
    resid = ResidualTableau(
        _awkward_floats(rng, (cs.n * ts.cycle_len, int(rng.integers(1, 5)))), cs.n, ts
    )
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_values(d / "v.csv", values, cs, ts)
        _oracle_values(d / "v-oracle.csv", values, cs, ts)
        assert (d / "v.csv").read_bytes() == (d / "v-oracle.csv").read_bytes()
        write_residuals(d / "r.csv", resid, cs)
        _oracle_residuals(d / "r-oracle.csv", resid, cs)
        assert (d / "r.csv").read_bytes() == (d / "r-oracle.csv").read_bytes()

        back, cycles = read_values(_shuffled(d / "v.csv", rng), cs, ts)
        assert cycles == h
        assert back.tobytes() == values.tobytes()
        back = read_residuals(_shuffled(d / "r.csv", rng), cs, ts)
        assert back.values.tobytes() == resid.values.tobytes()


def test_table_writer_matches_csv_writer(tmp_path):
    header = ["group", "procedure", "k1_h1", "all"]
    rows = [["upper", "oct, wlsv", 0.1, -0.0], ["bottom", 'say "hi"', 1e-310, 2.5]]
    write_table(tmp_path / "t.csv", header, rows)
    with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row[:2] + [format(v, ".17g") for v in row[2:]])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
