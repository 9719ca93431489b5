import csv
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toricurv.cli as cli
from toricurv import verify
from toricurv.cli import main
from toricurv.designs import builtin_design, clifford
from toricurv.formats import (
    immersion_to_obj,
    load_immersion,
    parse_immersion,
    save_immersion,
)
from toricurv.errors import ParseError
from toricurv.fixtures import perturbed_clifford
from toricurv.immersion import evaluate_jet
from toricurv.quadrature import MonomialEntry, MonomialReport, TorusGrid
from toricurv.verify import global_normal_curvature_max

from conftest import load_perfbench, overflowing_torus


@pytest.fixture()
def hex_file(tmp_path, hexagonal):
    path = tmp_path / "hex2.json"
    save_immersion(hexagonal, path)
    return str(path)


@pytest.fixture()
def clifford_file(tmp_path):
    path = tmp_path / "clifford2.json"
    path.write_text(json.dumps({"type": "clifford", "m": 2}))
    return str(path)


# ---------------------------------------------------------------- formats

def test_parse_clifford_shorthand(clifford2):
    imm = parse_immersion({"type": "clifford", "m": 2})
    np.testing.assert_allclose(evaluate_jet(imm, [0.4, 1.0], 0).value,
                               evaluate_jet(clifford2, [0.4, 1.0], 0).value, atol=1e-15)


def test_parse_gromov_with_scale(hexagonal):
    imm = parse_immersion({"type": "gromov", "B": [[1, 0], [0, 1], [1, 1]], "scale": 0.5})
    np.testing.assert_allclose(evaluate_jet(imm, [0.7, 0.2], 0).value,
                               0.5 * evaluate_jet(hexagonal, [0.7, 0.2], 0).value, atol=1e-15)


def test_roundtrip_fourier(wavy2, tmp_path):
    path = tmp_path / "wavy.json"
    save_immersion(wavy2, path)
    back = load_immersion(path)
    theta = [1.0, 2.5]
    np.testing.assert_allclose(evaluate_jet(back, theta, 2).d2,
                               evaluate_jet(wavy2, theta, 2).d2, atol=0)


@pytest.mark.parametrize("obj,fragment", [
    ({"type": "mystery"}, "type"),
    ({"type": "fourier", "q": 4, "terms": []}, "n"),
    ({"type": "fourier", "n": 2, "q": 4, "terms": [{"k": [1], "a": [0] * 4, "b": [0] * 4}]}, "terms[0].k"),
    ({"type": "fourier", "n": 2, "q": 4, "terms": [{"k": [1, 0], "a": [0] * 3, "b": [0] * 4}]}, "terms[0].a"),
    ({"type": "fourier", "n": 2, "q": 4, "scale": -1, "terms": []}, "scale"),
    ({"type": "clifford"}, "m"),
    ({"type": "gromov", "B": [[1, "x"]]}, "B"),
])
def test_parse_errors_name_the_field(obj, fragment):
    with pytest.raises(ParseError) as err:
        parse_immersion(obj)
    assert fragment in str(err.value)


# ---------------------------------------------------------------- verify command

def test_verify_hexagonal_all_pass(hex_file, tmp_path, capsys):
    out = tmp_path / "reports.json"
    code = main(["verify", hex_file, "--grid", "16,16", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [r["name"] for r in reports] == ["ball", "avg_h", "2d", "flat", "sphere",
                                            "main", "bow", "constant_k", "conjecture"]
    statuses = {r["name"]: r["status"] for r in reports}
    # A fourier file carries no design certificate, so constant_k has no claim to check.
    assert statuses.pop("constant_k") == "skipped"
    assert all(status == "pass" for status in statuses.values())
    assert all(r["config"]["input_sha256"] for r in reports)


def test_verify_byte_identical_reruns(hex_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", hex_file, "--grid", "16,16", "--out", str(out1)]) == 0
    assert main(["verify", hex_file, "--grid", "16,16", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_bow_skipped_on_scaled_fixture(tmp_path):
    path = tmp_path / "halved.json"
    path.write_text(json.dumps({"type": "clifford", "m": 2, "scale": 0.5}))
    out = tmp_path / "rep.json"
    code = main(["verify", str(path), "--checks", "bow", "--grid", "16,16",
                 "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert reports[0]["status"] == "skipped"


def test_verify_out_of_ball_fails(tmp_path, clifford2):
    obj = immersion_to_obj(clifford2)
    obj["translate"] = [0.5, 0.0, 0.0, 0.0]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", str(path), "--grid", "16,16", "--out",
                 str(tmp_path / "rep.json")])
    assert code == 1
    # K <= sqrt(2) still holds, but |x| <= cos(beta) is a bound for maps into
    # the ball: bow alone is skipped, and only ball's failure gives exit 1.
    out = tmp_path / "bow.json"
    assert main(["verify", str(path), "--checks", "bow", "--grid", "16,16", "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())
    assert (report["status"], report["diagnostics"]["error"]) == ("skipped", "NotInBall")


def test_verify_csv_format(hex_file, tmp_path):
    out = tmp_path / "rep.csv"
    code = main(["verify", hex_file, "--grid", "16,16", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "name,status,pass,margin,tolerance"
    assert len(rows) == 10


def test_verify_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


# ---------------------------------------------------------------- analyze command

def test_analyze_clifford_summary(clifford_file, tmp_path):
    base = tmp_path / "report"
    code = main(["analyze", clifford_file, "--grid", "16,16", "--out", str(base)])
    assert code == 0
    summary = json.loads((tmp_path / "report.json").read_text())
    assert abs(summary["avg_zh"] - 1.5) < 1e-10
    assert abs(summary["avg_H"] - 2.0) < 1e-10
    assert summary["max_gauss_residual"] < 1e-9
    assert abs(summary["K_max"] - math.sqrt(2)) < 1e-8
    assert abs(summary["K_min"] - 1.0) < 1e-8
    with (tmp_path / "report.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_1", "theta_2", "norm_f", "norm_H", "zh", "sc",
                       "k_min", "k_max", "beta"]
    assert len(rows) == 1 + 256


def test_analyze_hexagonal_constant_K(hex_file, tmp_path):
    base = tmp_path / "hexrep"
    assert main(["analyze", hex_file, "--grid", "16,16", "--out", str(base)]) == 0
    summary = json.loads((tmp_path / "hexrep.json").read_text())
    assert summary["K_max"] - summary["K_min"] < 1e-10


def test_analyze_K_max_is_the_gate_value(tmp_path):
    # analyze's JSON K_max and the K <= 2 gate read one best-found maximum;
    # K_min is refined downward from the sweep's smallest k_min.
    path = tmp_path / "input.json"
    save_immersion(perturbed_clifford(3, seed=1), path)
    base = tmp_path / "wavy3"
    assert main(["analyze", str(path), "--grid", "6", "--seed", "1", "--out", str(base)]) == 0
    summary = json.loads((tmp_path / "wavy3.json").read_text())
    gate = global_normal_curvature_max(load_immersion(path), TorusGrid((6, 6, 6)), seed=1)
    assert summary["K_max"] == gate
    with (tmp_path / "wavy3.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert summary["K_min"] <= min(float(row["k_min"]) for row in rows)


def test_analyze_byte_identical_reruns(tmp_path):
    path = tmp_path / "wavy3.json"
    save_immersion(perturbed_clifford(3, seed=1), path)
    for base in ("a", "b"):
        assert main(["analyze", str(path), "--grid", "8", "--seed", "2",
                     "--out", str(tmp_path / base)]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_analyze_evaluates_each_grid_point_once(tmp_path, monkeypatch):
    # One third-order pass serves the fields, Sc, the K range and the rank
    # check; only the two best-found K polishes (4 points each) add jets.
    path = tmp_path / "wavy3.json"
    save_immersion(perturbed_clifford(3, seed=1), path)
    points = []
    for module in (cli.intrinsic, cli.pointwise):
        original = module.jets_at

        def counting(imm, thetas, order, original=original):
            points.append(np.atleast_2d(thetas).shape[0])
            return original(imm, thetas, order)
        monkeypatch.setattr(module, "jets_at", counting)
    assert main(["analyze", str(path), "--grid", "8", "--out", str(tmp_path / "rep")]) == 0
    assert sum(points) == 8 ** 3 + 8


def test_analyze_overflowing_jets_exit_2(tmp_path, capsys):
    # A finite input whose jets overflow: |f| and the metric are inf at every
    # point.  The report would read inf and nan, so analyze refuses it, names
    # the first point and column, and writes nothing.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"type": "fourier", "n": 2, "q": 4, "terms": [
        {"k": [1, 0], "a": [1e200, 0, 0, 0], "b": [0, 1e200, 0, 0]},
        {"k": [0, 1], "a": [0, 0, 1e200, 0], "b": [0, 0, 0, 1e200]}]}))
    base = tmp_path / "rep"
    assert main(["analyze", str(path), "--out", str(base)]) == 2
    err = capsys.readouterr().err
    assert "norm_f is inf at theta=[0.0, 0.0]" in err
    assert not list(tmp_path.glob("rep.*"))


def test_verify_overflowing_metric_is_an_error_not_a_failure(tmp_path):
    # |f| < 1 everywhere, but the metric overflows at all but a few points, so
    # the K gate reads NaN, which decides nothing: bow is an error (exit 2),
    # not a failed bound (exit 1).  The fields are not finite and the
    # frequency is far above N/4, so ball reads the doubled grid.
    path = tmp_path / "huge_k.json"
    path.write_text(json.dumps(overflowing_torus(huge_frequency=True)))
    assert f"[{10 ** 160}, 1]" in path.read_text()      # the frequency is a JSON integer
    out = tmp_path / "rep.json"
    assert main(["verify", str(path), "--checks", "ball,bow", "--out", str(out)]) == 2
    ball, bow = json.loads(out.read_text())
    assert (ball["status"], bow["status"], bow["pass"]) == ("pass", "error", None)
    assert ball["diagnostics"]["refinement"] == "doubled"


def test_analyze_origin_beta_stays_nan(tmp_path):
    # beta is undefined where f = 0; that NaN alone does not refuse the report.
    path = tmp_path / "through0.json"
    path.write_text(json.dumps({"type": "fourier", "n": 1, "q": 2,
                                "terms": [{"k": [1], "a": [1, 0], "b": [0, 1]}],
                                "translate": [-1, 0]}))
    assert main(["analyze", str(path), "--grid", "16", "--out", str(tmp_path / "rep")]) == 0
    with (tmp_path / "rep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["norm_f"] == "0.0" and rows[0]["beta"] == "nan"
    assert all(math.isfinite(float(row["beta"])) for row in rows[1:])


@pytest.mark.parametrize("command,out", [
    ("analyze", "{input}"),
    ("analyze", "circle"),                   # BASE.json is the input
    ("analyze", "../{dir}/circle.csv"),
    ("verify", "{input}"),
    ("verify", "./circle.json"),
])
def test_out_refuses_to_overwrite_the_input(tmp_path, capsys, monkeypatch, command, out):
    def boom(*args, **kwargs):
        raise AssertionError("grid work ran before the --out check")

    monkeypatch.setattr(cli.verify, "run_checks", boom)
    monkeypatch.setattr(cli.intrinsic, "analysis_grid", boom)
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "clifford", "m": 1}))
    before = path.read_bytes()
    monkeypatch.chdir(tmp_path)
    out = out.format(input=path, dir=tmp_path.name)
    assert main([command, str(path), "--grid", "16", "--out", out]) == 2
    assert "is the input file" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["circle.json"]


def test_analyze_passes_the_benchmark_check(tmp_path):
    # The benchmark's own analyze input and correctness check, loaded
    # read-only from perfbench/: a failure there shows here first.
    inputs, checks = load_perfbench("inputs"), load_perfbench("checks")
    path, _ = inputs.write_inputs(["wavy3"], 1, tmp_path)["wavy3"]
    base = tmp_path / "analyze"
    code = main(["analyze", str(path), "--seed", "1", "--out", str(base)])
    summary = json.loads((tmp_path / "analyze.json").read_text())
    with (tmp_path / "analyze.csv").open(newline="") as fh:
        assert checks.analyze_wavy3(code, summary, fh) == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads a process's own peak from Linux's /proc")
def test_analyze_csv_leaves_no_text_in_this_process(tmp_path):
    # On the benchmark's analyze input, written by two workers, the CSV adds
    # under 1 MB to the process's peak: its text never comes back here, where
    # it would add about 9 MB.  The peak is VmHWM, the process's own: a
    # process started by this larger one inherits its ru_maxrss.
    inputs = load_perfbench("inputs")
    path, _ = inputs.write_inputs(["wavy3"], 1, tmp_path)["wavy3"]
    code = f"""
import toricurv.cli as cli, toricurv.forked as forked
forked.usable_cpus = lambda: 2
def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
write = cli._write_csv
def watched(*args):
    before = peak_kb()
    write(*args)
    print(len(forked.runs(32 ** 3)), peak_kb() - before)
    raise SystemExit      # the summary's K polish is not measured
cli._write_csv = watched
cli.main(["analyze", {str(path)!r}, "--seed", "1", "--out", {str(tmp_path / "analyze")!r}])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    blocks, rise_kb = map(int, out.stdout.split()[-2:])
    assert blocks == 2 and rise_kb < 1024


def test_verify_passes_the_benchmark_check(tmp_path):
    # verify-d4's input and check, on the 6^4 grid rather than 12^4.
    inputs, checks = load_perfbench("inputs"), load_perfbench("checks")
    path, _ = inputs.write_inputs(["d4"], 5, tmp_path)["d4"]
    out = tmp_path / "verify.json"
    code = main(["verify", str(path), "--grid", "6", "--seed", "5", "--out", str(out)])
    assert checks.verify_d4(code, json.loads(out.read_text())) == []


def test_explore_passes_the_benchmark_check(tmp_path):
    # explore-n2's check, on a smaller grid and a shorter search.
    checks = load_perfbench("checks")
    out = tmp_path / "explore.json"
    code = main(["explore", "--n", "2", "--q", "6", "--grid", "8", "--iterations", "20",
                 "--restarts", "2", "--out", str(out)])
    assert checks.explore_n2(code, json.loads(out.read_text()), 20, 2) == []


def test_analyze_rejects_degenerate(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "fourier", "n": 2, "q": 4,
                                "translate": [0.5, 0, 0, 0], "terms": []}))
    assert main(["analyze", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "theta=" in capsys.readouterr().err


def test_analyze_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "fourier", "n": 2, "q": 4,
                                "terms": [{"k": [1, 0], "a": [1, 0, 0], "b": [0, 0, 0, 0]}]}))
    assert main(["analyze", str(path)]) == 2
    assert "terms[0].a" in capsys.readouterr().err


# ---------------------------------------------------------------- design command

def test_design_validate_builtin(tmp_path):
    out = tmp_path / "hex.json"
    assert main(["design", "validate", "hex2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["is_constant_curvature"] is True
    assert report["c"] == "1/2"
    assert report["K2"] == "3/2"
    assert report["is_optimal"] is True
    assert abs(report["K"] - 1.224744871391589) < 1e-12


def test_design_validate_axdiag3(tmp_path):
    out = tmp_path / "ax.json"
    assert main(["design", "validate", "axdiag3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["K2"] == "7/3"
    assert report["is_optimal"] is False


def test_design_validate_matrix_file(tmp_path):
    mat = tmp_path / "hex.txt"
    mat.write_text("# hexagonal\n1 0\n0 1\n1 1\n")
    out = tmp_path / "rep.json"
    assert main(["design", "validate", str(mat), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["is_optimal"] is True


def test_design_rank_deficient_exit_2(tmp_path):
    mat = tmp_path / "bad.txt"
    mat.write_text("1 0\n2 0\n")
    assert main(["design", "validate", str(mat)]) == 2


def test_design_emit_then_verify_pipeline(tmp_path):
    emitted = tmp_path / "d4.json"
    assert main(["design", "emit", "d4", "--out", str(emitted)]) == 0
    out = tmp_path / "rep.json"
    code = main(["verify", str(emitted), "--checks", "flat", "--grid", "6,6,6,6",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())[0]
    assert report["status"] == "pass"
    assert abs(report["margin"]) < 1e-9


# ---------------------------------------------------------------- explore command

def test_explore_cli_runs(tmp_path):
    out = tmp_path / "probe.json"
    code = main(["explore", "--n", "2", "--q", "6", "--fmax", "1",
                 "--grid", "10,10", "--iterations", "25", "--restarts", "1",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["counterexample_candidate"] is False
    assert payload["sup_zh"] >= 1.5 - 1e-3
    assert payload["best_immersion"]["type"] == "fourier"
    # the search's nine settings, the grid as its sizes, and the version
    assert payload["config"] == {
        "n": 2, "q": 6, "fmax": 1, "grid": [10, 10], "seed": 42, "iterations": 25, "restarts": 1,
        "penalty_weight": 1000.0, "smoothing": 0.05, "version": cli.__version__}


@pytest.mark.parametrize("settings, explore_code, verify_code", [
    (["--iterations", "40"], 0, 0),
    (["--iterations", "2500", "--penalty-weight", "0"], 0, 1),
    (["--iterations", "40"], 3, 3),
], ids=["inside", "outside", "zh-lowered"])
def test_explore_exits_3_iff_verify_does(tmp_path, monkeypatch, settings, explore_code, verify_code):
    # verify on explore's best immersion, at the same grid with the ball and
    # conjecture checks, exits 3 exactly when explore does and reads the same
    # maxima.  Without the penalty the search leaves the ball, so ball fails
    # and conjecture is skipped.  In the zh-lowered row both commands read
    # verify's refined max zh lowered by 1 (patched), so the conjecture fails.
    if explore_code == 3:
        zh_top = verify._zh_top
        monkeypatch.setattr(verify, "_zh_top",
                            lambda imm, grid: zh_top(imm, grid)._replace(value=zh_top(imm, grid).value - 1.0))
    probe, best, out = (tmp_path / name for name in ("probe.json", "best.json", "report.json"))
    assert main(["explore", "--n", "2", "--q", "6", "--fmax", "1", "--grid", "8", "--restarts", "1",
                 *settings, "--out", str(probe)]) == explore_code
    payload = json.loads(probe.read_text())
    assert "min_singular_value" not in payload
    best.write_text(json.dumps(payload["best_immersion"]))
    assert main(["verify", str(best), "--grid", "8", "--checks", "ball,conjecture",
                 "--out", str(out)]) == verify_code
    ball, conjecture = json.loads(out.read_text())
    assert payload["max_norm"] == ball["diagnostics"]["max_norm_refined"]
    assert (conjecture["status"] == "skipped") == (verify_code == 1)
    if conjecture["status"] != "skipped":
        assert payload["sup_zh"] == conjecture["diagnostics"]["max_zh"]


# ---------------------------------------------------------------- selftest failure path

def test_selftest_failure_injection(monkeypatch, capsys):
    # A sphere average off by 1 must fail the self-test through the real exit path.
    def broken(n, count, seed=0):
        return MonomialReport(n=n, count=count, seed=seed,
                              entries=(MonomialEntry("x1^4", mean=2.0, stderr=0.5),))

    monkeypatch.setattr(cli, "monomial_selftest", broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL monomial averages n=1: max deviation 1.00e+00" in out
    assert "4 check(s) failed" in out


# ---------------------------------------------------------------- bad input fails closed (exit 2)

def test_verify_degenerate_map_exit_2(tmp_path, capsys):
    # One Fourier term: df has rank 1 everywhere, so the metric is singular.
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({"type": "fourier", "n": 2, "q": 4, "terms": [
        {"k": [1, 0], "a": [0.5, 0, 0, 0], "b": [0, 0.5, 0, 0]}]}))
    assert main(["verify", str(path), "--grid", "8,8"]) == 2
    assert "theta=" in capsys.readouterr().err


def test_verify_metric_degenerate_between_grid_points_exit_2(tmp_path, capsys):
    # The metric degenerates only at points of the doubled grid, which the
    # 16^2 grid's spectrum does not resolve, so the doubled pass runs and
    # names the first such point.
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({"type": "fourier", "n": 2, "q": 3, "scale": 0.5, "terms": [
        {"k": [1, 0], "a": [1, 0, 0], "b": [0, 1, 0]},
        {"k": [0, 2], "a": [0, 0, 0.5 * c], "b": [0, 0, 0.5 * s]}]}))
    assert main(["verify", str(path), "--grid", "16,16"]) == 2
    assert ("metric eigenvalue 1.170e-34 < 1e-12 at theta=[0.0, 0.19634954084936207]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("text,fragment", [
    ('{"type": "clifford", "m": 2, "scale": NaN}', "clifford.scale"),
    ('{"type": "clifford", "m": 2, "scale": 1e400}', "clifford.scale"),
    ('{"type": "fourier", "n": 1, "q": 2, "terms": [{"k": [1], "a": [Infinity, 0], "b": [0, 1]}]}',
     "fourier.terms[0].a[0]"),
    ('{"type": "gromov", "B": [[1, 0], [0, 1]], "translate": [0, 0, 0, -Infinity]}',
     "gromov.translate[3]"),
    ('{"type": "clifford", "m": 1, "translate": [1' + "0" * 400 + ', 0]}', "clifford.translate[0]"),
])
def test_verify_non_finite_input_exit_2(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert fragment in capsys.readouterr().err


def test_verify_grid_too_small_exit_2(hex_file, capsys):
    assert main(["verify", hex_file, "--grid", "2"]) == 2
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["4", "3"])
def test_explore_unsupported_q_exit_2(q, capsys):
    assert main(["explore", "--n", "3", "--q", q, "--iterations", "1", "--restarts", "1"]) == 2
    assert f"q={q}" in capsys.readouterr().err


def test_verify_unit_circle_passes(tmp_path):
    # m = 1 clifford is the unit circle: n = 1, where the trace chain's
    # (n - 2)/(n - 1) term is undefined and must not be evaluated.
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"type": "clifford", "m": 1}))
    out = tmp_path / "rep.json"
    assert main(["verify", str(path), "--seed", "1", "--out", str(out)]) == 0
    statuses = {rep["name"]: rep["status"] for rep in json.loads(out.read_text())}
    assert statuses.pop("2d") == "skipped"
    assert set(statuses.values()) == {"pass"}


def test_design_validate_missing_matrix_file_exit_2(tmp_path, capsys):
    assert main(["design", "validate", str(tmp_path / "no_such_matrix.txt")]) == 2
    assert "matrix: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "{circle}", "--checks", "ball"],
    ["verify", "{circle}", "--checks", "ball", "--format", "csv"],
    ["analyze", "{circle}", "--grid", "16"],
    ["design", "validate", "hex2"],
    ["explore", "--n", "2", "--q", "4", "--grid", "8", "--iterations", "2", "--restarts", "1"],
], ids=["verify-json", "verify-csv", "analyze", "design", "explore"])
def test_unwritable_out_exit_2(tmp_path, capsys, monkeypatch, argv):
    # The path is refused before any grid work: none of these may run.
    def boom(*args, **kwargs):
        raise AssertionError("grid work ran before the --out check")

    monkeypatch.setattr(cli.verify, "run_checks", boom)
    monkeypatch.setattr(cli.pointwise, "grid_fields", boom)
    monkeypatch.setattr(cli.intrinsic, "analysis_grid", boom)
    monkeypatch.setattr(cli, "optimize", boom)
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"type": "clifford", "m": 1}))
    argv = [a.format(circle=circle) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "no_such_dir" / "out")]) == 2
    assert "--out: cannot write" in capsys.readouterr().err


def test_analyze_out_checks_both_files_first(tmp_path, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"type": "clifford", "m": 1}))
    (tmp_path / "report.json").mkdir()
    assert main(["analyze", str(circle), "--grid", "16", "--out", str(tmp_path / "report")]) == 2
    assert "--out: cannot write" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_analyze_refuses_out_ending_in_separator(tmp_path, capsys, monkeypatch):
    # Path("some_dir/") drops the separator, so BASE.csv would land beside the
    # directory; the refusal comes before any grid work.
    def boom(*args, **kwargs):
        raise AssertionError("grid work ran before the --out check")

    monkeypatch.setattr(cli.pointwise, "grid_fields", boom)
    monkeypatch.setattr(cli.intrinsic, "analysis_grid", boom)
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"type": "clifford", "m": 1}))
    some_dir = tmp_path / "some_dir"
    some_dir.mkdir()
    assert main(["analyze", str(circle), "--grid", "8", "--out", str(some_dir) + os.sep]) == 2
    assert capsys.readouterr().err.startswith("error: --out:")
    assert not list(tmp_path.glob("some_dir.*")) and not list(some_dir.iterdir())


def test_explore_table_too_large_exit_2(capsys):
    # F = ((2 * 10^6 + 1)^2 - 1)/2 frequencies make a 64 x 2F table of about
    # 1.8 PiB, beyond any user address space, so the refusal is immediate.
    assert main(["explore", "--n", "2", "--q", "6", "--grid", "8", "--fmax", "1000000"]) == 2
    err = capsys.readouterr().err
    assert "--fmax" in err and "--grid" in err


@pytest.mark.parametrize("size", ["65536", "3000"])
def test_verify_grid_too_large_exit_2(tmp_path, capsys, size):
    # 65536^4 points wrap int64 to 0, and the doubled 3000^4 grid needs 9.21 PiB
    # per field; both exceed any user address space, so the refusal is immediate.
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"type": "gromov", "B": [list(r) for r in builtin_design("d4").rows]}))
    assert main(["verify", str(path), "--grid", size]) == 2
    assert "--grid" in capsys.readouterr().err


def test_explore_zero_dimension_exit_2(capsys):
    assert main(["explore", "--n", "0", "--q", "2"]) == 2
    assert "--n" in capsys.readouterr().err


def _exit_status(argv):
    """main's return value, or the exit code of a refusal at parse time."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


EXPLORE = ["explore", "--n", "2", "--q", "4", "--grid", "8", "--iterations", "2",
           "--restarts", "1"]


@pytest.mark.parametrize("argv,fragment", [
    (["verify", "{circle}", "--seed", "-1"], "--seed"),
    (["analyze", "{circle}", "--seed", "-1"], "--seed"),
    (EXPLORE + ["--seed", "-1"], "--seed"),
    (["selftest", "--seed", "-1"], "--seed"),
    (["verify", "{circle}", "--seed", "1.5"], "--seed"),
    (["verify", "{circle}", "--checks", "foo"], "--checks"),
    (["verify", "{circle}", "--checks", "ball,,main"], "--checks"),
    (EXPLORE + ["--smoothing", "inf"], "smoothing"),
    (EXPLORE + ["--penalty-weight", "inf"], "penalty_weight"),
    (["verify", "{circle}", "--grid", "2"], "--grid"),
    (["verify", "{d4}", "--grid", "65536"], "--grid"),
    (["verify", "{nan_scale}"], "clifford.scale"),
    (["verify", "{rank1}", "--grid", "8,8"], "theta="),
    (["analyze", "{rank1}", "--grid", "8,8"], "theta="),
    (["design", "validate", "{missing}"], "matrix: cannot read"),
    (["explore", "--n", "0", "--q", "2"], "--n"),
    (["explore", "--n", "3", "--q", "4"], "q=4"),
    (EXPLORE[:5] + ["--grid", "8", "--fmax", "1000000"], "--fmax"),
])
def test_refused_arguments_exit_2_and_write_nothing(tmp_path, capsys, argv, fragment):
    inputs = {
        "circle": {"type": "clifford", "m": 1},
        "d4": {"type": "gromov", "B": [list(r) for r in builtin_design("d4").rows]},
        "rank1": {"type": "fourier", "n": 2, "q": 4, "terms": [
            {"k": [1, 0], "a": [0.5, 0, 0, 0], "b": [0, 0.5, 0, 0]}]},
    }
    names = {"missing": str(tmp_path / "no_such_matrix.txt")}
    for name, obj in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        names[name] = str(tmp_path / f"{name}.json")
    (tmp_path / "nan_scale.json").write_text('{"type": "clifford", "m": 2, "scale": NaN}')
    names["nan_scale"] = str(tmp_path / "nan_scale.json")
    before = sorted(tmp_path.iterdir())
    argv = [a.format(**names) for a in argv]
    if argv[0] != "selftest":
        argv += ["--out", str(tmp_path / "out")]
    assert _exit_status(argv) == 2
    assert fragment in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["verify", "{circle}", "--seed", "-1"],
    ["analyze", "{circle}", "--seed", "-1"],
    ["verify", "{circle}", "--checks", "foo"],
    ["verify", "{circle}", "--checks", "ball,,main"],
])
def test_seed_and_checks_refused_before_the_input_is_read(monkeypatch, argv):
    def boom(*args, **kwargs):
        raise AssertionError("the input was read before the argument check")

    monkeypatch.setattr(cli, "read_input", boom)
    assert _exit_status([a.format(circle="never_read.json") for a in argv]) == 2


def test_seed_beyond_64_bits_runs(tmp_path):
    # The Philox key is the seed modulo 2^64, so every non-negative seed runs.
    seed = str(2 ** 64 + 1)
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"type": "clifford", "m": 1}))
    out = tmp_path / "rep.json"
    assert main(["verify", str(circle), "--seed", seed, "--checks", "bow,constant_k",
                 "--out", str(out)]) == 0
    assert [r["config"]["seed"] for r in json.loads(out.read_text())] == [2 ** 64 + 1] * 2
    assert main(EXPLORE + ["--seed", seed, "--out", str(tmp_path / "e.json")]) == 0


def test_analyze_gauss_residual_is_the_one_closed_form(tmp_path):
    wavy = perturbed_clifford(2, seed=5)
    path = tmp_path / "wavy.json"
    save_immersion(wavy, path)
    assert main(["analyze", str(path), "--grid", "16", "--out", str(tmp_path / "rep")]) == 0
    grid = TorusGrid((16, 16))
    fields = cli.pointwise.grid_fields(wavy, grid)
    residual = cli.intrinsic.curvature_grid(wavy, grid) - \
        cli.pointwise._sc_from_zh(fields.H2, fields.zh, 2)
    summary = json.loads((tmp_path / "rep.json").read_text())
    assert summary["max_gauss_residual"] == float(np.max(np.abs(residual)))


def _load_tracer():
    return load_perfbench("tracer")


def test_perfbench_trace_targets_resolve():
    # perfbench/tracer.py wraps toricurv functions by (module, name); each
    # one must still exist, or a traced benchmark run breaks.
    tracer = _load_tracer()
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"toricurv.{module}"), name, None)), \
            f"toricurv.{module}.{name}"


def test_trace_counts_the_points_of_a_fields_argument():
    # intrinsic.conformal_grid(fields, k) takes the grid's fields, whose
    # npoints is their grid's, so its traced span counts the grid's points.
    tracer = _load_tracer()
    grid = TorusGrid((8, 6))
    fields = cli.pointwise.grid_fields(clifford(2), grid)
    assert fields.npoints == grid.npoints == 48
    assert tracer._points((fields, 0), {}) == 48


def test_trace_span_records_the_batched_extremizer():
    # The K <= 2 gate polishes its four best grid points in one batched
    # extremizer call, which the tracer records as one span.
    tracer = _load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        # a fresh copy of the fixture, whose gate no other test has memoized
        global_normal_curvature_max(dataclasses.replace(perturbed_clifford(3, seed=1)), TorusGrid((8,) * 3))
    finally:
        trace.remove()
    names = [span[tracer.NAME] for span in trace.spans]
    assert names.count("pointwise.extremal_normal_curvature") == 1
