"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from toricurv.cli import main
from toricurv.designs import builtin_design, clifford, subtorus_immersion, validate_design
from toricurv.explore import SearchConfig, optimize
from toricurv.fixtures import perturbed_clifford, random_immersion
from toricurv.formats import save_immersion
from toricurv.intrinsic import conformal_grid, conformal_rate, curvature_grid, gauss_residuals
from toricurv.pointwise import (
    _chunk_core,
    _full_form,
    _scalar_invariants,
    extremal_normal_curvature,
    grid_fields,
    weighted_average,
)
from toricurv.quadrature import SphereSampler, TorusGrid, monomial_selftest, sphere_average_mc
from toricurv.verify import check_bow, check_main, run_checks

from conftest import random_points


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _named_fixtures():
    return [
        ("clifford2", clifford(2)),
        ("clifford3", clifford(3)),
        ("clifford4", clifford(4)),
        ("hexagonal", subtorus_immersion(builtin_design("hex2"))),
        ("d4", subtorus_immersion(builtin_design("d4"))),
        ("axdiag3", subtorus_immersion(builtin_design("axdiag3"))),
    ]


def test_criterion_01_gauss_formula():
    started = time.monotonic()
    worst = 0.0
    for n, q in ((2, 5), (3, 7)):
        for seed in (1, 2, 3):
            imm = random_immersion(n, q, seed=seed, terms=8, fmax=2)
            res = gauss_residuals(imm, random_points(n, 200, seed=100 + seed))
            worst = max(worst, float(np.max(np.abs(res))))
    for name, imm in _named_fixtures() + [("wavy2", perturbed_clifford(2, seed=5))]:
        res = gauss_residuals(imm, random_points(imm.n, 200, seed=7))
        worst = max(worst, float(np.max(np.abs(res))))
    elapsed = time.monotonic() - started
    _criterion(1, worst < 1e-6 and elapsed < 30.0,
               f"max |Sc - closed form| = {worst:.3e} (< 1e-6) in {elapsed:.1f}s (< 30s)")


def test_criterion_02_zh_definition_vs_closed_form():
    worst_sigmas = 0.0
    for name, imm in _named_fixtures():
        S = _chunk_core(imm, random_points(imm.n, 20, seed=200))[2]
        zh = _scalar_invariants(S)[3]
        for i, full in enumerate(_full_form(S)):
            sampler = SphereSampler(imm.n, 200_000, seed=300 + i)

            def ksq(dirs):
                vals = np.einsum("da,db,abq->dq", dirs, dirs, full, optimize=True)
                return np.einsum("dq,dq->d", vals, vals)

            mean, stderr = sphere_average_mc(ksq, sampler)
            gap = abs(mean - zh[i])
            worst_sigmas = max(worst_sigmas, gap / max(stderr, 1e-15))
    _criterion(2, worst_sigmas < 4.0,
               f"Monte-Carlo vs closed-form zh within {worst_sigmas:.2f} standard errors (< 4)")


def test_criterion_03_monomial_identities():
    worst = 0.0
    for n in (1, 2, 3, 4):
        rep = monomial_selftest(n, count=1_000_000, seed=40 + n)
        worst = max(worst, rep.worst_sigmas)
    _criterion(3, worst < 5.0, f"scaled quartic monomial averages within {worst:.2f} sigma of 1 (< 5)")


def test_criterion_04_clifford_curvature_range():
    worst = 0.0
    for m in (2, 3, 4):
        S = _chunk_core(clifford(m), np.linspace(0.2, 1.7, m)[None])[2]
        k_min, k_max = extremal_normal_curvature(S, seed=4)[:2]
        worst = max(worst, abs(k_min[0] - 1.0), abs(k_max[0] - math.sqrt(m)))
    _criterion(4, worst < 1e-8, f"clifford(m) curvature range is [1, sqrt(m)] within {worst:.2e} (< 1e-8)")


def test_criterion_05_optimal_fixtures_sharp():
    ok = True
    detail = []
    for name, grid in (("hex2", TorusGrid((16, 16))), ("d4", TorusGrid((6, 6, 6, 6)))):
        frame = builtin_design(name)
        cert = validate_design(frame)
        n = cert.n
        ok &= cert.is_constant_curvature and cert.is_optimal
        ok &= cert.K2 == Fraction(3 * n, n + 2)
        imm = subtorus_immersion(frame)
        fields = grid_fields(imm, grid)
        bound = 3.0 * n / (n + 2)
        zh_dev = float(np.max(np.abs(fields.zh - bound)))
        h_dev = float(np.max(np.abs(fields.norm_H - n)))
        sc_dev = float(np.max(np.abs(curvature_grid(imm, grid))))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(50)))
        k_dev = 0.0
        for theta in rng.uniform(0, 2 * math.pi, (4, n)):
            S = _full_form(_chunk_core(imm, theta[None])[2])[0]
            dirs = rng.standard_normal((256, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            vals = np.einsum("da,db,abq->dq", dirs, dirs, S, optimize=True)
            K = np.sqrt(np.einsum("dq,dq->d", vals, vals))
            k_dev = max(k_dev, float(np.max(np.abs(K - cert.K))))
        ok &= zh_dev < 1e-10 and sc_dev < 1e-9 and h_dev < 1e-9 and k_dev < 1e-9
        detail.append(f"{name}: zh dev {zh_dev:.1e}, K dev {k_dev:.1e}, "
                      f"Sc dev {sc_dev:.1e}, |H| dev {h_dev:.1e}")
    _criterion(5, ok, "certified optimal and numerically sharp | " + "; ".join(detail))


def _ten_ball_immersions():
    return [perturbed_clifford(2, seed=s) for s in range(10)]


def test_criterion_06_average_mean_curvature():
    grid = TorusGrid((64, 64))
    worst_margin = math.inf
    worst_div = 0.0
    for imm in _ten_ball_immersions():
        fields = grid_fields(imm, grid)
        worst_margin = min(worst_margin, weighted_average(fields, fields.norm_H) - 2.0)
        worst_div = max(worst_div, abs(weighted_average(fields, fields.hx) + 2.0))
    fields = grid_fields(clifford(2), TorusGrid((16, 16)))
    equality_gap = abs(weighted_average(fields, fields.norm_H) - 2.0)
    ok = worst_margin >= -1e-7 and worst_div < 1e-7 and equality_gap < 1e-9
    _criterion(6, ok, f"avg |H| - n >= {worst_margin:.2e} (>= -1e-7), "
                      f"divergence dev {worst_div:.2e} (< 1e-7), clifford equality {equality_gap:.1e}")


def test_criterion_07_average_zh_two_dim():
    grid = TorusGrid((64, 64))
    worst_margin = math.inf
    worst_sc = 0.0
    for imm in _ten_ball_immersions():
        fields = grid_fields(imm, grid)
        worst_margin = min(worst_margin, weighted_average(fields, fields.zh) - 1.5)
        worst_sc = max(worst_sc, abs(weighted_average(fields, curvature_grid(imm, grid))))
    fields = grid_fields(clifford(2), TorusGrid((16, 16)))
    equality_gap = abs(weighted_average(fields, fields.zh) - 1.5)
    ok = worst_margin >= -1e-7 and worst_sc < 1e-6 and equality_gap < 1e-8
    _criterion(7, ok, f"avg zh - 3/2 >= {worst_margin:.2e} (>= -1e-7), "
                      f"|avg Sc| <= {worst_sc:.2e} (< 1e-6), clifford equality {equality_gap:.1e}")


def test_criterion_08_flat_and_sphere_bounds():
    grids = {1: TorusGrid((64,)), 2: TorusGrid((16, 16)),
             3: TorusGrid((8, 8, 8)), 4: TorusGrid((6, 6, 6, 6))}
    equality = [("clifford1", clifford(1)), ("clifford2", clifford(2)),
                ("clifford3", clifford(3)), ("clifford4", clifford(4)),
                ("hexagonal", subtorus_immersion(builtin_design("hex2"))),
                ("d4", subtorus_immersion(builtin_design("d4")))]
    ok = True
    worst_eq = 0.0
    for name, imm in equality:
        reports = {r["name"]: r for r in
                   run_checks(imm, grid=grids[imm.n], checks=["flat", "sphere"])}
        for check in ("flat", "sphere"):
            margin = reports[check]["margin"]
            ok &= reports[check]["status"] == "pass" and margin >= -1e-8
            worst_eq = max(worst_eq, abs(margin))
    ax = subtorus_immersion(builtin_design("axdiag3"))
    reports = {r["name"]: r for r in run_checks(ax, grid=grids[3], checks=["flat", "sphere"])}
    ok &= abs(reports["flat"]["margin"] - 8.0 / 15.0) < 1e-8
    ok &= reports["flat"]["margin"] >= -1e-8 and reports["sphere"]["margin"] >= -1e-8
    _criterion(8, ok, f"flat/sphere margins >= -1e-8 everywhere; equality cases within {worst_eq:.2e} (<= 1e-8)")


def test_criterion_09_main_bound_machinery():
    grids = {2: TorusGrid((16, 16)), 3: TorusGrid((8, 8, 8)), 4: TorusGrid((6, 6, 6, 6))}
    fixtures = [("clifford3", clifford(3)), ("clifford4", clifford(4)),
                ("hexagonal", subtorus_immersion(builtin_design("hex2"))),
                ("d4", subtorus_immersion(builtin_design("d4")))]
    ok = True
    details = []
    for name, imm in fixtures:
        rep = check_main(imm, grids[imm.n])
        ok &= rep.status == "pass"
        diag = rep.diagnostics
        if "lap_identity_residual" in diag:
            ok &= diag["lap_identity_residual"] < 1e-8
            ok &= diag["grad_identity_residual"] < 1e-8
        if "angle_sandwich_slack" in diag:
            ok &= diag["angle_sandwich_slack"] >= -1e-8
        if "trig_budget_slack" in diag:
            ok &= diag["trig_budget_slack"] >= -1e-8
        chain = diag.get("chain")
        if chain is not None:
            ok &= chain["lhs"] >= chain["mid"] - 1e-8 and chain["mid"] >= chain["rhs"] - 1e-8
        details.append(f"{name} margin {rep.margin:+.1e}")
    worst_conformal = -math.inf
    for imm in (clifford(3), clifford(4), subtorus_immersion(builtin_design("d4")),
                subtorus_immersion(builtin_design("axdiag3"))):
        cg = conformal_grid(imm, grids[imm.n], conformal_rate(imm.n))
        worst_conformal = max(worst_conformal, float(np.min(cg["conformal"])))
    ok &= worst_conformal <= 1e-7
    _criterion(9, ok, "pointwise bound machinery: " + ", ".join(details)
               + f"; conformal grid min <= {worst_conformal:.2e} (<= 1e-7)")


def test_criterion_10_bow_inequality():
    grids = {1: TorusGrid((64,)), 2: TorusGrid((16, 16)),
             3: TorusGrid((8, 8, 8)), 4: TorusGrid((6, 6, 6, 6))}
    ok = True
    margins = {}
    for m in (1, 2, 3, 4):
        rep = check_bow(clifford(m), grids[m])
        margins[m] = rep.margin
        ok &= rep.margin >= -1e-8
    ok &= abs(margins[4]) < 1e-8   # K_max = 2 exactly: the equality case
    _criterion(10, ok, "bow margins " +
               ", ".join(f"m={m}: {v:+.1e}" for m, v in margins.items()) +
               " (>= -1e-8, equality at m=4)")


def test_criterion_11_probe_consistent_with_proofs():
    started = time.monotonic()
    config = SearchConfig(n=2, q=6, fmax=1, grid=TorusGrid((24, 24)), seed=42,
                          iterations=500, restarts=4)
    result = optimize(config)
    elapsed = time.monotonic() - started
    ok = (elapsed < 300.0 and result.sup_zh >= 1.5 - 1e-3
          and not result.counterexample_candidate)
    _criterion(11, ok, f"probe sup_zh = {result.sup_zh:.6f} (>= 1.499), "
                       f"candidate = {result.counterexample_candidate}, {elapsed:.0f}s (< 300s)")


def test_criterion_12_byte_identical_reports(tmp_path):
    path = tmp_path / "hex2.json"
    save_immersion(subtorus_immersion(builtin_design("hex2")), path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", str(path), "--checks", "all", "--grid", "16,16", "--out", str(out1)])
    code2 = main(["verify", str(path), "--checks", "all", "--grid", "16,16", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _criterion(12, code1 == 0 and code2 == 0 and identical,
               f"two verify runs byte-identical = {identical}")
