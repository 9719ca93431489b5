import ast
import dataclasses
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from toricurv import forked, intrinsic, pointwise, verify
from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.errors import InapplicableHypothesis, NoNonpositiveScalarPoint, NotInBall, WrongDimension
from toricurv.fixtures import ball_immersion, perturbed_clifford, random_immersion
from toricurv.formats import parse_immersion
from toricurv.immersion import FourierImmersion, FourierTerm, Signature, evaluate_jet, transform
from toricurv.quadrature import TorusGrid
from toricurv.verify import (
    ALL_CHECKS,
    REFINE_TOL,
    _report,
    check_2d,
    check_avg_H,
    check_ball_containment,
    check_bow,
    check_constant_K,
    check_flat,
    check_main,
    check_sphere,
    conjecture_probe,
    exit_code,
    global_normal_curvature_max,
    run_checks,
)

from conftest import load_perfbench, overflowing_torus, reference_K_pass


def scaled(imm, lam):
    return transform(imm, np.eye(imm.q), None, lam)


def translated(imm, c):
    return transform(imm, np.eye(imm.q), c, 1.0)


GRID2 = TorusGrid((16, 16))
GRID3 = TorusGrid((8, 8, 8))
GRID4 = TorusGrid((6, 6, 6, 6))


# ---------------------------------------------------------------- ball

def test_ball_clifford_boundary(clifford2):
    rep = check_ball_containment(clifford2, GRID2)
    assert rep.status == "pass"
    assert abs(rep.margin) < 1e-12


def test_ball_scaled(clifford2):
    rep = check_ball_containment(scaled(clifford2, 0.5), GRID2)
    assert abs(rep.margin - 0.5) < 1e-12


def test_ball_translated_fails(clifford2):
    rep = check_ball_containment(translated(clifford2, [0.5, 0, 0, 0]), GRID2)
    assert rep.status == "fail"
    assert rep.margin < -0.1


def test_just_outside_the_ball_gates_every_ball_check(clifford2):
    # max |f| = 1 + 1e-6, a thousand times BALL_SLACK: ball fails, and each of
    # the six checks that assume the ball is skipped, not run.
    reports = run_checks(scaled(clifford2, 1.0 + 1e-6), GRID2)
    by_name = {r["name"]: r for r in reports}
    assert by_name["ball"]["status"] == "fail"
    for name in ("avg_h", "2d", "flat", "main", "bow", "conjecture"):
        assert by_name[name]["status"] == "skipped", name
        assert by_name[name]["diagnostics"]["error"] == "NotInBall"
    assert exit_code(reports) == 1


def test_overflowing_norm_is_a_ball_error():
    # |f| overflows to inf: ball's margin is -inf, an error, and every other
    # check is skipped, with no RuntimeWarning (the suite raises on one).
    reports = run_checks(parse_immersion(overflowing_torus(huge_frequency=False)))
    assert [(r["name"], r["status"]) for r in reports] == [
        ("ball", "error"), *((name, "skipped") for name in ALL_CHECKS[1:])]
    assert exit_code(reports) == 2


def test_ball_fixture_inside_on_refined_default_grid():
    # The fixture is scaled on the grid the check re-checks on (the doubled
    # default); scaled on the undoubled grid it reached |f| = 1.0029 there.
    imm = ball_immersion(3, 7, seed=7)
    rep = check_ball_containment(imm, TorusGrid.default(3))
    assert rep.passed
    assert abs(rep.margin - 1e-3) < 1e-12
    # The undoubled maximum is lower by more than REFINE_TOL.
    assert rep.status == "unresolved"


@pytest.mark.parametrize("build,args,kwargs", [
    (random_immersion, (2, 5, 3), {"terms": 8}), (ball_immersion, (3, 7, 7), {}),
    (perturbed_clifford, (3, 1), {})], ids=["random", "ball", "perturbed_clifford"])
def test_cached_fixture_equals_a_fresh_build(build, args, kwargs):
    # Each seeded fixture is built once per process and shared: the shared
    # one is a fresh build's equal, bit for bit, and nothing in it can be written.
    cached, fresh = build(*args, **kwargs), build.__wrapped__(*args, **kwargs)
    assert build(*args, **kwargs) is cached and fresh is not cached
    assert (cached.signature, cached.scale) == (fresh.signature, fresh.scale)
    assert [t.k for t in cached.terms] == [t.k for t in fresh.terms]
    pairs = [(cached.translate, fresh.translate),
             *((c, f) for ct, ft in zip(cached.terms, fresh.terms) for c, f in ((ct.a, ft.a), (ct.b, ft.b)))]
    for shared, built in pairs:
        assert np.array_equal(shared, built) and not shared.flags.writeable


# ---------------------------------------------------------------- average |H|

def test_avg_H_clifford_equality(clifford2):
    rep = check_avg_H(clifford2, GRID2)
    assert rep.status == "pass"
    assert abs(rep.margin) < 1e-9
    assert rep.diagnostics["divergence_deviation"] < 1e-12


def test_avg_H_scaling(clifford2):
    rep = check_avg_H(scaled(clifford2, 0.5), GRID2)
    assert abs(rep.margin - 2.0) < 1e-9  # average |H| becomes 4


def test_avg_H_hexagonal(hexagonal):
    rep = check_avg_H(hexagonal, GRID2)
    assert abs(rep.margin) < 1e-9


def test_avg_H_gate(clifford2):
    with pytest.raises(NotInBall):
        check_avg_H(translated(clifford2, [0.5, 0, 0, 0]), GRID2)


# ---------------------------------------------------------------- n = 2 bound

def test_2d_clifford_equality(clifford2):
    rep = check_2d(clifford2, GRID2)
    assert rep.status == "pass"
    assert abs(rep.margin) < 1e-8
    assert abs(rep.diagnostics["average_sc"]) < 1e-6


def test_2d_perturbed_strict(wavy2):
    rep = check_2d(wavy2, TorusGrid((32, 32)))
    assert rep.status == "pass"
    assert rep.margin > 1e-4
    assert abs(rep.diagnostics["average_sc"]) < 1e-6


def test_2d_scaled(clifford2):
    rep = check_2d(scaled(clifford2, 0.5), GRID2)
    assert abs(rep.margin - 4.5) < 1e-8


def test_2d_wrong_dimension(clifford3):
    with pytest.raises(WrongDimension):
        check_2d(clifford3, GRID3)


# ---------------------------------------------------------------- flat bound

def test_flat_equalities(hexagonal, d4):
    rep = check_flat(hexagonal, GRID2)
    assert abs(rep.margin) < 1e-9
    rep = check_flat(d4, GRID4)
    assert abs(rep.margin) < 1e-9


def test_flat_suboptimal_design(axdiag3):
    rep = check_flat(axdiag3, GRID3)
    assert abs(rep.margin - 8.0 / 15.0) < 1e-9


def test_flat_gate_on_curved(wavy2):
    with pytest.raises(InapplicableHypothesis):
        check_flat(wavy2, TorusGrid((24, 24)))


def test_flat_gate_reads_the_doubled_grid():
    # (a cos t, a sin t, b cos s, b sin s) with b(t) = a + eps sin^3(8t):
    # sin 8t and its first two derivatives vanish at every point of the
    # 16^2 grid, which sees a flat metric (max |Sc| 5e-13), while the doubled
    # grid reads max |Sc| = 24.08, so the flat hypothesis fails.
    a, eps, e = 0.69, 0.02, np.eye(4)      # sin^3 x = (3 sin x - sin 3x) / 4
    imm = FourierImmersion(signature=Signature(n=2, q=4), terms=(
        FourierTerm((1, 0), a * e[0], a * e[1]),
        FourierTerm((0, 1), a * e[2], a * e[3]),
        FourierTerm((8, 1), -3 * eps / 8 * e[3], 3 * eps / 8 * e[2]),
        FourierTerm((8, -1), 3 * eps / 8 * e[3], 3 * eps / 8 * e[2]),
        FourierTerm((24, 1), eps / 8 * e[3], -eps / 8 * e[2]),
        FourierTerm((24, -1), -eps / 8 * e[3], -eps / 8 * e[2]),
    ))
    assert np.max(np.abs(pointwise.grid_fields(imm, GRID2).sc_ext)) < 1e-11
    (report,) = run_checks(imm, GRID2, checks="flat")
    assert report["status"] == "skipped"
    assert report["diagnostics"]["reason"].startswith("metric is not flat: max |Sc| = 24.07")


# ---------------------------------------------------------------- sphere bound

def test_sphere_clifford3(clifford3):
    rep = check_sphere(clifford3, GRID3)
    assert abs(rep.margin) < 1e-9
    assert rep.witness is not None


def test_sphere_hexagonal(hexagonal):
    rep = check_sphere(hexagonal, GRID2)
    assert abs(rep.margin) < 1e-9


def test_sphere_gate(clifford2):
    with pytest.raises(InapplicableHypothesis):
        check_sphere(scaled(clifford2, 0.9), GRID2)


def test_sphere_gate_reads_the_doubled_grid():
    # Clifford(2) whose first circle has radius (1 - a + a cos 16t)/sqrt(2):
    # |f| = 1 at every point of the 16^2 grid, where cos 16t = 1, and
    # 0.951 halfway between them, so only the doubled grid sees it leave
    # the sphere.
    a, c = 0.05, 1.0 / math.sqrt(2.0)
    e = np.eye(4)
    imm = FourierImmersion(signature=Signature(n=2, q=4), terms=(
        FourierTerm((1, 0), (1.0 - a) * c * e[0], (1.0 - a) * c * e[1]),
        FourierTerm((15, 0), 0.5 * a * c * e[0], -0.5 * a * c * e[1]),
        FourierTerm((17, 0), 0.5 * a * c * e[0], 0.5 * a * c * e[1]),
        FourierTerm((0, 1), c * e[2], c * e[3]),
    ))
    assert np.max(np.abs(pointwise.grid_fields(imm, GRID2).r - 1.0)) < 1e-12
    with pytest.raises(InapplicableHypothesis, match=r"max \|\|f\|-1\| = 0\.0486"):
        check_sphere(imm, GRID2)


# ---------------------------------------------------------------- main bound

def test_main_clifford3(clifford3):
    rep = check_main(clifford3, GRID3)
    assert rep.status == "pass"
    assert abs(rep.margin) < 1e-8
    assert rep.diagnostics["conformal_min"] <= 1e-7
    assert rep.diagnostics["lap_identity_residual"] < 1e-8
    assert rep.diagnostics["grad_identity_residual"] < 1e-8
    chain = rep.diagnostics["chain"]
    assert chain["lhs"] >= chain["mid"] - 1e-8
    assert chain["mid"] >= chain["rhs"] - 1e-8


def test_main_clifford4(clifford4):
    rep = check_main(clifford4, GRID4)
    assert abs(rep.margin) < 1e-8
    assert rep.diagnostics["conformal_min"] <= 1e-7


def test_main_delegates_for_n2(hexagonal):
    rep = check_main(hexagonal, GRID2)
    inner = check_2d(hexagonal, GRID2)
    assert rep.diagnostics.get("delegated_to") == "2d"
    assert (rep.name, rep.status, rep.margin, rep.witness) == ("main", inner.status,
                                                               inner.margin, inner.witness)
    assert abs(rep.margin) < 1e-8
    chain = rep.diagnostics["chain"]
    assert abs(chain["lhs"] - chain["mid"]) < 1e-8
    assert abs(chain["mid"] - chain["rhs"]) < 1e-8
    assert rep.diagnostics["lap_identity_residual"] < 1e-12
    assert rep.diagnostics["grad_identity_residual"] < 1e-12


@pytest.mark.parametrize("name", ["circle", "clifford2", "hexagonal", "wavy2"])
def test_main_trace_residuals_below_n3(name, request):
    # For n < 3 the trace point is the zh maximizer, traced at rate 0 through
    # the same intrinsic path as n >= 3, so both identities are cross-checked.
    imm = clifford(1) if name == "circle" else request.getfixturevalue(name)
    grid = TorusGrid((16,) * imm.n)
    diag = check_main(imm, grid).diagnostics
    fields = pointwise.grid_fields(imm, grid)
    assert diag["trace_theta"] == grid.theta_at(int(np.argmax(fields.zh))).tolist()
    assert diag["lap_identity_residual"] < 1e-12
    assert diag["grad_identity_residual"] < 1e-12
    assert diag["angle_sandwich_slack"] > -1e-12
    assert "conformal_min" not in diag


def test_main_scaled_clifford4(clifford4):
    rep = check_main(scaled(clifford4, 0.999), GRID4)
    expected = 2.0 / 0.999**2 - 2.0
    assert abs(rep.margin - expected) < 1e-8
    assert rep.margin > 0


# ---------------------------------------------------------------- bow

def test_bow_clifford2(clifford2):
    rep = check_bow(clifford2, GRID2)
    assert abs(rep.margin) < 1e-10
    assert abs(rep.diagnostics["k_max"] - math.sqrt(2)) < 1e-9


def test_bow_equality_clifford4(clifford4):
    rep = check_bow(clifford4, GRID4)
    assert abs(rep.margin) < 1e-8
    assert abs(rep.diagnostics["k_max"] - 2.0) < 1e-9


def test_bow_gate_when_curvature_exceeds_two(clifford2):
    with pytest.raises(InapplicableHypothesis):
        check_bow(scaled(clifford2, 0.5), GRID2)


def test_global_curvature_max(clifford2, hexagonal):
    assert abs(global_normal_curvature_max(clifford2, GRID2) - math.sqrt(2)) < 1e-9
    assert abs(global_normal_curvature_max(hexagonal, GRID2) - math.sqrt(1.5)) < 1e-9


def test_conjecture_reads_mains_refined_zh_maximum(monkeypatch):
    # check_main and conjecture_probe read one memoized refined max of zh, so
    # on d4, which the grid resolves, the spectral candidates are taken twice:
    # once for the ball's max |f| and once for that max zh.
    taken = []
    candidates = verify._candidates

    def counting(fields, read, how, centre):
        taken.append(how)
        return candidates(fields, read, how, centre)

    monkeypatch.setattr(verify, "_candidates", counting)
    d4 = subtorus_immersion(builtin_design("d4"))      # a fresh grid cache
    main, conjecture = run_checks(d4, TorusGrid((8,) * 4), checks="main,conjecture")
    assert taken == ["max", "max"]
    assert main["status"] == conjecture["status"] == "pass"
    assert conjecture["diagnostics"]["max_zh"] == main["diagnostics"]["max_zh"]
    assert conjecture["diagnostics"]["refinement"] == "spectral"


def test_gate_after_a_plain_pass_replaces_it_by_one_swept_pass(monkeypatch):
    # A plain pass of the grid ran first.  The K <= 2 gate then reruns that
    # pass once with the sweep, whose fields are the plain pass's bit for
    # bit, and runs no K-only pass; a second run of the checks runs no pass.
    # The immersion is resolved at 32^2, so no doubled-grid pass runs either.
    passes, fork_map = [], forked.fork_map

    def counting(task, items, what):
        passes.append(what)
        return fork_map(task, items, what)

    imm, grid = perturbed_clifford(2, 7, eps=1e-5, fmax=1), TorusGrid((32, 32))
    monkeypatch.setattr(forked, "fork_map", counting)
    plain = pointwise.grid_fields(imm, grid)
    assert passes == ["grid fields"] and plain.k_seed is None
    first = run_checks(imm, grid, checks="ball,bow,conjecture")
    assert passes == ["grid fields"] * 2
    assert [r["status"] for r in first] == ["pass"] * 3
    assert {r["diagnostics"]["refinement"] for r in first} == {"spectral"}
    swept = pointwise.grid_fields(imm, grid)
    assert swept.k_seed == 0
    for name in pointwise._FIELD_NAMES:
        assert np.array_equal(getattr(swept, name), getattr(plain, name)), name
    assert run_checks(imm, grid, checks="ball,bow,conjecture") == first
    assert passes == ["grid fields"] * 2


def test_gate_memo_shared_by_main_and_bow(monkeypatch):
    # The n >= 5 main gate and the bow gate read one memoized K range, swept
    # in the grid's one field pass, and one batched extremizer call at no more
    # than four points.  The calls are counted in this process, so the pass
    # runs in it.
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    swept, refined = [], []
    K_range, extremes = pointwise._K_range, pointwise.extremal_normal_curvature

    def counting_range(S, seed):
        swept.append(S.shape[0])
        return K_range(S, seed)

    def counting_extremes(S, seed=0, side="both"):
        refined.append(S.shape[0])
        return extremes(S, seed, side)

    monkeypatch.setattr(pointwise, "_K_range", counting_range)
    monkeypatch.setattr(pointwise, "extremal_normal_curvature", counting_extremes)
    grid, imm = TorusGrid((4,) * 5), clifford(5)
    reports = run_checks(imm, grid, checks="main,bow")
    assert [r["status"] for r in reports] == ["skipped", "skipped"]     # K_max = sqrt(5) > 2
    assert sum(swept) == grid.npoints
    assert len(refined) == 1 and refined[0] <= 4
    # The combined pass's fields are bit for bit a pass without the sweep, and
    # its K range is bit for bit a K-only pass's.
    fields, fresh = pointwise.grid_fields(imm, grid), clifford(5)
    alone = pointwise._evaluate_fields(fresh, grid)
    for name in pointwise._FIELD_NAMES:
        assert np.array_equal(getattr(fields, name), getattr(alone, name)), name
    assert fields.k_seed == 0 and alone.k_seed is None
    k_min, k_max = reference_K_pass(fresh, grid, 0)
    assert np.array_equal(fields.k_min, k_min) and np.array_equal(fields.k_max, k_max)
    # Split over two forked workers, the sweep gives the gate the same K.
    gate = pointwise.global_normal_curvature_max(imm, grid)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    monkeypatch.setattr(forked, "_MIN_CHUNKS_PER_WORKER", 1)
    swept.clear()
    assert pointwise.global_normal_curvature_max(clifford(5), grid) == gate
    assert swept == []          # counted in the workers' memory only


# ---------------------------------------------------------------- constant K

def test_constant_k_hexagonal(hexagonal):
    rep = check_constant_K(hexagonal, expected_K=math.sqrt(1.5))
    assert rep.status == "pass"
    assert -rep.margin < 1e-10
    assert rep.diagnostics["max_deviation"] < 1e-10


def test_constant_k_wrong_certificate_fails(hexagonal):
    # K is constant, so the spread passes; the certificate's K, off by 1e-6,
    # does not match the sampled K, and that alone fails the check.
    rep = check_constant_K(hexagonal, expected_K=math.sqrt(1.5) + 1e-6)
    assert -rep.margin < 1e-10
    assert abs(rep.diagnostics["max_deviation"] - 1e-6) < 1e-10
    assert rep.status == "fail"


def test_constant_k_clifford_spread(clifford2):
    rep = check_constant_K(clifford2, expected_K=1.0)
    spread = -rep.margin
    assert abs(spread - (math.sqrt(2) - 1.0)) < 2e-3   # sampled range
    assert rep.status == "fail"
    # Without an exact expectation there is no claim to check: skipped, naming the range.
    # For n = 2 the range is exact at each point: K = 1 on the axes, sqrt(2) on the diagonal.
    with pytest.raises(InapplicableHypothesis, match=r"K ranges over \[") as skipped:
        check_constant_K(clifford2)
    low, high = map(float, str(skipped.value).rsplit("[", 1)[1].rstrip("]").split(", "))
    assert abs(low - 1.0) < 1e-12 and abs(high - math.sqrt(2)) < 1e-12
    by_name = {r["name"]: r for r in run_checks(clifford2, GRID2, checks="constant_k")}
    assert by_name["constant_k"]["status"] == "skipped"


def test_constant_k_circle():
    rep = check_constant_K(clifford(1), expected_K=1.0)
    assert -rep.margin < 1e-12


# ---------------------------------------------------------------- conjecture probe

def test_probe_on_fixtures(clifford3, hexagonal):
    assert conjecture_probe(clifford3, GRID3).margin >= -1e-9
    rep = conjecture_probe(hexagonal, GRID2)
    assert abs(rep.margin) < 1e-9


def test_probe_random_ball_immersion():
    imm = ball_immersion(2, 6, seed=11)
    rep = conjecture_probe(imm, TorusGrid((24, 24)))
    assert rep.margin > 0
    assert "counterexample_candidate" not in rep.diagnostics


# ---------------------------------------------------------------- runner

def test_run_checks_order_and_skips(hexagonal):
    reports = run_checks(hexagonal, grid=GRID2, expected_K=math.sqrt(1.5))
    names = [r["name"] for r in reports]
    assert names == ["ball", "avg_h", "2d", "flat", "sphere", "main", "bow",
                     "constant_k", "conjecture"]
    assert all(r["status"] == "pass" for r in reports)
    assert exit_code(reports) == 0


def test_run_checks_skips_not_fails(clifford2):
    reports = run_checks(scaled(clifford2, 0.5), grid=GRID2)
    by_name = {r["name"]: r for r in reports}
    assert by_name["sphere"]["status"] == "skipped"
    assert by_name["bow"]["status"] == "skipped"
    assert exit_code(reports) == 0


def test_run_checks_failure_exit(clifford2):
    bad = translated(clifford2, [0.5, 0, 0, 0])
    reports = run_checks(bad, grid=GRID2, checks="ball")
    assert reports[0]["status"] == "fail"
    assert exit_code(reports) == 1


def test_run_checks_subset_and_unknown(clifford2):
    reports = run_checks(clifford2, grid=GRID2, checks="ball,bow")
    assert [r["name"] for r in reports] == ["ball", "bow"]
    for bad in ("nope", "ball,,main", ["ball", ""]):
        with pytest.raises(ValueError, match="unknown checks"):
            run_checks(clifford2, grid=GRID2, checks=bad)


def test_run_checks_deterministic(hexagonal):
    a = run_checks(hexagonal, grid=GRID2, seed=0)
    b = run_checks(hexagonal, grid=GRID2, seed=0)
    assert a == b


def test_exit_code_probe_only_failure():
    reports = [
        {"name": "ball", "status": "pass"},
        {"name": "conjecture", "status": "fail"},
    ]
    assert exit_code(reports) == 3
    reports.append({"name": "flat", "status": "fail"})
    assert exit_code(reports) == 1
    assert exit_code([{"name": "bow", "status": "skipped"}]) == 0
    reports.append({"name": "avg_h", "status": "error"})
    assert exit_code(reports) == 2          # a non-finite margin outranks a failure


@pytest.mark.parametrize("m", [2, 3])
def test_non_finite_margin_is_error(m):
    # The library path bypasses the parser, so a NaN coefficient reaches the
    # checks; no check may pass or fail on a NaN margin.  For n >= 3 this
    # needs every eigensolve to skip non-finite rows (LAPACK raises on NaN).
    imm = clifford(m)
    t = imm.terms[0]
    a = t.a.copy()
    a[0] = np.nan
    bad = FourierImmersion(imm.signature, (FourierTerm(t.k, a, t.b),) + imm.terms[1:],
                           scale=imm.scale)
    reports = run_checks(bad, grid=GRID2 if m == 2 else GRID3, expected_K=1.0)
    by_name = {r["name"]: r for r in reports}
    assert by_name["constant_k"]["status"] == "error"
    for r in reports:
        if r["margin"] is not None and not math.isfinite(r["margin"]):
            assert r["status"] == "error" and r["pass"] is None
        assert r["status"] not in ("pass", "fail") or math.isfinite(r["margin"])
    assert exit_code(reports) == 2


def test_under_resolved_side_identity_is_unresolved():
    # At 64^2 the bounds hold by wide margins, but the divergence identity and
    # the zero average Sc miss their tolerances while still moving under grid
    # refinement: the reports are unresolved, not failed, and exit 1 is not
    # reached.
    imm = ball_immersion(2, 5, seed=7)
    reports = run_checks(imm, TorusGrid.default(2), checks="avg_h,2d,main")
    by_name = {r["name"]: r for r in reports}
    for name in ("avg_h", "2d", "main"):
        assert by_name[name]["status"] == "unresolved"
        assert by_name[name]["margin"] > 1.0
        assert not by_name[name]["diagnostics"]["resolved"]
    assert by_name["avg_h"]["diagnostics"]["divergence_deviation"] >= 1e-7
    assert abs(by_name["2d"]["diagnostics"]["average_sc"]) >= 1e-6
    assert exit_code(reports) == 0


def test_refinement_delta_at_or_above_tolerance_is_unresolved():
    # A margin that holds is resolved only when the two grids agree to
    # within REFINE_TOL.
    assert _report("x", margin=1.0, tolerance=1e-8, delta=0.5 * REFINE_TOL).status == "pass"
    for delta in (REFINE_TOL, 1e-5):
        assert _report("x", margin=1.0, tolerance=1e-8, delta=delta).status == "unresolved"


def test_under_resolved_margin_is_marked():
    # Frequencies beyond the grid Nyquist alias; a satisfied margin with a
    # large refinement delta must be reported unresolved, not pass, while a
    # violated margin still fails outright.
    from toricurv.fixtures import perturbed_clifford

    imm = perturbed_clifford(2, seed=2, fmax=5, eps=0.3)
    rep = conjecture_probe(imm, TorusGrid((6, 6)))
    assert rep.diagnostics["refinement_delta"] >= 1e-6
    assert rep.status == "unresolved"
    assert not rep.diagnostics["resolved"]
    rep = check_ball_containment(translated(imm, [0.5] + [0.0] * (imm.q - 1)), TorusGrid((8, 8)))
    assert rep.diagnostics["refinement_delta"] >= 1e-6
    assert rep.margin < -0.1
    assert rep.status == "fail"   # negative margin wins over "unresolved"
    # The divergence identity misses on this grid while still moving under
    # refinement; the bound itself holds, so the report is unresolved.
    rep = check_avg_H(imm, TorusGrid((8, 8)))
    assert rep.margin > 0.5
    assert rep.diagnostics["divergence_deviation"] >= 1e-7
    assert rep.status == "unresolved"


def test_no_nonpositive_point_reported_not_failed(clifford3, monkeypatch):
    # If the scan finds no nonpositive-curvature point, the sphere check is
    # reported as unresolved (never pass/fail) since only a grid was scanned.
    fields = verify.grid_fields

    def positive(imm, grid):
        f = fields(imm, grid)
        return dataclasses.replace(f, H2=f.II2 + 1.0)     # Sc = |H|^2 - |II|^2 > 0

    monkeypatch.setattr(verify, "grid_fields", positive)
    reports = run_checks(clifford3, grid=GRID3, checks="sphere")
    assert reports[0]["status"] == "unresolved"
    assert "error" in reports[0]["diagnostics"]


def test_no_nonpositive_point_names_the_grid(clifford3, monkeypatch):
    # With Sc > 0 at every point the base grid is named: its points are
    # doubled-grid points, so the doubled grid cannot be the only one without
    # a nonpositive point.
    fields = verify.grid_fields

    def positive(imm, grid):
        f = fields(imm, grid)
        return dataclasses.replace(f, H2=f.II2 + 1.0)     # Sc = |H|^2 - |II|^2 > 0

    monkeypatch.setattr(verify, "grid_fields", positive)
    with pytest.raises(NoNonpositiveScalarPoint) as exc:
        check_sphere(clifford3, GRID3)
    assert str(exc.value) == (f"no grid point with Sc <= 1e-07 on grid {GRID3.sizes}; "
                              "either under-resolved or a bug")


def test_flat_gate_adds_gauss_residual(clifford3, monkeypatch):
    # The flat hypothesis reads the closed-form Sc on the grid plus the Gauss
    # residual of the intrinsic path at seeded points; a residual alone skips it.
    rep = check_flat(clifford3, GRID3)
    assert rep.status == "pass"
    assert 0.0 <= rep.diagnostics["gauss_residual"] < 1e-12
    monkeypatch.setattr(intrinsic, "gauss_residuals", lambda imm, thetas: np.full(len(thetas), 1e-6))
    (report,) = run_checks(clifford3, grid=GRID3, checks="flat")
    assert report["status"] == "skipped"
    assert "Gauss residual 1e-06" in report["diagnostics"]["reason"]


# ---------------------------------------------------------------- refined-grid reuse

def test_base_pass_first_doubled_pass_only_where_unresolved(monkeypatch):
    # run_checks evaluates the grid's fields first, in one kernel pass that
    # also sweeps K where a selected check reads the K <= 2 gate.  d4's fields
    # are constant, so the grid resolves them and no doubled-grid pass runs;
    # a ball fixture's are not, so its doubled grid is evaluated after the grid.
    passes, swept = [], []

    def counting(grid_pass):
        def count(grid, rows, kernel, what):
            passes.append((grid.npoints, rows))
            return grid_pass(grid, rows, kernel, what)
        return count

    def counting_range(S, seed):
        swept.append(S.shape[0])
        return K_range(S, seed)

    for module in (pointwise, intrinsic):
        monkeypatch.setattr(module, "grid_pass", counting(module.grid_pass))
    K_range = pointwise._K_range
    monkeypatch.setattr(pointwise, "_K_range", counting_range)
    columns = len(pointwise._FIELD_NAMES)
    d4 = subtorus_immersion(builtin_design("d4"))
    reports = run_checks(d4, GRID4)
    assert passes == [(6 ** 4, columns + 2)]      # the fields and the gate's K range, in one pass
    assert sum(swept) == 6 ** 4 + 64                # that pass's K range and constant_k's 64 points
    assert {r["diagnostics"].get("refinement") for r in reports if r["status"] != "skipped"} == {"spectral"}
    # a run whose checks never read the gate sweeps no K
    passes.clear()
    swept.clear()
    alone = dataclasses.replace(d4)
    assert [r["status"] for r in run_checks(alone, GRID4, checks="ball")] == ["pass"]
    assert passes == [(6 ** 4, columns)] and swept == []
    assert pointwise.grid_fields(alone, GRID4).k_seed is None
    passes.clear()
    ball = dataclasses.replace(ball_immersion(2, 5, seed=7))     # with an empty grid cache
    reports = run_checks(ball, GRID2, checks="ball,avg_h")
    assert passes == [(16 ** 2, columns), (32 ** 2, columns)]
    assert [r["diagnostics"]["refinement"] for r in reports] == ["doubled", "doubled"]
    monkeypatch.undo()
    # the grid's fields are its own cached pass, on either path
    for imm, grid in ((d4, GRID4), (ball, GRID2)):
        assert verify._refined(imm, grid, lambda f: f.r, "max").base_fields is pointwise.grid_fields(imm, grid)


def test_only_the_refinement_reader_reads_the_doubled_grid():
    # Every grid verdict reads both grids through _refined alone, which runs
    # the grid's pass and either re-reads exact jets near the interpolant's
    # extremes or runs the doubled grid's pass; pointwise and intrinsic know
    # nothing of how the two grids relate.
    def callers(module, name):
        found = set()
        for top in ast.parse(Path(module.__file__).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                           getattr(node.func, "id", None)):
                    found.add(top.name)
        return found

    assert callers(verify, "doubled") == callers(verify, "grid_fields") == {"_refined"}
    assert callers(verify, "_resolves") == callers(verify, "_field_columns") == {"_refined"}
    assert callers(pointwise, "doubled") == callers(intrinsic, "doubled") == set()
    assert callers(intrinsic, "grid_fields") == set()


def test_base_grid_fields_are_read_only():
    # The grid's fields that _refined returns are its read-only pass.
    imm = clifford(2)
    base = verify._refined(imm, TorusGrid((8, 8)), lambda f: f.r, "max").base_fields
    r0 = base.r[0]
    for name in pointwise._FIELD_NAMES:
        assert not getattr(base, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        base.r[0] = 5.0
    assert verify._refined(imm, TorusGrid((8, 8)), lambda f: f.r, "max").base_fields.r[0] == r0


# ---------------------------------------------------------------- spectral refinement

def _assert_spectral_path_is_the_doubled_grids(imm, grid):
    # Every coset of the interpolant, placed into the doubled grid, is the
    # doubled grid's fields to roundoff, and a max, a min and an average agree
    # with the doubled grid's pass within 1e-12.
    base = pointwise.grid_fields(imm, grid)
    assert verify._resolves(imm, base) is True
    fine = pointwise._evaluate_fields(imm, grid.doubled())
    placed = {name: np.full(grid.doubled().sizes, np.nan) for name in ("r", "H2", "II2", "xt2")}
    parities = []
    for parity, coset in verify._cosets(base):
        parities.append(parity)
        for name, values in placed.items():
            values[tuple(slice(s, None, 2) for s in parity)] = getattr(coset, name).reshape(grid.sizes)
    assert sorted(parities) == list(itertools.product((0, 1), repeat=grid.n))
    for name, values in placed.items():
        np.testing.assert_allclose(values.ravel(), getattr(fine, name), rtol=0, atol=1e-13)
    # A read whose extremes scatter over the doubled grid: the candidates
    # merged from the cosets hold the whole interpolant's most extreme points.
    whole = pointwise.GridFields(grid=grid.doubled(), sqrt_det=None, hx=None,
                                 **{name: values.ravel() for name, values in placed.items()})

    def scatter(f):
        return np.sin(1e9 * f.r)

    for how in ("max", "min"):
        values = scatter(whole)
        top = np.argsort(-values if how == "max" else values)[:verify.SPECTRAL_CANDIDATES]
        assert set(top) <= set(verify._candidates(base, scatter, how, 0))
    for read, how, reduce in ((lambda f: f.zh, "max", np.max), (lambda f: f.cos_beta - f.r, "min", np.min),
                              (lambda f: f.norm_H, "average", None)):
        refined = verify._refined(imm, grid, read, how)
        assert refined.refinement == "spectral"
        want = pointwise.weighted_average(fine, read(fine)) if reduce is None else reduce(read(fine))
        assert abs(refined.value - want) < 1e-12
        if reduce is None:     # the integrand's outer shell
            assert refined.delta < 1e-12
        else:                  # an exact doubled-grid point and its fields
            assert refined.delta == abs(refined.value - refined.base)
            assert refined.theta == grid.doubled().theta_at(refined.index).tolist()
            assert read(refined.fields)[refined.row] == refined.value
            assert refined.value >= refined.base if how == "max" else refined.value <= refined.base


@pytest.mark.parametrize("sizes", [(128, 128), (127, 129)])
def test_spectral_interpolant_matches_the_doubled_grid(sizes):
    # perturbed_clifford(2, 5) is not homogeneous, and these grids resolve it
    # (its outer shells hold about 1e-13), on even and odd axes alike: each
    # axis's two coset operators are applied by GEMM.
    _assert_spectral_path_is_the_doubled_grids(perturbed_clifford(2, seed=5), TorusGrid(sizes))


@pytest.mark.parametrize("make,sizes", [
    (lambda: perturbed_clifford(1, seed=5), (512,)),
    (lambda: perturbed_clifford(3, seed=2, eps=1e-5, fmax=1), (20, 21, 22)),
], ids=["circle", "3-torus"])
def test_spectral_cosets_match_the_doubled_grid(make, sizes):
    # A perturbed circle at its default 512 points, whose one axis's operator
    # would be larger than the four columns it multiplies, so the walk applies
    # it by FFT; and a perturbed 3-torus the grid resolves (outer shells below
    # 1e-12, zh spread 2.5e-4), with 8 cosets over axes of both parities.
    _assert_spectral_path_is_the_doubled_grids(make(), TorusGrid(sizes))


def test_spectral_extremes_hold_no_doubled_grid_columns():
    # With the grid's pass cached, the first spectral max of zh on d4 at 12^4
    # (the benchmark's grid) allocates less than four doubled-grid columns at
    # its peak: the walk holds base-grid cosets only.
    d4, grid = subtorus_immersion(builtin_design("d4")), TorusGrid((12,) * 4)     # a fresh grid cache
    pointwise.grid_fields(d4, grid)
    tracemalloc.start()
    try:
        top = verify._refined(d4, grid, lambda f: f.zh, "max")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert top.refinement == "spectral"
    assert peak < 4 * grid.doubled().npoints * 8


def test_spectral_refinement_falls_back_on_every_ball_fixture():
    # Every row of SPECTRAL_TAIL's calibration, at its grid: each ball
    # fixture's fields hold far more than SPECTRAL_TAIL in their outer shells
    # (or a frequency reaches N/4), so none is interpolated, and neither is a
    # perturbed Clifford torus, perturbed_clifford(2, 5) at 64^2 with a largest
    # shell ratio of 6.1e-7 among them; the homogeneous tori are resolved.
    d4_bench = parse_immersion({"type": "gromov", "B": load_perfbench("inputs").d4_rows(3)})
    for imm, sizes, resolved in (
            (clifford(2), (64, 64), True), (clifford(3), (32,) * 3, True), (clifford(4), (16,) * 4, True),
            (subtorus_immersion(builtin_design("hex2")), (64, 64), True),
            (subtorus_immersion(builtin_design("d4")), (16,) * 4, True), (d4_bench, (12,) * 4, True),
            (perturbed_clifford(2, seed=5), (64, 64), False), (perturbed_clifford(3, seed=1), (32,) * 3, False),
            (perturbed_clifford(3, seed=1, eps=0.01), (32,) * 3, False),
            (ball_immersion(2, 5, seed=7), (64, 64), False), (ball_immersion(3, 7, seed=7), (32,) * 3, False),
            (ball_immersion(4, 9, seed=7), (8,) * 4, False), (ball_immersion(5, 11, seed=3), (6,) * 5, False)):
        grid = TorusGrid(sizes)
        assert verify._resolves(imm, pointwise.grid_fields(imm, grid)) is resolved, (imm, sizes)


def test_spectral_refinement_falls_back_by_the_frequency_rule():
    # Clifford(2) plus 1e-4 sin(k t) e5 on the 64^2 grid.  For k = 128 the
    # term and its second jet vanish at every grid point, so every field is
    # constant there; for k = 30 every outer shell is still roundoff.  Either
    # way k >= 64/4 sends the checks to the doubled grid (k = 30 also lies
    # below 64/2).
    e = np.eye(5)
    radius = 0.99 / math.sqrt(2.0)
    grid = TorusGrid((64, 64))
    for frequency in (128, 30):
        imm = FourierImmersion(Signature(2, 5), (
            FourierTerm((1, 0), radius * e[0], radius * e[1]),
            FourierTerm((0, 1), radius * e[2], radius * e[3]),
            FourierTerm((frequency, 0), 0.0 * e[4], 1e-4 * e[4])))
        base = pointwise.grid_fields(imm, grid)
        for name in pointwise._FIELD_NAMES:
            column = getattr(base, name)
            shell = verify._shell_sum(verify._spectrum(column, grid.sizes), grid.sizes)
            assert shell < verify.SPECTRAL_TAIL * max(float(np.max(np.abs(column))), 1.0), (frequency, name)
        (report,) = run_checks(imm, grid, checks="ball")
        assert report["diagnostics"]["refinement"] == "doubled", frequency


def test_main_margin_is_the_refined_maximum():
    # The base and doubled maxima of zh differ (3.19173 against 3.21497), and
    # main's margin is the doubled grid's, read here from its pass.
    imm, grid = perturbed_clifford(3, seed=1), TorusGrid((32,) * 3)
    (report,) = run_checks(imm, grid, checks="main")
    base_max = float(np.max(pointwise.grid_fields(imm, grid).zh))
    fine_max = float(np.max(pointwise.grid_fields(imm, grid.doubled()).zh))
    assert fine_max - base_max > 0.02
    assert report["margin"] == fine_max - 1.8
    assert report["diagnostics"]["refinement"] == "doubled"


def test_bow_margin_is_the_refined_minimum():
    # The gate passes (K_max 1.86), and the base and doubled minima of
    # cos(beta) - |f| differ (1.1330e-3 against 0.99992e-3); bow's margin is
    # the doubled grid's, read here from its pass.
    imm, grid = perturbed_clifford(3, seed=1, eps=0.01), TorusGrid((32,) * 3)
    (report,) = run_checks(imm, grid, checks="bow")

    def low(fields):
        return float(np.min(np.where(fields.r < 1e-12, 1.0, fields.cos_beta - fields.r)))

    base_min, fine_min = low(pointwise.grid_fields(imm, grid)), low(pointwise.grid_fields(imm, grid.doubled()))
    assert base_min - fine_min > 1e-4
    assert report["status"] != "skipped" and report["margin"] == fine_min


@pytest.mark.parametrize("imm,grid,checks", [
    (clifford(2), TorusGrid((8, 8)), "ball,bow"),
    (clifford(5), TorusGrid((4,) * 5), "ball,main"),
], ids=["bow", "main"])
def test_non_finite_gate_is_an_error(monkeypatch, imm, grid, checks):
    # A best-found K max that is NaN decides nothing: the gated check is an
    # error, and the run exits 2.
    monkeypatch.setattr(verify, "global_normal_curvature_max", lambda imm, grid, seed: math.nan)
    ball, gated = run_checks(imm, grid, checks=checks)
    assert ball["status"] == "pass"
    assert (gated["status"], gated["pass"], gated["margin"]) == ("error", None, None)
    assert "max normal curvature is nan" in gated["diagnostics"]["reason"]
    assert exit_code([ball, gated]) == 2


def test_no_third_order_pass_over_the_grid(monkeypatch):
    # verify reads Sc, lap_f and |grad f|^2 from the order-2 fields; third-order
    # jets are evaluated only at the trace point and the flat gate's sample.
    d4 = subtorus_immersion(builtin_design("d4"))
    jets_at = pointwise.jets_at
    batches = []

    def counting(imm, thetas, order):
        if order == 3:
            batches.append(len(thetas))
        return jets_at(imm, thetas, order)

    for module in [m for name, m in sys.modules.items() if name.startswith("toricurv")]:
        if getattr(module, "jets_at", None) is jets_at:
            monkeypatch.setattr(module, "jets_at", counting)
    run_checks(d4, GRID4)
    assert batches and max(batches) <= 64


def test_n2_trace_point_skips_the_origin(wavy2):
    # The zh maximizer moved to the origin: the n = 2 trace takes the maximizer
    # among the other points, where the radial angles are defined.
    grid = TorusGrid((16, 16))
    top = int(np.argmax(pointwise.grid_fields(wavy2, grid).zh))
    half = scaled(wavy2, 0.5)
    moved = translated(half, -evaluate_jet(half, grid.theta_at(top), order=0).value)
    fields = pointwise.grid_fields(moved, grid)
    assert fields.r[top] < 1e-12 and int(np.argmax(fields.zh)) == top
    (report,) = run_checks(moved, grid, checks="main")
    diag = report["diagnostics"]
    assert diag["trace_theta"] == grid.theta_at(
        int(np.argmax(np.where(fields.r < 1e-12, -np.inf, fields.zh)))).tolist()
    assert diag["lap_identity_residual"] < 1e-12
    assert diag["grad_identity_residual"] < 1e-12


def test_trace_point_skips_the_origin():
    # A map moved so that its conformal-minimum grid point sits at the origin,
    # where the radial angles are undefined: the trace takes the minimizer
    # among the other points, and the check is reported.
    grid = TorusGrid((8,) * 3)
    half = scaled(ball_immersion(3, 7, seed=7), 0.5)
    k = intrinsic.conformal_rate(3)
    assert int(np.argmin(intrinsic.conformal_grid(pointwise.grid_fields(half, grid), k)["conformal"])) == 286
    moved = translated(half, -evaluate_jet(half, grid.theta_at(286), order=0).value)
    fields = pointwise.grid_fields(moved, grid)
    conformal = intrinsic.conformal_grid(fields, k)["conformal"]
    assert int(np.argmin(conformal)) == 286
    assert fields.r[286] < 1e-12
    (report,) = run_checks(moved, grid, checks="main")
    assert report["status"] in ("pass", "fail", "unresolved")
    diag = report["diagnostics"]
    assert diag["trace_theta"] != grid.theta_at(286).tolist()
    assert diag["conformal_min"] == float(np.min(np.delete(conformal, 286)))
