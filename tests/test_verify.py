import dataclasses
import math
import sys

import numpy as np
import pytest

from toricurv import forked, intrinsic, pointwise, verify
from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.errors import InapplicableHypothesis, NotInBall, WrongDimension
from toricurv.fixtures import ball_immersion, perturbed_clifford
from toricurv.immersion import FourierImmersion, FourierTerm, evaluate_jet, transform
from toricurv.quadrature import TorusGrid
from toricurv.verify import (
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


def test_ball_fixture_inside_on_refined_default_grid():
    # The fixture is scaled on the grid the check re-checks on (the doubled
    # default); scaled on the undoubled grid it reached |f| = 1.0029 there.
    imm = ball_immersion(3, 7, seed=7)
    rep = check_ball_containment(imm, TorusGrid.default(3))
    assert rep.passed
    assert abs(rep.margin - 1e-3) < 1e-12
    # The undoubled maximum is lower by more than REFINE_TOL.
    assert rep.status == "unresolved"


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


def test_gate_memo_shared_by_main_and_bow(monkeypatch):
    # The n >= 5 main gate and the bow gate read one memoized K sweep of the
    # base grid and one batched extremizer call at no more than four points.
    # The calls are counted in this process, so the sweep runs in it.
    monkeypatch.setattr(forked, "usable_cpus", lambda: 1)
    swept, refined = [], []
    sweep, extremes = pointwise._k2_sweep, pointwise.extremal_normal_curvature

    def counting_sweep(D, S):
        swept.append(S.shape[0])
        return sweep(D, S)

    def counting_extremes(S, seed=0):
        refined.append(S.shape[0])
        return extremes(S, seed)

    monkeypatch.setattr(pointwise, "_k2_sweep", counting_sweep)
    monkeypatch.setattr(pointwise, "extremal_normal_curvature", counting_extremes)
    grid, imm = TorusGrid((4,) * 5), clifford(5)
    reports = run_checks(imm, grid, checks="main,bow")
    assert [r["status"] for r in reports] == ["skipped", "skipped"]     # K_max = sqrt(5) > 2
    assert sum(swept) == grid.npoints
    assert len(refined) == 1 and refined[0] <= 4
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
    assert abs(rep.diagnostics["mean_K"] - math.sqrt(1.5)) < 1e-10


def test_constant_k_clifford_spread(clifford2):
    rep = check_constant_K(clifford2, expected_K=1.0)
    spread = -rep.margin
    assert abs(spread - (math.sqrt(2) - 1.0)) < 2e-3   # sampled range
    assert rep.status == "fail"
    # Without an exact expectation there is no claim to check: skipped, naming the range.
    with pytest.raises(InapplicableHypothesis, match=r"K ranges over \[1\.0"):
        check_constant_K(clifford2)
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

def test_base_grid_sliced_from_doubled_grid(monkeypatch):
    # Every base point is a point of the doubled grid, so run_checks evaluates
    # the fields on the doubled grid only and slices the base grid out of it.
    d4 = subtorus_immersion(builtin_design("d4"))
    evaluate = pointwise._evaluate_fields
    evaluated = []

    def counting(imm, grid):
        evaluated.append(grid.npoints)
        return evaluate(imm, grid)

    monkeypatch.setattr(pointwise, "_evaluate_fields", counting)
    run_checks(d4, GRID4)
    assert evaluated == [12 ** 4]
    monkeypatch.undo()

    # d4's fields are constant, so compare on a map whose fields are not too
    wavy3 = perturbed_clifford(3, seed=1)
    pointwise.grid_fields(wavy3, GRID3.doubled())
    for imm, fresh, grid in ((d4, subtorus_immersion(builtin_design("d4")), GRID4),
                             (wavy3, perturbed_clifford(3, seed=1), GRID3)):
        sliced = pointwise.grid_fields(imm, grid)
        direct = pointwise.grid_fields(fresh, grid)
        for name in pointwise._FIELD_NAMES + ("norm_H", "zh", "sc_ext", "sin_beta", "cos_beta"):
            np.testing.assert_allclose(getattr(sliced, name), getattr(direct, name),
                                       rtol=0, atol=1e-13, equal_nan=True, err_msg=name)


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
    assert int(np.argmin(intrinsic.conformal_grid(half, grid, k)["conformal"])) == 286
    moved = translated(half, -evaluate_jet(half, grid.theta_at(286), order=0).value)
    conformal = intrinsic.conformal_grid(moved, grid, k)["conformal"]
    assert int(np.argmin(conformal)) == 286
    assert pointwise.grid_fields(moved, grid).r[286] < 1e-12
    (report,) = run_checks(moved, grid, checks="main")
    assert report["status"] in ("pass", "fail", "unresolved")
    diag = report["diagnostics"]
    assert diag["trace_theta"] != grid.theta_at(286).tolist()
    assert diag["conformal_min"] == float(np.min(np.delete(conformal, 286)))
