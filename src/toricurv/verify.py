"""Checks for the curvature bounds satisfied by immersed tori in the unit ball.

Each check evaluates one inequality (or identity) on a given immersion and
returns a CheckReport with a signed margin: nonnegative slack means the bound
holds.  Hypotheses are gated strictly; when a hypothesis fails, the check
raises an InapplicableHypothesis subclass and the runner reports it as
skipped, never as failed, so vacuous passes cannot occur.

Every quadrature-based margin is recomputed once on a grid with all sizes
doubled; if the two values differ by 1e-6 or more the report is marked
unresolved (a negative margin still wins and marks a failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import intrinsic, pointwise
from .errors import (
    InapplicableHypothesis,
    NoNonpositiveScalarPoint,
    NotInBall,
    WrongDimension,
)
from .formats import immersion_to_obj
from .immersion import FourierImmersion
from .pointwise import GridFields, global_normal_curvature_max, grid_fields, weighted_average
from .quadrature import TorusGrid, _philox

BALL_SLACK = 1e-9           # |f| may exceed 1 by at most this much
FLAT_SC_TOL = 1e-7          # max |Sc| for the flat hypothesis
SPHERE_TOL = 1e-9           # max ||f| - 1| for the sphere hypothesis
NONPOS_SC_TOL = 1e-7        # Sc <= this counts as a nonpositive-curvature point
K_GATE_SLACK = 1e-9         # normal curvatures "at most 2" up to this much
FLAT_SAMPLE = 64            # seeded points where the flat gate takes the Gauss residual
FLAT_KEY = 0x5EED_F1A7      # their fixed Philox key
REFINE_TOL = 1e-6           # quadrature refinement delta below this is resolved

ALL_CHECKS = ("ball", "avg_h", "2d", "flat", "sphere", "main", "bow", "constant_k", "conjecture")


@dataclass
class CheckReport:
    """Outcome of one verification run."""

    name: str
    passed: bool | None              # None when the margin is not a finite number
    margin: float
    tolerance: float
    status: str                      # "pass" | "fail" | "unresolved" | "error"
    witness: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "pass": self.passed,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "diagnostics": self.diagnostics,
        }


def _report(name: str, margin: float, tolerance: float, witness=None,
            diagnostics=None, extra_ok: bool = True, delta: float = 0.0,
            extra_delta: float = 0.0) -> CheckReport:
    diagnostics = dict(diagnostics or {})
    diagnostics.setdefault("refinement_delta", float(delta))
    # A side identity that misses while its own value still moves by REFINE_TOL
    # or more under refinement is under-resolved, not failed.
    side_unresolved = not extra_ok and extra_delta >= REFINE_TOL
    resolved = delta < REFINE_TOL and not side_unresolved
    diagnostics["resolved"] = resolved
    passed = bool(margin >= -tolerance) and (bool(extra_ok) or side_unresolved)
    if not math.isfinite(margin):
        passed, status = None, "error"     # a NaN or infinite margin neither passes nor fails
    elif not passed:
        status = "fail"
    elif not resolved:
        status = "unresolved"
    else:
        status = "pass"
    return CheckReport(name=name, passed=passed, margin=float(margin),
                       tolerance=float(tolerance), status=status,
                       witness=witness, diagnostics=diagnostics)


def _pair(imm: FourierImmersion, grid: TorusGrid) -> tuple[GridFields, GridFields]:
    """Fields on the grid and on its doubling; the doubled grid comes first,
    so the base grid is sliced out of it, not evaluated."""
    fine = grid_fields(imm, grid.doubled())
    return grid_fields(imm, grid), fine


def _max_pair(imm: FourierImmersion, grid: TorusGrid, name: str) -> tuple[float, float, int]:
    """Max of a grid field on the grid and on its doubling, with the refined argmax."""
    base, fine = (getattr(f, name) for f in _pair(imm, grid))
    i_fine = int(np.argmax(fine))
    return float(np.max(base)), float(fine[i_fine]), i_fine


def _average_pair(imm: FourierImmersion, grid: TorusGrid, name: str) -> tuple[float, float]:
    """Volume average of a grid field on the grid and on its doubling."""
    return tuple(weighted_average(f, getattr(f, name)) for f in _pair(imm, grid))


def _ensure_ball(imm: FourierImmersion, grid: TorusGrid) -> float:
    _, top, _ = _max_pair(imm, grid, "r")
    if top > 1.0 + BALL_SLACK:
        raise NotInBall(f"max |f| = {top!r} exceeds 1 (image leaves the unit ball)")
    return top


def check_ball_containment(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Image stays in the closed unit ball: margin = 1 - max |f|."""
    base_top, fine_top, i_fine = _max_pair(imm, grid, "r")
    theta = grid.doubled().theta_at(i_fine)
    return _report(
        "ball", margin=1.0 - fine_top, tolerance=BALL_SLACK,
        witness={"theta": theta.tolist(), "values": {"norm_f": fine_top}},
        diagnostics={"max_norm_base": base_top, "max_norm_refined": fine_top,
                     "grid": list(grid.sizes)},
        delta=abs(fine_top - base_top),
    )


def check_avg_H(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Average |H| over the torus is at least n, with the divergence identity
    average<H, x> = -n recorded as a hard sub-check."""
    _ensure_ball(imm, grid)
    n = imm.n
    avg_base, avg_fine = _average_pair(imm, grid, "norm_H")
    div_base, div_fine = _average_pair(imm, grid, "hx")
    div_dev = abs(div_fine + n)
    return _report(
        "avg_h", margin=avg_fine - n, tolerance=1e-7,
        diagnostics={
            "average_norm_H": avg_fine,
            "divergence_deviation": div_dev,
            "divergence_deviation_base": abs(div_base + n),
            "grid": list(grid.sizes),
        },
        extra_ok=div_dev < 1e-7,
        delta=abs(avg_fine - avg_base),
        extra_delta=abs(div_fine - div_base),
    )


def check_2d(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For n = 2: average zh is at least 3/2, with zero-average scalar curvature."""
    if imm.n != 2:
        raise WrongDimension(f"check_2d needs n = 2, got n = {imm.n}")
    _ensure_ball(imm, grid)
    avg_base, avg_fine = _average_pair(imm, grid, "zh")
    avg_sc, avg_sc_fine = _average_pair(imm, grid, "sc_ext")
    return _report(
        "2d", margin=avg_fine - 1.5, tolerance=1e-7,
        diagnostics={
            "average_zh": avg_fine,
            "average_sc": avg_sc,
            "average_sc_refined": avg_sc_fine,
            "grid": list(grid.sizes),
        },
        extra_ok=abs(avg_sc) < 1e-6,
        delta=abs(avg_fine - avg_base),
        extra_delta=abs(avg_sc_fine - avg_sc),
    )


def check_flat(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For a flat induced metric: average zh is at least 3n/(n+2).

    The hypothesis adds two numbers: the largest closed-form |Sc| on the grid
    and the largest Gauss residual (the intrinsic Sc minus the closed form) at
    FLAT_SAMPLE seeded points, so it cannot pass on the closed form alone."""
    _ensure_ball(imm, grid)
    sc_max = float(np.max(np.abs(grid_fields(imm, grid).sc_ext)))
    thetas = _philox(FLAT_KEY).uniform(0.0, 2.0 * math.pi, size=(FLAT_SAMPLE, imm.n))
    residual = float(np.max(np.abs(intrinsic.gauss_residuals(imm, thetas))))
    if sc_max + residual >= FLAT_SC_TOL:
        raise InapplicableHypothesis(
            f"metric is not flat: max |Sc| = {sc_max!r} plus Gauss residual {residual!r} "
            f">= {FLAT_SC_TOL}")
    n = imm.n
    bound = 3.0 * n / (n + 2)
    avg_base, avg_fine = _average_pair(imm, grid, "zh")
    return _report(
        "flat", margin=avg_fine - bound, tolerance=1e-8,
        diagnostics={"average_zh": avg_fine, "bound": bound,
                     "max_abs_sc": sc_max, "gauss_residual": residual,
                     "grid": list(grid.sizes)},
        delta=abs(avg_fine - avg_base),
    )


def _sphere_witness(imm: FourierImmersion, grid: TorusGrid):
    """Best nonpositive-curvature witness: among grid points with Sc <= tol
    (the closed form |H|^2 - |II|^2), the one with the largest zh (strongest
    reportable point)."""
    fields = grid_fields(imm, grid)
    candidates = np.nonzero(fields.sc_ext <= NONPOS_SC_TOL)[0]
    if candidates.size == 0:
        raise NoNonpositiveScalarPoint(
            f"no grid point with Sc <= {NONPOS_SC_TOL} on grid {grid.sizes}; "
            "either under-resolved or a bug"
        )
    zh = fields.zh
    pick = int(candidates[np.argmax(zh[candidates])])
    return pick, float(zh[pick]), float(fields.sc_ext[pick])


def check_sphere(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For an image on the unit sphere: zh >= 3n/(n+2) at some point.

    The witness is a grid point with nonpositive scalar curvature (up to
    tolerance), which must exist because no torus metric has positive scalar
    curvature everywhere."""
    base, _ = _pair(imm, grid)
    off_sphere = float(np.max(np.abs(base.r - 1.0)))
    if off_sphere >= SPHERE_TOL:
        raise InapplicableHypothesis(
            f"image is not on the unit sphere: max ||f|-1| = {off_sphere!r} >= {SPHERE_TOL}")
    n = imm.n
    bound = 3.0 * n / (n + 2)
    pick_base, zh_base, _ = _sphere_witness(imm, grid)
    pick_fine, zh_fine, sc_fine = _sphere_witness(imm, grid.doubled())
    theta = grid.doubled().theta_at(pick_fine)
    return _report(
        "sphere", margin=zh_fine - bound, tolerance=1e-8,
        witness={"theta": theta.tolist(), "values": {"zh": zh_fine, "sc": sc_fine}},
        diagnostics={"bound": bound, "witness_zh_base": zh_base,
                     "grid": list(grid.sizes)},
        delta=abs(zh_fine - zh_base),
    )


def _chain_terms(n: int, zh: float, norm_H: float, r: float,
                 cos_alpha: float, sin_beta: float) -> dict:
    """The four-term lower bound for n(n+2)/2 * zh and its two sides."""
    t1 = 1.5 * (norm_H + n * r * cos_alpha) ** 2
    t2 = -1.5 * n * n * r * r * cos_alpha * cos_alpha
    t3 = 3.0 * n * n
    t4 = -2.25 * (n - 2) / (n - 1) * n * n * r * r * sin_beta * sin_beta
    mid = t1 + t2 + t3 + t4
    return {
        "term_square": t1,
        "term_cos": t2,
        "term_const": t3,
        "term_sin": t4,
        "lhs": 0.5 * n * (n + 2) * zh,
        "mid": mid,
        "rhs": 1.5 * n * n,
        "trig_budget": cos_alpha * cos_alpha + sin_beta * sin_beta,
    }


def _trace_diagnostics(imm: FourierImmersion, grid: TorusGrid) -> tuple[dict, dict | None]:
    """Radial-trace diagnostics at the most informative grid point off the
    origin (where the radial angles are undefined).

    For n >= 3 that is the minimizer of the conformal operator value; for
    n < 3 (where the operator is undefined) it is the zh maximizer, traced at
    rate k = 0.  r, alpha and beta come from the one conformal_trace in every
    dimension.  Returns (diagnostics, witness); the witness is None for n < 3."""
    n = imm.n
    fields = grid_fields(imm, grid)
    origin = fields.r < 1e-12
    diag: dict = {}
    if n >= 3:
        k = intrinsic.conformal_rate(n)
        conformal = intrinsic.conformal_grid(imm, grid, k)["conformal"]
        idx = int(np.argmin(np.where(origin, np.inf, conformal)))
        diag["conformal_min"] = float(conformal[idx])
        diag["conformal_rate"] = float(k)
    else:
        k = 0
        idx = int(np.argmax(np.where(origin, -np.inf, fields.zh)))
    theta = grid.theta_at(idx)
    trace = intrinsic.conformal_trace(imm, theta, k)
    diag["trace_theta"] = theta.tolist()
    diag["lap_identity_residual"] = abs(trace.lap_f - (n + float(fields.hx[idx])))
    diag["grad_identity_residual"] = abs(trace.grad_f_norm - trace.r * math.sin(trace.beta))
    witness = None
    if n >= 3:
        witness = {"theta": theta.tolist(), "values": {
            "r": trace.r, "alpha": trace.alpha, "beta": trace.beta,
            "u": trace.u, "lap_f": trace.lap_f, "grad_f_norm": trace.grad_f_norm,
            "lap_u": trace.lap_u, "sc": trace.sc,
            "conformal_value": trace.conformal_value,
        }}
    if trace.alpha is not None:
        diag["angle_sandwich_slack"] = min(trace.alpha - trace.beta,
                                           math.pi - trace.beta - trace.alpha)
        if n >= 2:      # the chain's sin term divides by n - 1
            r, sin_beta = trace.r, math.sin(trace.beta)
            chain = _chain_terms(n, float(fields.zh[idx]), float(fields.norm_H[idx]),
                                 r, math.cos(trace.alpha), sin_beta)
            diag["chain"] = chain
            diag["trig_budget_slack"] = 1.0 - chain["trig_budget"]
            if n >= 5:
                diag["ball_budget_slack"] = 1.0 - (r * r + sin_beta * sin_beta)
    return diag, witness


def _gate_K(imm: FourierImmersion, grid: TorusGrid, seed: int, claim: str) -> float:
    """The hypothesis "all normal curvatures are at most 2", on the best-found maximum."""
    k_top = global_normal_curvature_max(imm, grid, seed=seed)
    if k_top > 2.0 + K_GATE_SLACK:
        raise InapplicableHypothesis(
            f"max normal curvature {k_top!r} exceeds 2; the {claim} bound is not claimed")
    return k_top


def check_main(imm: FourierImmersion, grid: TorusGrid, seed: int = 0) -> CheckReport:
    """zh >= 3n/(n+2) at some point, for n <= 4 or normal curvatures <= 2.

    For n = 2 the averaged two-dimensional bound already implies this, so the
    check delegates there; for n >= 5 the curvature hypothesis is gated by a
    best-found global maximum (grid sweep plus multistart refinement)."""
    _ensure_ball(imm, grid)
    n = imm.n
    if n == 2:
        inner = check_2d(imm, grid)
        diag, _ = _trace_diagnostics(imm, grid)
        return replace(inner, name="main",
                       diagnostics={**inner.diagnostics, **diag, "delegated_to": "2d"})
    if n >= 5:
        _gate_K(imm, grid, seed, "pointwise")
    bound = 3.0 * n / (n + 2)
    top_base, top_fine, i_fine = _max_pair(imm, grid, "zh")
    diag, witness = _trace_diagnostics(imm, grid)
    diag.update({"max_zh": top_fine, "bound": bound, "grid": list(grid.sizes)})
    if witness is None:
        witness = {"theta": grid.doubled().theta_at(i_fine).tolist(),
                   "values": {"zh": top_fine}}
    return _report(
        "main", margin=top_fine - bound, tolerance=1e-8,
        witness=witness, diagnostics=diag,
        delta=abs(top_fine - top_base),
    )


def check_bow(imm: FourierImmersion, grid: TorusGrid, seed: int = 0) -> CheckReport:
    """|x| <= cos(beta) wherever normal curvatures stay at most 2."""
    k_top = _gate_K(imm, grid, seed, "bow")

    def slack(fields: GridFields) -> np.ndarray:
        s = fields.cos_beta - fields.r
        return np.where(fields.r < 1e-12, 1.0, s)   # origin points satisfy the bound trivially

    base, fine = _pair(imm, grid)
    m_base = float(np.min(slack(base)))
    s_fine = slack(fine)
    i_fine = int(np.argmin(s_fine))
    m_fine = float(s_fine[i_fine])
    theta = grid.doubled().theta_at(i_fine)
    return _report(
        "bow", margin=m_fine, tolerance=1e-8,
        witness={"theta": theta.tolist(),
                 "values": {"r": float(fine.r[i_fine]), "cos_beta": float(fine.cos_beta[i_fine])}},
        diagnostics={"k_max": k_top, "grid": list(grid.sizes)},
        delta=abs(m_fine - m_base),
    )


def check_constant_K(imm: FourierImmersion, seed: int = 0,
                     expected_K: float | None = None) -> CheckReport:
    """Sampled constancy of the normal curvature over 64 points and 256
    directions.

    The check is a hard 1e-10 constancy assertion against the expected value
    of an exact design certificate; without one it is skipped, naming the
    sampled K range."""
    n = imm.n
    rng = _philox(seed * 613 + 7)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=(64, n))
    dirs = rng.standard_normal((256, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    K = np.sqrt(pointwise._k2_sweep(dirs, pointwise._chunk_core(imm, thetas)[2]))
    k_min, k_max = float(K.min()), float(K.max())
    mean = float(K.sum()) / K.size
    if expected_K is None:
        raise InapplicableHypothesis(
            f"no design certificate gives an expected K; sampled K ranges over [{k_min!r}, {k_max!r}]")
    diagnostics = {"mean_K": mean, "min_K": k_min, "max_K": k_max,
                   "points": int(thetas.shape[0]), "directions": 256,
                   "expected_K": float(expected_K), "mean_deviation": abs(mean - expected_K)}
    return _report("constant_k", margin=-(k_max - k_min), tolerance=1e-10,
                   diagnostics=diagnostics, extra_ok=abs(mean - expected_K) <= 1e-10)


def conjecture_probe(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Probe of the open pointwise bound: max zh over the grid vs 3n/(n+2).

    A pass means "consistent with the conjectured bound".  A fail does NOT
    refute anything by itself; the report carries the serialized immersion as
    a counterexample candidate for human review."""
    _ensure_ball(imm, grid)
    n = imm.n
    bound = 3.0 * n / (n + 2)
    top_base, top_fine, i_fine = _max_pair(imm, grid, "zh")
    margin = top_fine - bound
    diagnostics = {"max_zh": top_fine, "bound": bound, "grid": list(grid.sizes)}
    if margin < -1e-9:
        diagnostics["counterexample_candidate"] = immersion_to_obj(imm)
    return _report(
        "conjecture", margin=margin, tolerance=1e-9,
        witness={"theta": grid.doubled().theta_at(i_fine).tolist(), "values": {"zh": top_fine}},
        diagnostics=diagnostics,
        delta=abs(top_fine - top_base),
    )


def select_checks(checks=None) -> list[str]:
    """The check names a selection names: None or "all", a comma-separated
    string, or an iterable of names.  Unknown or empty names raise ValueError."""
    if checks is None or checks == "all":
        return list(ALL_CHECKS)
    selected = [c.strip() for c in (checks.split(",") if isinstance(checks, str) else checks)]
    unknown = [c for c in selected if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {list(ALL_CHECKS)}")
    return selected


def run_checks(imm: FourierImmersion, grid: TorusGrid | None = None, seed: int = 0,
               checks=None, expected_K: float | None = None) -> list[dict]:
    """Run the selected checks in a fixed order; inapplicable ones are skipped."""
    grid = TorusGrid.default(imm.n) if grid is None else grid
    selected = select_checks(checks)

    dispatch = {
        "ball": lambda: check_ball_containment(imm, grid),
        "avg_h": lambda: check_avg_H(imm, grid),
        "2d": lambda: check_2d(imm, grid),
        "flat": lambda: check_flat(imm, grid),
        "sphere": lambda: check_sphere(imm, grid),
        "main": lambda: check_main(imm, grid, seed=seed),
        "bow": lambda: check_bow(imm, grid, seed=seed),
        "constant_k": lambda: check_constant_K(imm, seed=seed, expected_K=expected_K),
        "conjecture": lambda: conjecture_probe(imm, grid),
    }
    reports = []
    for name in ALL_CHECKS:
        if name not in selected:
            continue
        try:
            reports.append(dispatch[name]().to_dict())
        except (InapplicableHypothesis, NoNonpositiveScalarPoint) as exc:
            status = "skipped" if isinstance(exc, InapplicableHypothesis) else "unresolved"
            reports.append({"name": name, "status": status, "pass": None,
                            "margin": None, "tolerance": None, "witness": None,
                            "diagnostics": {"reason": str(exc), "error": type(exc).__name__}})
    return reports


def exit_code(reports: list[dict]) -> int:
    """0 all applicable pass; 2 any margin is not finite; 1 any proven bound
    fails; 3 only the probe fails."""
    if any(r["status"] == "error" for r in reports):
        return 2
    proven_fail = any(r["status"] == "fail" and r["name"] != "conjecture" for r in reports)
    probe_fail = any(r["status"] == "fail" and r["name"] == "conjecture" for r in reports)
    if proven_fail:
        return 1
    if probe_fail:
        return 3
    return 0
