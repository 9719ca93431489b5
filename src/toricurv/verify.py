"""Checks for the curvature bounds satisfied by immersed tori in the unit ball.

Each check evaluates one inequality (or identity) on a given immersion and
returns a CheckReport with a signed margin: nonnegative slack means the bound
holds.  Hypotheses are gated strictly; when a hypothesis fails, the check
raises an InapplicableHypothesis subclass and the runner reports it as
skipped, never as failed, so vacuous passes cannot occur.

Every quadrature-based margin is refined once, by the one reader _refined:
where the grid resolves every field (the trapezoid rule's spectral accuracy,
tested on the grid's own spectrum), from the grid and the trigonometric
interpolant of its fields on the doubled grid, read one coset of the grid at a
time, and otherwise on a grid with all sizes doubled.  If the refinement moves
a value by 1e-6 or more the report is marked unresolved (a negative margin
still wins and marks a failure).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import intrinsic, pointwise
from .errors import (
    InapplicableHypothesis,
    NoNonpositiveScalarPoint,
    NonFiniteValue,
    NotInBall,
    WrongDimension,
)
from .formats import immersion_to_obj
from .immersion import FourierImmersion
from .pointwise import _FIELD_NAMES, GridFields, global_normal_curvature_max, grid_fields, weighted_average
from .quadrature import TorusGrid, _philox

BALL_SLACK = 1e-9           # |f| may exceed 1 by at most this much
FLAT_SC_TOL = 1e-7          # max |Sc| for the flat hypothesis
SPHERE_TOL = 1e-9           # max ||f| - 1| for the sphere hypothesis
NONPOS_SC_TOL = 1e-7        # Sc <= this counts as a nonpositive-curvature point
K_GATE_SLACK = 1e-9         # normal curvatures "at most 2" up to this much
FLAT_SAMPLE = 64            # seeded points where the flat gate takes the Gauss residual
FLAT_KEY = 0x5EED_F1A7      # their fixed Philox key
REFINE_TOL = 1e-6           # quadrature refinement delta below this is resolved
SPECTRAL_TAIL = 1e-9        # outer-shell spectrum, over max(|column|, 1), that a resolved column stays below
SPECTRAL_CANDIDATES = 8     # interpolant extremes re-read, with their neighbours, by exact jets

ALL_CHECKS = ("ball", "avg_h", "2d", "flat", "sphere", "main", "bow", "constant_k", "conjecture")


@dataclass
class CheckReport:
    """Outcome of one verification run."""

    name: str
    passed: bool | None              # None when the margin is not a finite number
    margin: float | None             # None, as is the tolerance, for a check not run
    tolerance: float | None
    status: str                      # "pass" | "fail" | "unresolved" | "error" | "skipped"
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


class _Refined(NamedTuple):
    """A grid reading and its refinement."""

    base: float                  # on the grid
    value: float                 # refined: the doubled grid's, or a spectral average's on the grid
    delta: float                 # |value - base|, or a spectral average's outer-shell sum
    index: int | None            # the doubled grid's flat index of a max or min
    theta: list | None           # the doubled grid's theta at index
    fields: GridFields | None    # a max's or min's: the doubled grid's, or exact at the spectral candidates
    row: int | None              # index's row in fields
    base_fields: GridFields      # the grid's own pass
    refinement: str              # "spectral" or "doubled"


def _shell_sum(spectrum: np.ndarray, sizes: tuple[int, ...]) -> float:
    """Sum of |c_k| over the outer shell, the k with some |k_a| >= N_a/4, of a
    grid's rfftn spectrum, c_k the sampled function's Fourier coefficients."""
    *head, last = sizes
    freqs = [np.abs(np.fft.fftfreq(N, 1.0 / N)) for N in head] + [np.arange(last // 2 + 1)]
    inner = functools.reduce(np.logical_and.outer, [k < N / 4 for k, N in zip(freqs, sizes)])
    return float(np.sum(np.abs(spectrum[~inner]))) / math.prod(sizes)


def _spectrum(values: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """The rfftn spectrum of per-point values on a grid of these sizes."""
    return np.fft.rfftn(values.reshape(sizes), axes=range(len(sizes)))


def _half_steps(rows: np.ndarray, s: int) -> np.ndarray:
    """The trigonometric interpolant of each row's equispaced samples, each
    row's Nyquist coefficient dropped (it lies in the outer shell, so on a
    resolved column it is below SPECTRAL_TAIL), at the rows' own points
    shifted by s half steps: the doubled grid's even (s = 0) or odd (s = 1)
    points along the rows."""
    N = rows.shape[-1]
    spectrum = np.fft.rfft(rows, axis=-1)
    spectrum[..., (N + 1) // 2:] = 0.0
    if s:
        spectrum *= np.exp(1j * math.pi / N * np.arange(N // 2 + 1))
    return np.fft.irfft(spectrum, n=N, axis=-1)


def _cosets(fields: GridFields) -> Iterator[tuple[tuple[int, ...], GridFields]]:
    """The interpolant of the grid's r, H2, II2 and xt2 on the doubled grid,
    one coset at a time: yields (s, coset) for each s in {0, 1}^n, where
    coset holds those columns at the doubled grid's points 2j + s, j over the
    grid, as GridFields on the grid (sqrt_det and hx None).

    The interpolant is a tensor product of one operator per axis and parity,
    so the walk takes the axes last to first, depth first over the parities:
    each node applies one axis and moves it to the front.  It applies the
    axis by GEMM with that axis's operator where the operator is no larger
    than the stack it multiplies, and by FFT elsewhere: a GEMM node beat an
    FFT node at every axis length timed, up to 512, but building the operator costs
    O(N^2 log N) and holds N^2 values, which only a stack at least that large
    pays back (on a 512-point circle or the long axis of 512 x 16 the FFT walk
    is 4 to 60 times faster).  The walk holds at most n + 1 stacks of the four
    columns, and no array has the doubled grid's point count."""
    sizes = fields.grid.sizes
    root = np.stack([getattr(fields, name) for name in ("r", "H2", "II2", "xt2")]).reshape(4, *sizes)
    operators = {N: np.stack([_half_steps(np.eye(N), s).T for s in (0, 1)])
                 for N in set(sizes) if N * N <= root.size}

    def rotate(stack, s):     # the parity s of stack's last axis, that axis moved to the front
        N = stack.shape[-1]
        rows = stack.reshape(-1, N)
        moved = operators[N][s] @ rows.T if N in operators else _half_steps(rows, s).T
        return moved.reshape(N, *stack.shape[:-1])

    def walk(stack, parity):
        if len(parity) == len(sizes):
            r, H2, II2, xt2 = stack.reshape(-1, 4).T
            yield parity, GridFields(grid=fields.grid, r=r, sqrt_det=None, hx=None, H2=H2, II2=II2, xt2=xt2)
        else:
            for s in (0, 1):
                yield from walk(rotate(stack, s), (s, *parity))

    yield from walk(root, ())


def _resolves(imm: FourierImmersion, base: GridFields) -> bool:
    """Whether the grid resolves every field, so that _cosets' trigonometric
    interpolant of its fields stands for the doubled grid's: every term
    frequency has all |k_a| < N_a/4, and every column is finite and holds less
    than SPECTRAL_TAIL * max(|column|, 1) in its outer shell.  Each column's
    spectrum is freed after its shell sum; the verdict is memoized per
    (immersion, sizes)."""
    def resolve():
        sizes = base.grid.sizes
        if not np.all(np.abs(imm._kmat) < np.array(sizes) / 4):
            return False
        for name in _FIELD_NAMES:
            column = getattr(base, name)
            if not np.isfinite(column).all():
                return False
            if _shell_sum(_spectrum(column, sizes), sizes) >= SPECTRAL_TAIL * max(float(np.max(np.abs(column))), 1.0):
                return False
        return True
    return pointwise._memo(imm, ("resolves", base.grid.sizes), resolve)


def _candidates(fields: GridFields, read: Callable[[GridFields], np.ndarray], how: str,
                centre: int) -> np.ndarray:
    """Sorted flat indices of the doubled grid's points within one step, on
    every axis and wrapping, of centre or of the SPECTRAL_CANDIDATES values of
    read on the fields' interpolant most extreme by how ("max" or "min").
    Each coset keeps its own most extreme values, so the merged ones are the
    whole interpolant's."""
    def lowest(keys):
        return np.argpartition(keys, min(SPECTRAL_CANDIDATES, keys.size) - 1)[:SPECTRAL_CANDIDATES]

    sizes = fields.grid.sizes
    fine_sizes = tuple(2 * N for N in sizes)
    keys, indices = [], []
    for parity, coset in _cosets(fields):
        key = -read(coset) if how == "max" else read(coset)
        top = lowest(key)
        keys.append(key[top])
        indices.append(np.ravel_multi_index([2 * j + s for j, s in zip(np.unravel_index(top, sizes), parity)],
                                            fine_sizes))
    top = np.concatenate(indices)[lowest(np.concatenate(keys))]
    centres = np.stack(np.unravel_index(np.append(top, centre), fine_sizes), axis=1)
    steps = np.array(list(itertools.product((-1, 0, 1), repeat=len(sizes))))
    around = (centres[:, None, :] + steps).reshape(-1, len(sizes)) % np.array(fine_sizes)
    return np.unique(np.ravel_multi_index(tuple(around.T), fine_sizes))


def _refined(imm: FourierImmersion, grid: TorusGrid,
             read: Callable[[GridFields], np.ndarray], how: str) -> _Refined:
    """The per-point values read(fields) reduced by how ("max", "min" or
    "average", over the induced volume) on the grid, and refined.

    The one caller of grid_fields in verify.  It runs the grid's pass first.
    Where _resolves finds the grid's fields resolved, an average stays the
    grid's, with its integrand's outer-shell sum as the delta, and a max or
    min is located on the fields' interpolant on the doubled grid, read
    coset by coset by _candidates with no doubled-grid array, then re-read by exact jets at the doubled
    grid's points around its SPECTRAL_CANDIDATES most extreme values and
    around the grid's own extreme, so it is an exact doubled-grid value no
    less extreme than the grid's.  Elsewhere the doubled grid's pass runs."""
    base = grid_fields(imm, grid)
    fine_grid = grid.doubled()
    spectral = _resolves(imm, base)
    refinement = "spectral" if spectral else "doubled"
    base_values = read(base)
    if how == "average":
        at_base = weighted_average(base, base_values)
        if not spectral:
            fine = grid_fields(imm, fine_grid)
            at_fine = weighted_average(fine, read(fine))
            delta = abs(at_fine - at_base)
        else:
            integrand = base_values * base.sqrt_det / np.mean(base.sqrt_det)
            at_fine, delta = at_base, _shell_sum(_spectrum(integrand, grid.sizes), grid.sizes)
        return _Refined(at_base, at_fine, delta, None, None, None, None, base, refinement)
    pick = {"max": np.argmax, "min": np.argmin}[how]
    i = int(pick(base_values))
    at_base = float(base_values[i])
    if not spectral:
        points, fine = None, grid_fields(imm, fine_grid)
    else:
        centre = np.ravel_multi_index(tuple(2 * j for j in np.unravel_index(i, grid.sizes)), fine_grid.sizes)
        points = _candidates(base, read, how, centre)
        columns = pointwise._field_columns(*pointwise._chunk_core(imm, fine_grid.theta_at(points)))
        fine = GridFields(grid=fine_grid, **dict(zip(_FIELD_NAMES, columns)))     # at the points alone
    values = read(fine)
    row = int(pick(values))
    index = row if points is None else int(points[row])
    return _Refined(at_base, float(values[row]), abs(float(values[row]) - at_base), index,
                    fine_grid.theta_at(index).tolist(), fine, row, base, refinement)


def _ball_top(imm: FourierImmersion, grid: TorusGrid) -> _Refined:
    """The refined max |f|, which check_ball_containment and every ball-gated
    check read: memoized per (immersion, sizes)."""
    return pointwise._memo(imm, ("ball", grid.sizes), lambda: _refined(imm, grid, lambda f: f.r, "max"))


def _zh_top(imm: FourierImmersion, grid: TorusGrid) -> _Refined:
    """The refined max zh, which check_main and conjecture_probe read:
    memoized per (immersion, sizes)."""
    return pointwise._memo(imm, ("zh", grid.sizes), lambda: _refined(imm, grid, lambda f: f.zh, "max"))


def _ensure_ball(imm: FourierImmersion, grid: TorusGrid) -> None:
    top = _ball_top(imm, grid).value
    if top > 1.0 + BALL_SLACK:
        raise NotInBall(f"max |f| = {top!r} exceeds 1 (image leaves the unit ball)")


def check_ball_containment(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Image stays in the closed unit ball: margin = 1 - max |f|."""
    top = _ball_top(imm, grid)
    return _report(
        "ball", margin=1.0 - top.value, tolerance=BALL_SLACK,
        witness={"theta": top.theta, "values": {"norm_f": top.value}},
        diagnostics={"max_norm_base": top.base, "max_norm_refined": top.value,
                     "grid": list(grid.sizes), "refinement": top.refinement},
        delta=top.delta,
    )


def check_avg_H(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Average |H| over the torus is at least n, with the divergence identity
    average<H, x> = -n recorded as a hard sub-check."""
    _ensure_ball(imm, grid)
    n = imm.n
    avg = _refined(imm, grid, lambda f: f.norm_H, "average")
    div = _refined(imm, grid, lambda f: f.hx, "average")
    div_dev = abs(div.value + n)
    return _report(
        "avg_h", margin=avg.value - n, tolerance=1e-7,
        diagnostics={
            "average_norm_H": avg.value,
            "divergence_deviation": div_dev,
            "divergence_deviation_base": abs(div.base + n),
            "grid": list(grid.sizes),
            "refinement": avg.refinement,
        },
        extra_ok=div_dev < 1e-7, delta=avg.delta, extra_delta=div.delta,
    )


def check_2d(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For n = 2: average zh is at least 3/2, with zero-average scalar curvature."""
    if imm.n != 2:
        raise WrongDimension(f"check_2d needs n = 2, got n = {imm.n}")
    _ensure_ball(imm, grid)
    avg = _refined(imm, grid, lambda f: f.zh, "average")
    sc = _refined(imm, grid, lambda f: f.sc_ext, "average")
    return _report(
        "2d", margin=avg.value - 1.5, tolerance=1e-7,
        diagnostics={
            "average_zh": avg.value,
            "average_sc": sc.base,
            "average_sc_refined": sc.value,
            "grid": list(grid.sizes),
            "refinement": avg.refinement,
        },
        extra_ok=abs(sc.base) < 1e-6, delta=avg.delta, extra_delta=sc.delta,
    )


def check_flat(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For a flat induced metric: average zh is at least 3n/(n+2).

    The hypothesis adds two numbers: the refined largest closed-form |Sc|
    and the largest Gauss residual (the intrinsic Sc minus the
    closed form) at FLAT_SAMPLE seeded points, so it cannot pass on the
    closed form alone."""
    _ensure_ball(imm, grid)
    sc_max = _refined(imm, grid, lambda f: np.abs(f.sc_ext), "max").value
    thetas = _philox(FLAT_KEY).uniform(0.0, 2.0 * math.pi, size=(FLAT_SAMPLE, imm.n))
    residual = float(np.max(np.abs(intrinsic.gauss_residuals(imm, thetas))))
    if sc_max + residual >= FLAT_SC_TOL:
        raise InapplicableHypothesis(
            f"metric is not flat: max |Sc| = {sc_max!r} plus Gauss residual {residual!r} "
            f">= {FLAT_SC_TOL}")
    n = imm.n
    bound = 3.0 * n / (n + 2)
    avg = _refined(imm, grid, lambda f: f.zh, "average")
    return _report(
        "flat", margin=avg.value - bound, tolerance=1e-8,
        diagnostics={"average_zh": avg.value, "bound": bound,
                     "max_abs_sc": sc_max, "gauss_residual": residual,
                     "grid": list(grid.sizes), "refinement": avg.refinement},
        delta=avg.delta,
    )


def check_sphere(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """For an image on the unit sphere (the refined max ||f| - 1| below
    SPHERE_TOL): zh >= 3n/(n+2) at some point.

    The witness is the grid point of largest zh among those with nonpositive
    scalar curvature (the closed form Sc <= NONPOS_SC_TOL), which must exist
    because no torus metric has positive scalar curvature everywhere."""
    off_sphere = _refined(imm, grid, lambda f: np.abs(f.r - 1.0), "max").value
    if off_sphere >= SPHERE_TOL:
        raise InapplicableHypothesis(
            f"image is not on the unit sphere: max ||f|-1| = {off_sphere!r} >= {SPHERE_TOL}")
    n = imm.n
    bound = 3.0 * n / (n + 2)
    top = _refined(imm, grid, lambda f: np.where(f.sc_ext <= NONPOS_SC_TOL, f.zh, -np.inf), "max")
    # the grid's points are doubled-grid points, so a point there is one on both
    if top.base == -np.inf:
        raise NoNonpositiveScalarPoint(
            f"no grid point with Sc <= {NONPOS_SC_TOL} on grid {grid.sizes}; "
            "either under-resolved or a bug")
    return _report(
        "sphere", margin=top.value - bound, tolerance=1e-8,
        witness={"theta": top.theta,
                 "values": {"zh": top.value, "sc": float(top.fields.sc_ext[top.row])}},
        diagnostics={"bound": bound, "witness_zh_base": top.base, "grid": list(grid.sizes),
                     "refinement": top.refinement},
        delta=top.delta,
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


def _trace_diagnostics(imm: FourierImmersion, fields: GridFields) -> tuple[dict, dict | None]:
    """Radial-trace diagnostics at the most informative point of the fields'
    grid off the origin (where the radial angles are undefined).

    For n >= 3 that is the minimizer of the conformal operator value; for
    n < 3 (where the operator is undefined) it is the zh maximizer, traced at
    rate k = 0.  r, alpha and beta come from the one conformal_trace in every
    dimension.  Returns (diagnostics, witness); the witness is None for n < 3."""
    n = imm.n
    origin = fields.r < 1e-12
    diag: dict = {}
    if n >= 3:
        k = intrinsic.conformal_rate(n)
        conformal = intrinsic.conformal_grid(fields, k)["conformal"]
        idx = int(np.argmin(np.where(origin, np.inf, conformal)))
        diag["conformal_min"] = float(conformal[idx])
        diag["conformal_rate"] = float(k)
    else:
        k = 0
        idx = int(np.argmax(np.where(origin, -np.inf, fields.zh)))
    theta = fields.grid.theta_at(idx)
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
    """The hypothesis "all normal curvatures are at most 2", on the best-found
    maximum; a maximum that is not finite decides nothing, and raises
    NonFiniteValue."""
    k_top = global_normal_curvature_max(imm, grid, seed=seed)
    if not math.isfinite(k_top):
        raise NonFiniteValue(f"max normal curvature is {k_top!r}; the {claim} bound cannot be gated")
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
    if n >= 5:
        _gate_K(imm, grid, seed, "pointwise")
    top = _zh_top(imm, grid)
    diag, witness = _trace_diagnostics(imm, top.base_fields)
    if n == 2:
        inner = check_2d(imm, grid)
        return replace(inner, name="main",
                       diagnostics={**inner.diagnostics, **diag, "delegated_to": "2d"})
    bound = 3.0 * n / (n + 2)
    diag.update({"max_zh": top.value, "bound": bound, "grid": list(grid.sizes),
                 "refinement": top.refinement})
    return _report(
        "main", margin=top.value - bound, tolerance=1e-8,
        witness=witness or {"theta": top.theta, "values": {"zh": top.value}},
        diagnostics=diag, delta=top.delta,
    )


def check_bow(imm: FourierImmersion, grid: TorusGrid, seed: int = 0) -> CheckReport:
    """|x| <= cos(beta) wherever normal curvatures stay at most 2."""
    _ensure_ball(imm, grid)
    k_top = _gate_K(imm, grid, seed, "bow")
    # origin points satisfy the bound trivially
    low = _refined(imm, grid, lambda f: np.where(f.r < 1e-12, 1.0, f.cos_beta - f.r), "min")
    fields, i = low.fields, low.row
    return _report(
        "bow", margin=low.value, tolerance=1e-8,
        witness={"theta": low.theta,
                 "values": {"r": float(fields.r[i]), "cos_beta": float(fields.cos_beta[i])}},
        diagnostics={"k_max": k_top, "grid": list(grid.sizes), "refinement": low.refinement},
        delta=low.delta,
    )


def check_constant_K(imm: FourierImmersion, seed: int = 0,
                     expected_K: float | None = None) -> CheckReport:
    """Sampled constancy of the normal curvature: the per-point K range of
    the K sweep (exact for n = 2) at 64 seeded points.

    The check is a hard 1e-10 constancy assertion, with both sampled
    extremes within 1e-10 of the expected value of an exact design
    certificate; without one it is skipped, naming the sampled K range."""
    thetas = _philox(seed * 613 + 7).uniform(0.0, 2.0 * math.pi, size=(64, imm.n))
    lows, highs = pointwise._K_range(pointwise._chunk_core(imm, thetas)[2], seed)
    k_min, k_max = float(lows.min()), float(highs.max())
    if expected_K is None:
        raise InapplicableHypothesis(
            f"no design certificate gives an expected K; sampled K ranges over [{k_min!r}, {k_max!r}]")
    deviation = max(abs(k_min - expected_K), abs(k_max - expected_K))
    diagnostics = {"min_K": k_min, "max_K": k_max, "points": int(thetas.shape[0]),
                   "expected_K": float(expected_K), "max_deviation": deviation}
    return _report("constant_k", margin=-(k_max - k_min), tolerance=1e-10,
                   diagnostics=diagnostics, extra_ok=deviation <= 1e-10)


def conjecture_probe(imm: FourierImmersion, grid: TorusGrid) -> CheckReport:
    """Probe of the open pointwise bound: max zh over the grid vs 3n/(n+2).

    A pass means "consistent with the conjectured bound".  A fail does NOT
    refute anything by itself; the report carries the serialized immersion as
    a counterexample candidate for human review."""
    _ensure_ball(imm, grid)
    n = imm.n
    bound = 3.0 * n / (n + 2)
    top = _zh_top(imm, grid)
    margin = top.value - bound
    diagnostics = {"max_zh": top.value, "bound": bound, "grid": list(grid.sizes),
                   "refinement": top.refinement}
    if margin < -1e-9:
        diagnostics["counterexample_candidate"] = immersion_to_obj(imm)
    return _report(
        "conjecture", margin=margin, tolerance=1e-9,
        witness={"theta": top.theta, "values": {"zh": top.value}},
        diagnostics=diagnostics, delta=top.delta,
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
    """Run the selected checks in a fixed order; inapplicable ones are skipped,
    and one whose hypothesis reads a value that is not finite is an error."""
    grid = TorusGrid.default(imm.n) if grid is None else grid
    selected = select_checks(checks)
    if "bow" in selected or ("main" in selected and imm.n >= 5):
        # a check reads the K <= 2 gate: the grid's one field pass sweeps K too
        pointwise.grid_K_estimates(imm, grid, seed)

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
        except (InapplicableHypothesis, NoNonpositiveScalarPoint, NonFiniteValue) as exc:
            status = ("skipped" if isinstance(exc, InapplicableHypothesis)
                      else "error" if isinstance(exc, NonFiniteValue) else "unresolved")
            reports.append(CheckReport(name, passed=None, margin=None, tolerance=None, status=status,
                                       diagnostics={"reason": str(exc), "error": type(exc).__name__}).to_dict())
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
