"""Intrinsic curvature from the induced metric, and the radial test-function
machinery feeding the conformal scalar-curvature operator.

Scalar curvature is computed from exact analytic metric jets (no grid
differentiation), with the sign convention Sc(unit round 2-sphere) = +2,
i.e. twice the Gauss curvature in dimension two.  The Laplace-Beltrami
operator appears only through its action on radial composites
u = phi(|x|^2 / 2), evaluated by the chain rule from the metric and the
mean curvature; no discretized elliptic operator is involved.

The third-order (Christoffel) path is the independent check of the closed
forms: _christoffel runs it on a batch of points for gauss_residuals and
conformal_trace, and as the per-chunk kernel of analysis_grid, analyze's
one grid pass, whose every row (the second-order fields, Sc, the K range
and lambda_min(g)) comes from that call.  The pass keeps its results to
itself, in the grid cache under its own key; curvature_grid is its Sc.
conformal_grid reads the closed forms from the second-order fields it is
given (verify passes the grid's own pass, which _refined runs first).  The two paths share only the metric factor L of
pointwise._metric_factor (g^-1 = L'L), and with it the one degeneracy rule,
which names the point theta; the Christoffel path builds Sc as the g^-1
trace of the Ricci tensor from dg and ddg, with no Riemann tensor formed,
the closed forms from the normal projection of d2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLow, OriginPoint, ZeroMeanCurvature
from .forked import grid_pass
from .immersion import FourierImmersion, _metric_eigenvalues, jets_at
from .pointwise import (
    _FIELD_NAMES,
    GridFields,
    _field_columns,
    _K_range,
    _memo,
    _metric_factor,
    _sc_from_zh,
    _scalar_invariants,
    _second_form,
)
from .quadrature import TorusGrid


def _metric_jet_arrays(d1, d2, d3):
    """Batched g, dg, ddg from immersion jets via the product rule.

    Contractions are phrased as batched matrix products over flattened
    derivative axes; naive einsum loops dominate large grids otherwise.
    """
    P, n, q = d1.shape
    d1t = d1.transpose(0, 2, 1)
    g = d1 @ d1t
    half = (d2.reshape(P, n * n, q) @ d1t).reshape(P, n, n, n)   # <f_ki, f_j>
    dg = half + half.transpose(0, 1, 3, 2)
    dd = (d3.reshape(P, n ** 3, q) @ d1t).reshape(P, n, n, n, n)  # <f_lki, f_j>
    flat2 = d2.reshape(P, n * n, q)
    cross = (flat2 @ flat2.transpose(0, 2, 1)).reshape(P, n, n, n, n)  # axes (k,i,l,j)
    cross = cross.transpose(0, 3, 1, 2, 4)                       # -> <f_ki, f_lj> at (l,k,i,j)
    ddg = dd + dd.transpose(0, 1, 2, 4, 3) + cross + cross.transpose(0, 2, 1, 3, 4)
    return g, dg, ddg


def _curvature_arrays(L, dg, ddg):
    """Batched g^-1 = L'L, Christoffel symbols, Ricci tensor and scalar
    curvature from the metric factor L of _metric_factor and the metric's
    derivatives.

    L is all this path shares with the closed forms.  Gamma^k_ij = g^kl
    Gamma_l,ij comes from the lowered symbols Gamma_l,ij = 1/2 (d_i g_jl +
    d_j g_il - d_l g_ij), and d_m Gamma^k_ij = g^kl X_ml,ij with X_ml,ij =
    d_m Gamma_l,ij - d_m g_lb Gamma^b_ij, since d_m g^kl = -g^ka d_m g_ab g^bl.
    Ric_db = d_a Gamma^a_db - d_d Gamma^a_ab + Gamma^a_ae Gamma^e_db
    - Gamma^a_de Gamma^e_ab, the trace R^a_bad of the Riemann tensor, reads
    only the two traces of d Gamma it needs, each one contraction of X with
    g^-1, and Sc = g^db Ric_db.
    """
    P, n = L.shape[:2]
    ginv = L.transpose(0, 2, 1) @ L
    low = 0.5 * (dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg)
    gam = (ginv @ low.reshape(P, n, n * n)).reshape(P, n, n, n)
    dlow = 0.5 * (ddg.transpose(0, 1, 4, 2, 3) + ddg.transpose(0, 1, 4, 3, 2) - ddg)
    shift = (dg.reshape(P, n * n, n) @ gam.reshape(P, n, n * n)).reshape(P, n, n, n, n)
    X = dlow - shift                                     # X[p, m, l, i, j]
    # d_a Gamma^a_db = g^al X_al,db and d_d Gamma^a_ab = g^al X_dl,ab
    div = (ginv.reshape(P, 1, n * n) @ X.reshape(P, n * n, n * n)).reshape(P, n, n)
    grad = (ginv.transpose(0, 2, 1).reshape(P, 1, 1, n * n) @ X.reshape(P, n, n * n, n))[:, :, 0]
    trace = np.einsum("paae->pe", gam)                   # Gamma^a_ae
    G = gam.transpose(0, 2, 1, 3).copy()                 # G[p, d, a, e] = Gamma^a_de
    ricci = (div - grad + (trace[:, None] @ gam.reshape(P, n, n * n)).reshape(P, n, n)
             - G.reshape(P, n, n * n) @ G.reshape(P, n * n, n))
    return ginv, gam, ricci, np.einsum("pdb,pdb->p", ginv, ricci)


class _Christoffel(NamedTuple):
    """The third-order path at a (P, n) batch of points: jets, metric jets,
    the metric factor L, and what _curvature_arrays derives from them."""

    value: np.ndarray     # (P, q)
    d1: np.ndarray        # (P, n, q)
    d2: np.ndarray        # (P, n, n, q)
    g: np.ndarray         # (P, n, n)
    dg: np.ndarray        # (P, n, n, n), dg[p, k, i, j] = d_k g_ij
    ddg: np.ndarray       # (P, n, n, n, n), ddg[p, l, k, i, j] = d_l d_k g_ij
    L: np.ndarray         # (P, n, n), L g L' = I
    sqrt_det: np.ndarray  # (P,) sqrt(det g)
    ginv: np.ndarray      # (P, n, n)
    gam: np.ndarray       # (P, n, n, n), gam[p, k, i, j] = Gamma^k_ij
    ricci: np.ndarray     # (P, n, n), ricci[p, d, b] = Ric_db
    sc: np.ndarray        # (P,) scalar curvature


def _christoffel(imm: FourierImmersion, thetas: np.ndarray) -> _Christoffel:
    """Third-order jets -> metric jets -> metric factor (which raises
    DegenerateMetric naming theta) -> Christoffel symbols and curvature."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, d1, d2, d3 = jets_at(imm, thetas, order=3)
        g, dg, ddg = _metric_jet_arrays(d1, d2, d3)
        L, sqrt_det = _metric_factor(g, thetas)
        return _Christoffel(value, d1, d2, g, dg, ddg, L, sqrt_det, *_curvature_arrays(L, dg, ddg))


def gauss_residuals(imm: FourierImmersion, thetas: np.ndarray) -> np.ndarray:
    """Intrinsic Sc minus the extrinsic closed form 3/2*|H|^2 - n(n+2)/2*zh
    over a (P, n) array of points.

    Zero (to roundoff) for every immersed manifold; computed through two
    fully independent paths so it is a falsifiable residual.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    path = _christoffel(imm, thetas)
    _, H2, _, zh, _ = _scalar_invariants(_second_form(path.L, path.d1, path.d2)[1])
    return path.sc - _sc_from_zh(H2, zh, imm.n)


def conformal_rate(n: int) -> Fraction:
    """Decay rate k of the radial weight exp(-k|x|^2/2), as an exact rational.

    Chosen so that 4*(n-1)/(n-2)*k equals 3n, which balances the inequality
    chain driven by the conformal operator; requires n >= 3.
    """
    if n < 3:
        raise DimensionTooLow(f"conformal rate needs n >= 3, got n={n}")
    return Fraction(3, 4) * Fraction(n - 2, n - 1) * n


@dataclass(frozen=True, eq=False)
class ConformalTrace:
    """Radial test-function data at one point.

    alpha is None when H = 0 (the angle to the position vector is undefined);
    conformal_value is None when n < 3.  Use the require_* accessors to get
    the corresponding typed errors.
    """

    r: float
    alpha: float | None       # angle(H, x) in [0, pi]
    beta: float               # angle between x and the normal space, in [0, pi/2]
    u: float                  # exp(-k/2 * r^2)
    lap_f: float              # Laplace-Beltrami of |x|^2/2, via Christoffel symbols
    grad_f_norm: float        # |grad of |x|^2/2|, via the metric inverse
    lap_u: float
    sc: float
    conformal_value: float | None
    k: float

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise ZeroMeanCurvature("H = 0 here, so the angle to the position vector is undefined")
        return self.alpha

    def require_conformal(self) -> float:
        if self.conformal_value is None:
            raise DimensionTooLow("conformal operator needs n >= 3")
        return self.conformal_value


def _radial_weight(k: float, r, lap_f, grad2):
    """u = exp(-k r^2 / 2) and its Laplacian by the chain rule."""
    u = np.exp(-0.5 * k * r * r)
    return u, u * (-k * lap_f + k * k * grad2)


def conformal_trace(imm: FourierImmersion, theta, k: float | Fraction) -> ConformalTrace:
    """Full radial-trace record at one point for a given decay rate k.

    Sc, lap_f and grad_f_norm come from the intrinsic formulas (Christoffel
    symbols and the metric inverse applied to derivatives of |f|^2/2), while
    beta comes from the orthonormal-frame decomposition of the position
    vector, so the identities lap_f = n + <H, x> and |grad f| = r*sin(beta)
    are genuine cross-checks of two paths.
    """
    k = float(k)
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    n = imm.n
    path = _christoffel(imm, theta)
    x = path.value[0]
    r0 = float(np.linalg.norm(path.value, axis=1)[0])
    if r0 < 1e-12:
        raise OriginPoint("f(theta) is at the origin; radial angles are undefined")
    du = np.einsum("pq,piq->pi", path.value, path.d1, optimize=True)      # d_i (|f|^2/2)
    hess = path.g + np.einsum("pq,pijq->pij", path.value, path.d2, optimize=True) \
        - np.einsum("pkij,pk->pij", path.gam, du, optimize=True)
    lap_f = float(np.einsum("pij,pij->p", path.ginv, hess)[0])
    grad2 = float(np.einsum("pij,pi,pj->p", path.ginv, du, du, optimize=True)[0])
    u, lap_u = _radial_weight(k, r0, lap_f, grad2)
    # Mean curvature vector through the same Christoffel data.
    ginv, gam, d1 = path.ginv[0], path.gam[0], path.d1[0]
    H = np.einsum("ij,ijq->q", ginv, path.d2[0], optimize=True) \
        - np.einsum("ij,kij,kq->q", ginv, gam, d1, optimize=True)
    normH = float(np.linalg.norm(H))
    if normH < 1e-12:
        alpha = None
    else:
        alpha = float(math.acos(np.clip(float(H @ x) / (normH * r0), -1.0, 1.0)))
    E = path.L[0] @ d1
    tangential = float(np.linalg.norm(E @ x))
    beta = math.asin(min(tangential / r0, 1.0))
    sc = float(path.sc[0])
    conformal = None
    if n >= 3:
        conformal = float(sc * u - 4.0 * (n - 1) / (n - 2) * lap_u)
    return ConformalTrace(
        r=r0, alpha=alpha, beta=beta, u=float(u),
        lap_f=lap_f, grad_f_norm=math.sqrt(max(grad2, 0.0)),
        lap_u=float(lap_u), sc=sc,
        conformal_value=conformal, k=k,
    )


class AnalysisGrid(NamedTuple):
    """What analyze tabulates over a grid, from analysis_grid's one pass."""

    fields: GridFields
    sc: np.ndarray             # intrinsic scalar curvature (Christoffel path)
    k_min: np.ndarray          # grid_K_estimates' per-point range
    k_max: np.ndarray
    min_singular_value: float  # sqrt(max(min lambda_min(g), 0)), NaN if any metric is not finite


def analysis_grid(imm: FourierImmersion, grid: TorusGrid, seed: int) -> AnalysisGrid:
    """GridFields, intrinsic Sc, grid_K_estimates' K range and the smallest
    singular value of the differential over every grid point, from one
    _christoffel call per chunk (which raises DegenerateMetric, naming theta),
    memoized per (immersion, sizes, seed).  lambda_min(g) is solved only where
    _metric_eigenvalues' bracket, with L's bound, says it can be the minimum."""
    return _memo(imm, ("analysis", grid.sizes, seed), lambda: _analysis_pass(imm, grid, seed))


def _analysis_pass(imm: FourierImmersion, grid: TorusGrid, seed: int) -> AnalysisGrid:
    def kernel(thetas):
        path = _christoffel(imm, thetas)
        E, S = _second_form(path.L, path.d1, path.d2)
        return (*_field_columns(path.value, E, S, path.sqrt_det), path.sc, *_K_range(S, seed),
                _metric_eigenvalues(path.g, path.L))

    *fields, sc, k_min, k_max, eigenvalues = grid_pass(grid, len(_FIELD_NAMES) + 4, kernel, "analysis pass")
    return AnalysisGrid(GridFields(grid=grid, **dict(zip(_FIELD_NAMES, fields))), sc, k_min, k_max,
                        float(np.sqrt(np.maximum(eigenvalues.min(), 0.0))))


def curvature_grid(imm: FourierImmersion, grid: TorusGrid) -> np.ndarray:
    """Intrinsic scalar curvature at every grid point (flat C order), from
    third-order jets and Christoffel symbols: the independent path that
    analyze reports next to the closed form, read from analysis_grid's pass
    at seed 0."""
    return analysis_grid(imm, grid, 0).sc


def conformal_grid(fields: GridFields, k: float | Fraction) -> dict[str, np.ndarray]:
    """Arrays 'conformal' (Sc*u - 4(n-1)/(n-2)*lap u), 'sc', 'lap_f',
    'grad2', 'u' and 'r' over the fields' grid, for n >= 3.

    Every term is a closed form of the given second-order fields: the Gauss
    equation Sc = |H|^2 - |II|^2, lap_f = n + <H, x> and |grad f| = r*sin(beta)
    (0 at the origin, where beta is undefined)."""
    n = fields.grid.n
    if n < 3:
        raise DimensionTooLow(f"conformal operator needs n >= 3, got n={n}")
    r = fields.r
    lap_f = n + fields.hx
    grad2 = np.where(r < 1e-12, 0.0, (r * fields.sin_beta) ** 2)
    u, lap_u = _radial_weight(float(k), r, lap_f, grad2)
    return {"conformal": fields.sc_ext * u - 4.0 * (n - 1) / (n - 2) * lap_u,
            "sc": fields.sc_ext, "lap_f": lap_f, "grad2": grad2, "u": u, "r": r}
