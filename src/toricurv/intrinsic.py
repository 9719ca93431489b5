"""Intrinsic curvature from the induced metric, and the radial test-function
machinery feeding the conformal scalar-curvature operator.

Scalar curvature is computed from exact analytic metric jets (no grid
differentiation), with the sign convention Sc(unit round 2-sphere) = +2,
i.e. twice the Gauss curvature in dimension two.  The Laplace-Beltrami
operator appears only through its action on radial composites
u = phi(|x|^2 / 2), evaluated by the chain rule from the metric and the
mean curvature; no discretized elliptic operator is involved.

The third-order (Christoffel) path is the independent check of the closed
forms: _christoffel runs it on a batch of points for gauss_residuals,
conformal_trace and curvature_grid, while conformal_grid reads the closed
forms from the cached second-order fields.  The two paths share only the
metric factor L of pointwise._metric_factor (g^-1 = L'L), and with it the one
degeneracy rule, which names the point theta; the Christoffel path builds
everything else from dg and ddg, the closed forms from the normal projection
of d2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionTooLow, OriginPoint, ZeroMeanCurvature
from .immersion import FourierImmersion, jets_at
from .pointwise import _metric_factor, _scalar_invariants, _second_form, grid_fields
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
    """Batched g^-1 = L'L, Christoffel symbols, scalar curvature and max
    |Riemann| from the metric factor L of _metric_factor and the metric's
    derivatives.

    L is all this path shares with the closed forms.  Gamma^k_ij = g^kl
    Gamma_l,ij comes from the lowered symbols Gamma_l,ij = 1/2 (d_i g_jl +
    d_j g_il - d_l g_ij), and d_m Gamma^k_ij = g^kl (d_m Gamma_l,ij -
    d_m g_lb Gamma^b_ij), since d_m g^kl = -g^ka d_m g_ab g^bl.
    """
    P, n = L.shape[:2]
    ginv = L.transpose(0, 2, 1) @ L
    low = 0.5 * (dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg)
    gam = (ginv @ low.reshape(P, n, n * n)).reshape(P, n, n, n)
    dlow = 0.5 * (ddg.transpose(0, 1, 4, 2, 3) + ddg.transpose(0, 1, 4, 3, 2) - ddg)
    shift = (dg.reshape(P, n * n, n) @ gam.reshape(P, n, n * n)).reshape(P, n, n, n * n)
    dgam = (ginv[:, None] @ (dlow.reshape(P, n, n, n * n) - shift)).reshape(P, n, n, n, n)
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    #             + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    gamgam = np.einsum("pace,pedb->pabcd", gam, gam, optimize=True)
    riem = (
        np.einsum("pcadb->pabcd", dgam)
        - np.einsum("pdacb->pabcd", dgam)
        + gamgam
        - gamgam.transpose(0, 1, 2, 4, 3)
    )
    ricci = np.einsum("pabad->pbd", riem)
    sc = np.einsum("pbd,pbd->p", ginv, ricci)
    return ginv, gam, sc, np.max(np.abs(riem), axis=(1, 2, 3, 4))


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
    ginv: np.ndarray      # (P, n, n)
    gam: np.ndarray       # (P, n, n, n), gam[p, k, i, j] = Gamma^k_ij
    sc: np.ndarray        # (P,) scalar curvature
    riem_max: np.ndarray  # (P,) largest |R^a_bcd|, zero for a flat metric


def _christoffel(imm: FourierImmersion, thetas: np.ndarray) -> _Christoffel:
    """Third-order jets -> metric jets -> metric factor (which raises
    DegenerateMetric naming theta) -> Christoffel symbols and curvature."""
    value, d1, d2, d3 = jets_at(imm, thetas, order=3)
    g, dg, ddg = _metric_jet_arrays(d1, d2, d3)
    L, _ = _metric_factor(g, thetas)
    return _Christoffel(value, d1, d2, g, dg, ddg, L, *_curvature_arrays(L, dg, ddg))


def gauss_residuals(imm: FourierImmersion, thetas: np.ndarray) -> np.ndarray:
    """Intrinsic Sc minus the extrinsic closed form 3/2*|H|^2 - n(n+2)/2*zh
    over a (P, n) array of points.

    Zero (to roundoff) for every immersed manifold; computed through two
    fully independent paths so it is a falsifiable residual.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    path = _christoffel(imm, thetas)
    _, H2, _, zh, _ = _scalar_invariants(_second_form(path.L, path.d1, path.d2)[1])
    n = imm.n
    return path.sc - (1.5 * H2 - 0.5 * n * (n + 2) * zh)


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
    value, d1, d2, g, _, _, L, ginv, gam, sc, _ = _christoffel(imm, theta)
    x = value[0]
    r0 = float(np.linalg.norm(value, axis=1)[0])
    if r0 < 1e-12:
        raise OriginPoint("f(theta) is at the origin; radial angles are undefined")
    du = np.einsum("pq,piq->pi", value, d1, optimize=True)      # d_i (|f|^2/2)
    hess = g + np.einsum("pq,pijq->pij", value, d2, optimize=True) \
        - np.einsum("pkij,pk->pij", gam, du, optimize=True)
    lap_f = float(np.einsum("pij,pij->p", ginv, hess)[0])
    grad2 = float(np.einsum("pij,pi,pj->p", ginv, du, du, optimize=True)[0])
    u, lap_u = _radial_weight(k, r0, lap_f, grad2)
    # Mean curvature vector through the same Christoffel data.
    H = np.einsum("ij,ijq->q", ginv[0], d2[0], optimize=True) \
        - np.einsum("ij,kij,kq->q", ginv[0], gam[0], d1[0], optimize=True)
    normH = float(np.linalg.norm(H))
    if normH < 1e-12:
        alpha = None
    else:
        alpha = float(math.acos(np.clip(float(H @ x) / (normH * r0), -1.0, 1.0)))
    E = L[0] @ d1[0]
    tangential = float(np.linalg.norm(E @ x))
    beta = math.asin(min(tangential / r0, 1.0))
    conformal = None
    if n >= 3:
        conformal = float(sc[0] * u - 4.0 * (n - 1) / (n - 2) * lap_u)
    return ConformalTrace(
        r=r0, alpha=alpha, beta=beta, u=float(u),
        lap_f=lap_f, grad_f_norm=math.sqrt(max(grad2, 0.0)),
        lap_u=float(lap_u), sc=float(sc[0]),
        conformal_value=conformal, k=k,
    )


def curvature_grid(imm: FourierImmersion, grid: TorusGrid) -> np.ndarray:
    """Intrinsic scalar curvature at every grid point (flat C order), from
    third-order jets and Christoffel symbols: the independent path that
    analyze reports next to the closed form."""
    sc = np.empty(grid.npoints)
    for start, thetas in grid.iter_points(512):
        sc[start:start + thetas.shape[0]] = _christoffel(imm, thetas).sc
    return sc


def conformal_grid(imm: FourierImmersion, grid: TorusGrid, k: float | Fraction) -> dict[str, np.ndarray]:
    """Arrays 'conformal' (Sc*u - 4(n-1)/(n-2)*lap u), 'sc', 'lap_f',
    'grad2', 'u' and 'r' over a grid, for n >= 3.

    Every term is a closed form of the cached second-order fields: the Gauss
    equation Sc = |H|^2 - |II|^2, lap_f = n + <H, x> and |grad f| = r*sin(beta)
    (0 at the origin, where beta is undefined)."""
    n = imm.n
    if n < 3:
        raise DimensionTooLow(f"conformal operator needs n >= 3, got n={n}")
    fields = grid_fields(imm, grid)
    r = fields.r
    lap_f = n + fields.hx
    grad2 = np.where(r < 1e-12, 0.0, (r * fields.sin_beta) ** 2)
    u, lap_u = _radial_weight(float(k), r, lap_f, grad2)
    return {"conformal": fields.sc_ext * u - 4.0 * (n - 1) / (n - 2) * lap_u,
            "sc": fields.sc_ext, "lap_f": lap_f, "grad2": grad2, "u": u, "r": r}
