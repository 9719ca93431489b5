"""Intrinsic curvature from the induced metric, and the radial test-function
machinery feeding the conformal scalar-curvature operator.

Scalar curvature is computed from exact analytic metric jets (no grid
differentiation), with the sign convention Sc(unit round 2-sphere) = +2,
i.e. twice the Gauss curvature in dimension two.  The Laplace-Beltrami
operator appears only through its action on radial composites
u = phi(|x|^2 / 2), evaluated by the chain rule from the metric and the
mean curvature; no discretized elliptic operator is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateMetric, DimensionTooLow, OriginPoint, ZeroMeanCurvature
from .immersion import FourierImmersion, evaluate_jet, jets_at
from .pointwise import _grid_cache, _metric_factor, _scalar_invariants, _second_form, frame_at
from .quadrature import TorusGrid


@dataclass(frozen=True, eq=False)
class MetricJets:
    """Metric with its first and second parameter derivatives at a point."""

    g: np.ndarray     # (n, n)
    dg: np.ndarray    # (n, n, n), dg[k, i, j] = d_k g_ij
    ddg: np.ndarray   # (n, n, n, n), ddg[l, k, i, j] = d_l d_k g_ij


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


def metric_jets(imm: FourierImmersion, theta) -> MetricJets:
    """Exact metric jets at one parameter point."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    _, d1, d2, d3 = jets_at(imm, theta, order=3)
    g, dg, ddg = _metric_jet_arrays(d1, d2, d3)
    return MetricJets(g=g[0], dg=dg[0], ddg=ddg[0])


def _curvature_arrays(g, dg, ddg):
    """Batched Christoffel symbols, scalar curvature, and max |Riemann|."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise DegenerateMetric("induced metric is singular; curvature is undefined") from None
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    gam = 0.5 * (
        np.einsum("pkl,pijl->pkij", ginv, dg, optimize=True)
        + np.einsum("pkl,pjil->pkij", ginv, dg, optimize=True)
        - np.einsum("pkl,plij->pkij", ginv, dg, optimize=True)
    )
    dginv = -np.einsum("pac,pmcd,pdb->pmab", ginv, dg, ginv, optimize=True)
    dgam = 0.5 * (
        np.einsum("pmkl,pijl->pmkij", dginv, dg, optimize=True)
        + np.einsum("pmkl,pjil->pmkij", dginv, dg, optimize=True)
        - np.einsum("pmkl,plij->pmkij", dginv, dg, optimize=True)
        + np.einsum("pkl,pmijl->pmkij", ginv, ddg, optimize=True)
        + np.einsum("pkl,pmjil->pmkij", ginv, ddg, optimize=True)
        - np.einsum("pkl,pmlij->pmkij", ginv, ddg, optimize=True)
    )
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


def scalar_curvature(mj: MetricJets) -> float:
    """Intrinsic scalar curvature (full Riemann trace) at one point."""
    g = mj.g[None]
    _, _, sc, _ = _curvature_arrays(g, mj.dg[None], mj.ddg[None])
    return float(sc[0])


def riemann_max_abs(mj: MetricJets) -> float:
    """Largest |R^a_bcd| component; zero for a flat metric."""
    _, _, _, rmax = _curvature_arrays(mj.g[None], mj.dg[None], mj.ddg[None])
    return float(rmax[0])


def gauss_residual(imm: FourierImmersion, theta) -> float:
    """Intrinsic Sc minus the extrinsic closed form 3/2*|H|^2 - n(n+2)/2*zh.

    Zero (to roundoff) for every immersed manifold; computed through two
    fully independent paths so it is a falsifiable residual.
    """
    return float(gauss_residuals(imm, np.asarray(theta, dtype=float).reshape(1, -1))[0])


def gauss_residuals(imm: FourierImmersion, thetas: np.ndarray) -> np.ndarray:
    """Batched version of gauss_residual over a (P, n) array of points."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    _, d1, d2, d3 = jets_at(imm, thetas, order=3)
    _, _, sc, _ = _curvature_arrays(*_metric_jet_arrays(d1, d2, d3))
    _, L, _ = _metric_factor(d1, thetas)
    _, H2, _, zh, _ = _scalar_invariants(_second_form(L, d1, d2)[1])
    n = imm.n
    return sc - (1.5 * H2 - 0.5 * n * (n + 2) * zh)


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


def _radial_arrays(imm: FourierImmersion, thetas: np.ndarray):
    """Batched jets, Christoffel data, Sc, lap_f and |grad f|^2.

    lap_f and grad_f use the intrinsic formulas (Christoffel symbols and the
    metric inverse applied to derivatives of |f|^2/2), independent of the
    frame-based identities they are checked against.
    """
    value, d1, d2, d3 = jets_at(imm, thetas, order=3)
    g, dg, ddg = _metric_jet_arrays(d1, d2, d3)
    ginv, gam, sc, _ = _curvature_arrays(g, dg, ddg)

    du = np.einsum("pq,piq->pi", value, d1, optimize=True)      # d_i (|f|^2/2)
    hess = g + np.einsum("pq,pijq->pij", value, d2, optimize=True) \
        - np.einsum("pkij,pk->pij", gam, du, optimize=True)
    lap_f = np.einsum("pij,pij->p", ginv, hess)
    grad2 = np.einsum("pij,pi,pj->p", ginv, du, du, optimize=True)
    return value, d1, d2, ginv, gam, sc, lap_f, grad2


def _radial_weight(k: float, r, lap_f, grad2):
    """u = exp(-k r^2 / 2) and its Laplacian by the chain rule."""
    u = np.exp(-0.5 * k * r * r)
    return u, u * (-k * lap_f + k * k * grad2)


def conformal_trace(imm: FourierImmersion, theta, k: float | Fraction) -> ConformalTrace:
    """Full radial-trace record at one point for a given decay rate k.

    beta comes from the orthonormal-frame decomposition of the position
    vector while grad_f_norm comes from the metric inverse, so the identity
    |grad f| = r*sin(beta) is a genuine cross-check of two paths.
    """
    k = float(k)
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    n = imm.n
    value, d1, d2, ginv, gam, sc, lap_f, grad2 = _radial_arrays(imm, theta)
    x = value[0]
    r0 = float(np.linalg.norm(value, axis=1)[0])
    if r0 < 1e-12:
        raise OriginPoint("f(theta) is at the origin; radial angles are undefined")
    u, lap_u = _radial_weight(k, r0, float(lap_f[0]), float(grad2[0]))
    # Mean curvature vector through the same Christoffel data.
    H = np.einsum("ij,ijq->q", ginv[0], d2[0], optimize=True) \
        - np.einsum("ij,kij,kq->q", ginv[0], gam[0], d1[0], optimize=True)
    normH = float(np.linalg.norm(H))
    if normH < 1e-12:
        alpha = None
    else:
        alpha = float(math.acos(np.clip(float(H @ x) / (normH * r0), -1.0, 1.0)))
    E = frame_at(evaluate_jet(imm, theta[0], order=1)).E
    tangential = float(np.linalg.norm(E @ x))
    beta = math.asin(min(tangential / r0, 1.0))
    grad_norm = math.sqrt(max(float(grad2[0]), 0.0))
    conformal = None
    if n >= 3:
        conformal = float(sc[0] * u - 4.0 * (n - 1) / (n - 2) * lap_u)
    return ConformalTrace(
        r=r0, alpha=alpha, beta=beta, u=float(u),
        lap_f=float(lap_f[0]), grad_f_norm=grad_norm,
        lap_u=float(lap_u), sc=float(sc[0]),
        conformal_value=conformal, k=k,
    )


def _intrinsic_grid(imm: FourierImmersion, grid: TorusGrid) -> dict[str, np.ndarray]:
    """The one third-order pass over a grid: r, Sc, lap_f and |grad f|^2,
    memoized per (immersion, sizes)."""
    per_imm = _grid_cache.setdefault(imm, {})
    key = ("intrinsic", grid.sizes)
    if key not in per_imm:
        P = grid.npoints
        out = {name: np.empty(P) for name in ("r", "sc", "lap_f", "grad2")}
        for start, thetas in grid.iter_points(512):
            stop = start + thetas.shape[0]
            value, _, _, _, _, sc, lap_f, grad2 = _radial_arrays(imm, thetas)
            out["r"][start:stop] = np.linalg.norm(value, axis=1)
            out["sc"][start:stop] = sc
            out["lap_f"][start:stop] = lap_f
            out["grad2"][start:stop] = grad2
        per_imm[key] = out
    return per_imm[key]


def curvature_grid(imm: FourierImmersion, grid: TorusGrid) -> np.ndarray:
    """Intrinsic scalar curvature at every grid point (flat C order), memoized."""
    return _intrinsic_grid(imm, grid)["sc"]


def conformal_grid(imm: FourierImmersion, grid: TorusGrid, k: float | Fraction) -> dict[str, np.ndarray]:
    """Arrays 'conformal' (Sc*u - 4(n-1)/(n-2)*lap u), 'sc', 'lap_f',
    'grad2', 'u' and 'r' over a grid, for n >= 3."""
    n = imm.n
    if n < 3:
        raise DimensionTooLow(f"conformal operator needs n >= 3, got n={n}")
    base = _intrinsic_grid(imm, grid)
    u, lap_u = _radial_weight(float(k), base["r"], base["lap_f"], base["grad2"])
    return dict(base, conformal=base["sc"] * u - 4.0 * (n - 1) / (n - 2) * lap_u, u=u)
