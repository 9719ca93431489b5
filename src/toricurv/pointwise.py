"""Induced metric, second fundamental form, and pointwise curvature invariants.

The orthonormal tangent frame comes from the inverse Cholesky factor of the
induced metric, which is deterministic and reproducible.  Normal components
are always taken by projecting out the tangent frame; no basis of the normal
space is ever materialized, so every invariant here (H, zh, |II|, extrinsic
scalar curvature) is independent of any normal-basis choice.

Conventions: H is the unnormalized trace of II over an orthonormal frame, and
zh (zhe) is the average of the squared normal curvature K(u)^2 = |II(u,u)|^2
over unit tangent directions, with closed form (2*|II|_F^2 + |H|^2)/(n(n+2)).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateMetric, NotNormal, NotUnit
from .immersion import FourierImmersion, Jet, jets_at
from .quadrature import TorusGrid, _philox

_DEGENERATE_EIG = 1e-12


@dataclass(frozen=True, eq=False)
class MetricPoint:
    """Induced metric data at one point: g, its inverse, and L with L g L' = I."""

    g: np.ndarray        # (n, n)
    g_inv: np.ndarray    # (n, n)
    L: np.ndarray        # (n, n) lower triangular, inverse of the Cholesky factor
    sqrt_det: float


@dataclass(frozen=True, eq=False)
class TangentNormalFrame:
    """Orthonormal tangent frame rows e_i; the normal projector is I - E'E."""

    E: np.ndarray        # (n, q)

    def project_normal(self, v: np.ndarray) -> np.ndarray:
        """Component of an ambient vector orthogonal to the tangent space."""
        v = np.asarray(v, dtype=float)
        return v - self.E.T @ (self.E @ v)


@dataclass(frozen=True, eq=False)
class SecondForm:
    """Vector-valued second fundamental form in an orthonormal tangent frame."""

    S: np.ndarray                  # (n, n, q), S[i, j] = II(e_i, e_j)
    frame: TangentNormalFrame

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class PointInvariants:
    """All pointwise extrinsic invariants in one bundle."""

    H: np.ndarray       # mean curvature vector (q,)
    H2: float           # |H|^2
    II2: float          # Frobenius norm squared of II
    zh: float           # mean of K(u)^2 over unit directions
    sc_ext: float       # scalar curvature from the extrinsic closed form
    K_min: float
    K_max: float
    r: float            # |f(theta)|


# ---------------------------------------------------------------------------
# The batched kernel: every metric factor and every II in the package comes
# from _metric_factor and _second_form, with P = 1 for single points.
# ---------------------------------------------------------------------------

def _metric_factor(d1: np.ndarray, thetas: np.ndarray | None):
    """Metric g = d1 d1', its inverse Cholesky factor L (L g L' = I) and
    sqrt(det g) for a (P, n, q) batch of first derivatives.

    The metric is degenerate where its smallest eigenvalue is below
    _DEGENERATE_EIG.  Since lambda_min >= 1/|L|_F^2 at each point, a batch
    whose squared factor norms sum to at most 1/_DEGENERATE_EIG is certified
    without an eigensolve; otherwise eigvalsh decides, and DegenerateMetric
    names the offending theta.  Non-finite input is not degenerate: it flows
    through for the checks to report.
    """
    g = d1 @ d1.transpose(0, 2, 1)
    try:
        C = np.linalg.cholesky(g)
        L = np.linalg.solve(C, np.broadcast_to(np.eye(g.shape[1]), g.shape).copy())
        certified = float(np.vdot(L, L)) <= 1.0 / _DEGENERATE_EIG
    except np.linalg.LinAlgError:
        C = None
        certified = False
    if not certified:
        eigs = np.linalg.eigvalsh(g)[:, 0]
        bad = np.flatnonzero(eigs < _DEGENERATE_EIG)
        if bad.size or C is None:
            i = int(bad[0]) if bad.size else int(np.nanargmin(eigs))
            where = "" if thetas is None else f" at theta={thetas[i].tolist()}"
            raise DegenerateMetric(f"metric eigenvalue {eigs[i]:.3e} < {_DEGENERATE_EIG}{where}")
    return g, L, np.prod(np.einsum("pii->pi", C), axis=1)


def _second_form(L: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """Tangent frame E = L d1 and II in that frame, S_ij = P_N(sum_ab L_ia L_jb d2_ab),
    exactly symmetric in (i, j), for a batch of P points."""
    P, n, q = d1.shape
    E = L @ d1
    # raw_ij = sum_ab L_ia L_jb d2_ab, as two batched matmuls over flattened axes
    t1 = (L @ d2.reshape(P, n, n * q)).reshape(P, n, n, q)
    raw = (L @ t1.transpose(0, 2, 1, 3).reshape(P, n, n * q)) \
        .reshape(P, n, n, q).transpose(0, 2, 1, 3)
    tang = raw.reshape(P, n * n, q) @ E.transpose(0, 2, 1)
    S = raw - (tang @ E).reshape(P, n, n, q)
    return E, 0.5 * (S + S.transpose(0, 2, 1, 3))


def _scalar_invariants(S: np.ndarray):
    """H, |H|^2, |II|^2, zh and the extrinsic scalar curvature |H|^2 - |II|^2
    of a (P, n, n, q) batch of second forms."""
    n = S.shape[1]
    H = np.einsum("piiq->pq", S)
    H2 = np.einsum("pq,pq->p", H, H)
    II2 = np.einsum("pijq,pijq->p", S, S, optimize=True)
    return H, H2, II2, (2.0 * II2 + H2) / (n * (n + 2)), H2 - II2


def metric_at(jet: Jet) -> MetricPoint:
    """Induced metric and its factorizations from an order >= 1 jet."""
    if jet.d1 is None:
        raise ValueError("metric_at needs a jet of order >= 1")
    theta = None if jet.theta is None else jet.theta[None]
    g, L, sqrt_det = _metric_factor(jet.d1[None], theta)
    return MetricPoint(g=g[0], g_inv=L[0].T @ L[0], L=L[0], sqrt_det=float(sqrt_det[0]))


def frame_at(jet: Jet, metric: MetricPoint | None = None) -> TangentNormalFrame:
    """Orthonormal tangent frame e_i = sum_a L_ia * df_a."""
    metric = metric_at(jet) if metric is None else metric
    return TangentNormalFrame(E=metric.L @ jet.d1)


def second_form_at(jet: Jet, metric: MetricPoint | None = None,
                   frame: TangentNormalFrame | None = None) -> SecondForm:
    """Second fundamental form S_ij = P_N(sum_ab L_ia L_jb d2f_ab).

    An explicit frame may be supplied (e.g. a rotated one) to exercise frame
    independence; it must be orthonormal and span the same tangent space.
    The result is then R S R' with the rotation R = F E' between the frames.
    """
    if jet.d2 is None:
        raise ValueError("second_form_at needs a jet of order >= 2")
    metric = metric_at(jet) if metric is None else metric
    E, S = _second_form(metric.L[None], jet.d1[None], jet.d2[None])
    E, S = E[0], S[0]
    if frame is None:
        return SecondForm(S=S, frame=TangentNormalFrame(E=E))
    R = frame.E @ E.T
    S = np.einsum("ia,jb,abq->ijq", R, R, S)
    return SecondForm(S=0.5 * (S + S.transpose(1, 0, 2)), frame=frame)


def mean_curvature(S: SecondForm) -> np.ndarray:
    """Unnormalized mean curvature vector H = sum_i II(e_i, e_i)."""
    return np.einsum("iiq->q", S.S)


def zh_at(S: SecondForm) -> float:
    """Closed form of the sphere average of |II(u,u)|^2."""
    return float(_scalar_invariants(S.S[None])[3][0])


def normal_curvature(S: SecondForm, u) -> float:
    """K(u) = |II(u, u)| for a unit direction in frame coordinates."""
    u = np.asarray(u, dtype=float)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-10:
        raise NotUnit(f"|u| = {nrm!r} deviates from 1 beyond 1e-10")
    v = np.einsum("i,j,ijq->q", u, u, S.S)
    return float(np.linalg.norm(v))


def second_form_inner(S: SecondForm, x, y, v, w) -> float:
    """Four-argument curvature pairing <II(x,y), II(v,w)> by bilinear extension."""
    x, y, v, w = (np.asarray(t, dtype=float) for t in (x, y, v, w))
    left = np.einsum("i,j,ijq->q", x, y, S.S)
    right = np.einsum("i,j,ijq->q", v, w, S.S)
    return float(left @ right)


def principal_values(S: SecondForm, nu) -> np.ndarray:
    """Eigenvalues (ascending) of the scalar form <II, nu> for a unit normal nu."""
    nu = np.asarray(nu, dtype=float)
    nrm = float(np.linalg.norm(nu))
    if abs(nrm - 1.0) > 1e-8:
        raise NotUnit(f"|nu| = {nrm!r} deviates from 1 beyond 1e-8")
    tangential = float(np.max(np.abs(S.frame.E @ nu)))
    if tangential > 1e-8:
        raise NotNormal(f"nu has tangential component {tangential:.3e} > 1e-8")
    A = np.einsum("ijq,q->ij", S.S, nu)
    return np.linalg.eigvalsh(A)


@dataclass(frozen=True)
class ExtremalCurvature:
    k_min: float
    k_max: float
    u_min: np.ndarray
    u_max: np.ndarray
    diagnostics: dict


def _quartic(S: np.ndarray, u: np.ndarray) -> float:
    v = np.einsum("i,j,ijq->q", u, u, S)
    return float(v @ v)


def _quartic_grad(S: np.ndarray, u: np.ndarray) -> np.ndarray:
    v = np.einsum("i,j,ijq->q", u, u, S)
    return 4.0 * np.einsum("ijq,q,j->i", S, v, u)


def _sphere_extremize(S: np.ndarray, u0: np.ndarray, sign: float,
                      max_iter: int = 400) -> tuple[np.ndarray, float]:
    """Curvilinear projected-gradient search for an extremum of |II(u,u)|^2."""
    u = u0 / np.linalg.norm(u0)
    f = _quartic(S, u)
    step = 0.25
    for _ in range(max_iter):
        grad = sign * _quartic_grad(S, u)
        tangent = grad - (grad @ u) * u
        gn = float(np.linalg.norm(tangent))
        if gn < 1e-14:
            break
        moved = False
        while step > 1e-12:
            v = u + step * tangent
            v /= np.linalg.norm(v)
            fv = _quartic(S, v)
            if sign * (fv - f) > 0.0:
                u, f = v, fv
                step = min(step * 2.0, 1.0)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return u, f


def _directions(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic direction set: coordinate axes, the diagonal, then
    count - n - 1 seeded unit draws (never fewer than the n + 1 fixed rows)."""
    fixed = np.vstack([np.eye(n), np.ones((1, n)) / math.sqrt(n)])
    extra = count - n - 1
    if extra <= 0:
        return fixed
    z = _philox(seed).standard_normal((extra, n))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return np.vstack([fixed, z])


def _half_circle(count: int) -> np.ndarray:
    """count equispaced unit directions in the plane; u and -u give the same K."""
    ang = np.linspace(0.0, math.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _k2_sweep(D: np.ndarray, S: np.ndarray) -> np.ndarray:
    """K(u)^2 = |II(u, u)|^2 for every row u of D at every point of a
    (P, n, n, q) batch, as a (P, len(D)) array."""
    vals = np.einsum("da,db,pabq->pdq", D, D, S, optimize=True)
    return np.einsum("pdq,pdq->pd", vals, vals)


def extremal_normal_curvature(S: SecondForm, starts: int | None = None,
                              seed: int = 0) -> ExtremalCurvature:
    """Best-found extremes of the normal curvature over unit directions.

    Multi-start projected-gradient extremization of |II(u,u)|^2; for n = 2 an
    exhaustive 4096-angle scan serves as a floor the returned values may never
    be worse than.  Deterministic for a fixed (starts, seed).
    """
    n = S.n
    starts = 16 * n if starts is None else int(starts)
    if starts < 1:
        raise ValueError("starts must be >= 1")
    Sarr = S.S
    # best[sign]: best-found (|II(u,u)|^2, u) for maximizing sign * |II(u,u)|^2
    best = {+1.0: (-math.inf, np.eye(n)[0]), -1.0: (math.inf, np.eye(n)[0])}
    diag = {"starts": starts, "seed": seed}
    if n == 2:
        dirs = _half_circle(4096)
        f = _k2_sweep(dirs, Sarr[None])[0]
        i_max, i_min = int(np.argmax(f)), int(np.argmin(f))
        best = {+1.0: (float(f[i_max]), dirs[i_max]), -1.0: (float(f[i_min]), dirs[i_min])}
        diag.update(scan_angles=4096, scan_max=math.sqrt(best[+1.0][0]),
                    scan_min=math.sqrt(best[-1.0][0]))

    def climb(u0: np.ndarray, sign: float) -> None:
        u, f = _sphere_extremize(Sarr, u0, sign)
        if sign * (f - best[sign][0]) > 0.0:
            best[sign] = (f, u)

    for u0 in _directions(n, starts, seed):
        climb(u0, +1.0)
        climb(u0, -1.0)
    if n == 2:   # polish the scan winners too so n = 2 results are not grid-limited
        climb(best[+1.0][1], +1.0)
        climb(best[-1.0][1], -1.0)
    (f_max, u_max), (f_min, u_min) = best[+1.0], best[-1.0]
    return ExtremalCurvature(
        k_min=math.sqrt(max(f_min, 0.0)),
        k_max=math.sqrt(max(f_max, 0.0)),
        u_min=u_min,
        u_max=u_max,
        diagnostics=diag,
    )


def invariants_at(jet: Jet, starts: int | None = None, seed: int = 0) -> PointInvariants:
    """All pointwise invariants at once; the two scalar-curvature closed forms
    (3/2*|H|^2 - n(n+2)/2*zh and |H|^2 - |II|^2) agree to roundoff by algebra,
    and both are evaluated so bookkeeping bugs cannot hide."""
    S = second_form_at(jet)
    n = S.n
    H, H2, II2, zh, sc_b = (v[0] for v in _scalar_invariants(S.S[None]))
    sc_a = 1.5 * H2 - 0.5 * n * (n + 2) * zh
    if abs(sc_a - sc_b) > 1e-10 * max(1.0, H2 + II2):
        raise AssertionError(f"scalar-curvature closed forms disagree: {sc_a!r} vs {sc_b!r}")
    ext = extremal_normal_curvature(S, starts=starts, seed=seed)
    return PointInvariants(
        H=H, H2=float(H2), II2=float(II2), zh=float(zh), sc_ext=float(sc_b),
        K_min=ext.k_min, K_max=ext.k_max,
        r=float(np.linalg.norm(jet.value)),
    )


# ---------------------------------------------------------------------------
# Vectorized grid pipeline.  All reductions run in flat C grid order.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridFields:
    """Per-point scalar fields over a torus grid (flat C order)."""

    grid: TorusGrid
    r: np.ndarray          # |f|
    sqrt_det: np.ndarray
    norm_H: np.ndarray     # |H|
    hx: np.ndarray         # <H, f>
    H2: np.ndarray
    II2: np.ndarray
    zh: np.ndarray
    sc_ext: np.ndarray
    sin_beta: np.ndarray   # |tangential part of f| / |f|  (nan where |f| ~ 0)
    cos_beta: np.ndarray


def _chunk_core(imm: FourierImmersion, thetas: np.ndarray):
    """Kernel over one chunk of grid points: position, frame, II and sqrt(det g)."""
    value, d1, d2, _ = jets_at(imm, thetas, order=2)
    _, L, sqrt_det = _metric_factor(d1, thetas)
    E, S = _second_form(L, d1, d2)
    return value, E, S, sqrt_det


def second_form_chunks(imm: FourierImmersion, grid: TorusGrid,
                       chunk: int = 1024) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, S) batches of II over the grid, for direction sweeps."""
    for start, thetas in grid.iter_points(chunk):
        yield start, _chunk_core(imm, thetas)[2]


_grid_cache: "weakref.WeakKeyDictionary[FourierImmersion, dict]" = weakref.WeakKeyDictionary()


def grid_fields(imm: FourierImmersion, grid: TorusGrid, chunk: int = 1024) -> GridFields:
    """Pointwise invariant fields over a grid, memoized per (immersion, sizes)."""
    per_imm = _grid_cache.setdefault(imm, {})
    key = ("fields", grid.sizes)
    if key in per_imm:
        return per_imm[key]

    P = grid.npoints
    out = {name: np.empty(P) for name in
           ("r", "sqrt_det", "norm_H", "hx", "H2", "II2", "zh", "sc_ext", "sin_beta", "cos_beta")}
    for start, thetas in grid.iter_points(chunk):
        stop = start + thetas.shape[0]
        value, E, S, sqrt_det = _chunk_core(imm, thetas)
        H, H2, II2, zh, sc_ext = _scalar_invariants(S)
        r = np.linalg.norm(value, axis=1)
        xt = np.einsum("piq,pq->pi", E, value)
        xt2 = np.einsum("pi,pi->p", xt, xt)
        with np.errstate(invalid="ignore", divide="ignore"):
            sin_b = np.sqrt(np.clip(xt2, 0.0, None)) / r
            cos_b = np.sqrt(np.clip(r * r - xt2, 0.0, None)) / r
        tiny = r < 1e-12
        sin_b[tiny] = np.nan
        cos_b[tiny] = np.nan
        out["r"][start:stop] = r
        out["sqrt_det"][start:stop] = sqrt_det
        out["norm_H"][start:stop] = np.sqrt(H2)
        out["hx"][start:stop] = np.einsum("pq,pq->p", H, value)
        out["H2"][start:stop] = H2
        out["II2"][start:stop] = II2
        out["zh"][start:stop] = zh
        out["sc_ext"][start:stop] = sc_ext
        out["sin_beta"][start:stop] = sin_b
        out["cos_beta"][start:stop] = cos_b
    fields = GridFields(grid=grid, **out)
    per_imm[key] = fields
    return fields


def weighted_average(fields: GridFields, values: np.ndarray) -> float:
    """Induced-volume average of precomputed per-point values."""
    return float(np.sum(values * fields.sqrt_det) / np.sum(fields.sqrt_det))


def grid_K_estimates(imm: FourierImmersion, grid: TorusGrid, seed: int = 0,
                     directions: int = 256, chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Per-point estimates of the normal-curvature extremes over a grid.

    For n = 2 this is an exhaustive 1024-angle scan per point (exact to grid
    resolution); above that it is a sweep over a fixed direction set (axes,
    the diagonal, and seeded draws), i.e. an inner bound on the true range.
    """
    n = imm.n
    D = _half_circle(1024) if n == 2 else _directions(n, directions, seed * 2713 + 5)
    k_min = np.empty(grid.npoints)
    k_max = np.empty(grid.npoints)
    for start, S in second_form_chunks(imm, grid, chunk):
        K2 = _k2_sweep(D, S)
        stop = start + S.shape[0]
        k_min[start:stop] = np.sqrt(K2.min(axis=1))
        k_max[start:stop] = np.sqrt(K2.max(axis=1))
    return k_min, k_max
