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

import functools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric
from .forked import grid_pass
from .immersion import FourierImmersion, Jet, _metric, jets_at
from .quadrature import SphereSampler, TorusGrid

_DEGENERATE_EIG = 1e-12


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
# from _metric_factor and _second_form, with P = 1 in invariants_at.
# ---------------------------------------------------------------------------

def _metric_factor(g: np.ndarray, thetas: np.ndarray | None):
    """Inverse Cholesky factor L (L g L' = I) and sqrt(det g) for a (P, n, n)
    batch of metrics g = d1 d1'.

    C and L come from column sweeps over (n, n, P) arrays held points-last,
    each step one elementwise numpy operation over all P points, so a point's
    factor does not depend on its batch and no LAPACK call runs per point:
    C_jj = sqrt(A_jj) and C_ij = A_ij / C_jj for column j of the trailing
    matrix A (initially g), which then loses C_ij C_kj at (i, k); and
    L_ii = 1 / C_ii and L_ij = B_ij / C_ii (j < i) for row i of B (initially
    0 below the diagonal), whose later rows k then lose C_ki L_ij.  The last
    column and row have no later entries, so they take one step each.
    sqrt(det g) is the product of the pivots C_jj.

    The metric is degenerate where its smallest eigenvalue is below
    _DEGENERATE_EIG.  Since lambda_min >= 1/|L|_F^2 at each point, a finite
    batch whose pivots A_jj are all > 0 and whose squared factor norms sum to
    at most 1/_DEGENERATE_EIG is certified without an eigensolve; otherwise
    eigvalsh runs on the finite rows, and DegenerateMetric names the theta of
    the first finite row with lambda_min < _DEGENERATE_EIG or a pivot that is
    not > 0.  A metric that is not finite is not degenerate: L and sqrt(det g)
    are NaN there, as is every field read from them, for the checks to report.
    """
    P, n, _ = g.shape
    A = g.transpose(1, 2, 0).copy()
    C = np.zeros_like(A)
    L = np.zeros_like(A)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n - 1):
            np.sqrt(A[j, j], out=C[j, j])
            np.divide(A[j + 1:, j], C[j, j], out=C[j + 1:, j])
            A[j + 1:, j + 1:] -= C[j + 1:, None, j] * C[None, j + 1:, j]
        np.sqrt(A[n - 1, n - 1], out=C[n - 1, n - 1])
        for i in range(n):
            if i:
                L[i, :i] /= C[i, i]
            np.divide(1.0, C[i, i], out=L[i, i])
            if i < n - 1:
                L[i + 1:, :i + 1] -= C[i + 1:, None, i] * L[None, i, :i + 1]
        pivot_ok = (np.einsum("iip->ip", A) > 0).all(axis=0)
        certified = pivot_ok.all() and float(np.vdot(L, L)) <= 1.0 / _DEGENERATE_EIG and np.isfinite(g).all()
    sqrt_det = np.prod(np.einsum("iip->ip", C), axis=0)
    if not certified:
        eigs = np.full(P, np.nan)
        finite = np.isfinite(g).all(axis=(1, 2))     # eigvalsh raises on NaN
        eigs[finite] = np.linalg.eigvalsh(g[finite])[:, 0]
        bad = np.flatnonzero(finite & ((eigs < _DEGENERATE_EIG) | ~pivot_ok))
        if bad.size:
            i = int(bad[0])
            where = "" if thetas is None else f" at theta={thetas[i].tolist()}"
            why = f"< {_DEGENERATE_EIG}" if eigs[i] < _DEGENERATE_EIG else "and a pivot <= 0"
            raise DegenerateMetric(f"metric eigenvalue {eigs[i]:.3e} {why}{where}")
        L[:, :, ~finite] = sqrt_det[~finite] = np.nan
    return np.ascontiguousarray(L.transpose(2, 0, 1)), sqrt_det


class _PairLayout(NamedTuple):
    """II held for the m = n(n+1)/2 pairs i <= j only: the pairs' rows I and
    columns J, their weights w (1 on the diagonal, 2 off it: how often a pair
    occurs in a sum over all (i, j)), the positions of the diagonal pairs, the
    (n, n) map from (i, j) to its pair, which mirrors a full S out by index,
    and the flat indices into an (n, n) L of the factors of (L (x) L)[pairs]."""

    I: np.ndarray
    J: np.ndarray
    w: np.ndarray
    diag: np.ndarray
    full: np.ndarray
    left: np.ndarray     # (m * n * n,) flat index of L_ia at entry (k, a, b)
    right: np.ndarray    # (m * n * n,) flat index of L_jb at entry (k, a, b)


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> _PairLayout:
    I, J = np.triu_indices(n)
    full = np.empty((n, n), dtype=np.intp)
    full[I, J] = full[J, I] = np.arange(I.size)
    a, b = np.indices((n, n))
    left = (n * I[:, None, None] + a).ravel()
    right = (n * J[:, None, None] + b).ravel()
    layout = _PairLayout(I, J, np.where(I == J, 1.0, 2.0), np.flatnonzero(I == J), full, left, right)
    for index in layout:
        index.flags.writeable = False     # shared by every caller through the cache
    return layout


def _n_of_pairs(m: int) -> int:
    return (math.isqrt(8 * m + 1) - 1) // 2


def _second_form(L: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """Tangent frame E = L d1 and II in that frame for a batch of P points, in
    the pair layout (P, m, q): S_k = P_N(sum_ab L_ia L_jb d2_ab) for the k-th
    pair (i, j) of _pairs(n), as raw = (L (x) L)[pairs] d2 and one projection."""
    P, n, q = d1.shape
    layout = _pairs(n)
    E = L @ d1
    flat = L.reshape(P, n * n)
    LL = np.take(flat, layout.left, axis=1) * np.take(flat, layout.right, axis=1)
    raw = LL.reshape(P, layout.I.size, n * n) @ d2.reshape(P, n * n, q)
    tang = (raw @ E.transpose(0, 2, 1).copy()) @ E
    return E, np.subtract(raw, tang, out=tang)


def _full_form(S: np.ndarray) -> np.ndarray:
    """(..., n, n, q) second forms mirrored out of the (..., m, q) pair layout."""
    return S[..., _pairs(_n_of_pairs(S.shape[-2])).full, :]


def _zh(H2, II2, n: int):
    """zh = (2|II|^2 + |H|^2)/(n(n+2)), the sphere average of K(u)^2."""
    return (2.0 * II2 + H2) / (n * (n + 2))


def _sc_ext(H2, II2):
    """Scalar curvature by the Gauss equation, |H|^2 - |II|^2."""
    return H2 - II2


def _sc_from_zh(H2, zh, n: int):
    """The same scalar curvature through zh, 3/2*|H|^2 - n(n+2)/2*zh."""
    return 1.5 * H2 - 0.5 * n * (n + 2) * zh


def _scalar_invariants(S: np.ndarray):
    """H, |H|^2, |II|^2, zh and the extrinsic scalar curvature |H|^2 - |II|^2
    of a (P, m, q) batch of second forms in the pair layout."""
    n = _n_of_pairs(S.shape[1])
    layout = _pairs(n)
    H = S[:, layout.diag].sum(axis=1)
    H2 = np.einsum("pq,pq->p", H, H)
    II2 = np.einsum("pkq,pkq->pk", S, S) @ layout.w
    return H, H2, II2, _zh(H2, II2, n), _sc_ext(H2, II2)


@functools.lru_cache(maxsize=None)
def _directions(n: int, count: int, seed: int) -> np.ndarray:
    """The seed's direction set, cached and read-only: coordinate axes, the
    diagonal, then count - n - 1 unit draws from the Philox stream keyed
    seed * 2713 + 5 (never fewer than the n + 1 fixed rows).  The stream is
    sequential, so a shorter set is the first rows of a longer one: the
    climb's 16n starts are the first 16n of the K sweep's 256 directions."""
    D = np.vstack([np.eye(n), np.ones((1, n)) / math.sqrt(n)])
    if count > n + 1:
        D = np.vstack([D, SphereSampler(n, count - n - 1, seed * 2713 + 5).directions()])
    D.flags.writeable = False     # shared by every caller through the cache
    return D


def _before_sweep_fork(n: int, seed: int) -> None:
    """Build _K_range's direction set at seed, where it has one (n >= 3),
    before a pass that sweeps K forks, so that its workers inherit the set
    and numpy.random, which a fresh import takes 15-18 ms to load in each."""
    if n >= 3:
        _directions(n, 256, seed)


def _sweep_coefficients(U: np.ndarray) -> np.ndarray:
    """C[..., k] = u_i u_j w_k for the pairs (i, j) of _pairs(n), so that
    II(u, u) = C @ S for a second form S in the pair layout."""
    layout = _pairs(U.shape[-1])
    return U[..., layout.I] * U[..., layout.J] * layout.w


def _k2_sweep(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """K(u)^2 = |II(u, u)|^2, read exactly as |C S|^2, for every row u of U,
    shared (d, n) or per point (P, d, n), at every point of a (P, m, q) batch
    in the pair layout, as a (P, d) array."""
    v = _sweep_coefficients(U) @ S
    return np.einsum("pdq,pdq->pd", v, v)


_POWER_STEPS = 5000      # cap on shifted power steps per (point, start, sign)
_POWER_STILL = 1e-13     # a row stops once its unit direction moves less than this
_POWER_TAU = 1e-6        # convexity margin of the adaptive shift, relative to |II|^2
_POWER_STALL = 50        # ... or once K^2 gains less than _POWER_GAIN * |II|^2
_POWER_GAIN = 1e-15      # over its last _POWER_STALL steps
_POWER_SAME = 1e-12      # directions with |cos| above 1 - this count as the same


def _plane_candidates(S: np.ndarray) -> np.ndarray:
    """Unit directions (P, 6, 2) that include every critical direction of K^2
    at each point of a (P, 3, q) batch in the pair layout (S00, S01, S11).
    With u = (cos t, sin t), s = 2t and II(u, u) = a + b cos s + c sin s,
    dK^2/ds = B1 cos s - A1 sin s + B2 cos 2s - A2 sin 2s vanishes at the
    arguments of the roots z = e^{is} of
    (B2+iA2) z^4 + (B1+iA1) z^3 + (B1-iA1) z + (B2-iA2), or, where the leading
    coefficient vanishes (|b| = |c|, b _|_ c: constant-curvature designs), at
    atan2(B1, A1) + {0, pi}, which are always included."""
    V = np.stack([S[:, 0] + S[:, 2], S[:, 0] - S[:, 2], 2.0 * S[:, 1]], axis=1)
    G = 0.25 * np.einsum("pxq,pyq->pxy", V, V)        # Gram matrix of a, b, c
    A1, B1, A2, B2 = 2.0 * G[:, 0, 1], 2.0 * G[:, 0, 2], G[:, 1, 1] - G[:, 2, 2], 2.0 * G[:, 1, 2]
    coef = np.stack([B2 + 1j * A2, B1 + 1j * A1, 0.0 * A1, B1 - 1j * A1, B2 - 1j * A2], axis=1)
    s = np.arctan2(B1, A1)[:, None] + np.array([0.0, 0.0, 0.0, 0.0, 0.0, math.pi])
    quartic = np.abs(coef[:, 0]) > 1e-15 * np.abs(coef).max(axis=1)
    companion = np.tile(np.eye(4, k=-1, dtype=complex), (int(quartic.sum()), 1, 1))
    companion[:, 0] = -coef[quartic, 1:] / coef[quartic, :1]
    s[quartic, :4] = np.angle(np.linalg.eigvals(companion))
    return np.stack([np.cos(0.5 * s), np.sin(0.5 * s)], axis=2)


def _power_climb(M: np.ndarray, D: np.ndarray, sigma: float) -> np.ndarray:
    """Shifted symmetric higher-order power method (Kolda & Mayo 2011, with
    the adaptive shift of 2014) on K^2(u) = M_ijkl u_i u_j u_k u_l, M_ijkl =
    <II(e_i, e_j), II(e_k, e_l)>, ascending (sigma = +1) or descending
    (sigma = -1) from every unit start in D at each of P points: (P, d, n)
    directions.  With v = II(u, u), g_i = <II(e_i, u), v> and
    H_ik = 2<II(e_i, u), II(e_k, u)> + <II(e_i, e_k), v>, a step is
    u <- normalize(sigma g + alpha u), alpha = max(0, tau - lambda_min(sigma H)),
    monotone in K^2.  Each row stops on its own once it stops moving, once its
    K^2 stalls, or once it reaches a direction (up to sign) where a row of the
    same point has already stopped or is live with a larger sigma K^2, since
    both end at that point."""
    P, d, n = M.shape[0], D.shape[0], D.shape[1]
    R = d * P
    M = np.repeat(M, d, axis=0)
    U = np.tile(D, (P, 1))
    group = np.arange(R) // d                   # one group per point
    II2 = np.einsum("rijij->r", M)
    tau = _POWER_TAU * II2
    mark = np.full(R, np.nan)                   # K^2 of each row _POWER_STALL steps ago
    live = np.arange(R)
    for step_no in range(_POWER_STEPS):
        u = U[live]
        Mu = (M[live].reshape(-1, n ** 3, n) @ u[:, :, None]).reshape(-1, n * n, n)
        N = (Mu @ u[:, :, None]).reshape(-1, n, n)                          # <II(e_i, e_k), v>
        T = (u[:, None, :] @ Mu.reshape(-1, n, n * n)).reshape(-1, n, n)    # <II(e_i, u), II(e_k, u)>
        alpha = np.maximum(0.0, tau[live] - np.linalg.eigvalsh(sigma * (2.0 * T + N))[:, 0])
        g = (N @ u[:, :, None])[:, :, 0]
        step = sigma * g + alpha[:, None] * u
        norm = np.linalg.norm(step, axis=1, keepdims=True)
        U[live] = np.divide(step, norm, out=u.copy(), where=norm > 0.0)
        keep = np.linalg.norm(U[live] - u, axis=1) > _POWER_STILL
        if step_no % _POWER_STALL == 0:
            k2 = np.einsum("ri,ri->r", u, g)                                # K^2(u) = <v, v>
            keep &= ~(sigma * (k2 - mark[live]) < _POWER_GAIN * II2[live])
            mark[live] = k2
            peers = group[live]                  # the rows of each live row's point
            # a peer ahead of a live row: stopped, or live with a larger sigma K^2
            # (ties to the lower row), so each cluster keeps one live row
            score = np.full(R, np.inf)
            score[live] = sigma * k2
            ahead = score.reshape(-1, d)[peers]
            ahead = (ahead > score[live, None]) | ((ahead == score[live, None])
                                                   & (np.arange(d) < live[:, None] % d))
            cos = np.abs(U.reshape(-1, d, n)[peers] @ U[live][:, :, None])[:, :, 0]
            keep &= ~((cos > 1.0 - _POWER_SAME) & ahead).any(axis=1)
        live = live[keep]
        if live.size == 0:
            break
    return U.reshape(P, d, n)


def extremal_normal_curvature(S: np.ndarray, seed: int = 0, side: str = "both"):
    """Extremes of the normal curvature K(u) = |II(u, u)| over unit directions
    at every point of a (P, m, q) batch of second forms in the pair layout:
    (k_min, k_max, u_min, u_max), with unit directions attaining them.

    Exact for n = 2: K^2 at every root of its derivative (_plane_candidates).
    For n >= 3 the best values the shifted power method finds, in one climb
    ascending and one descending from each of the 16n seeded starts
    _directions(n, 16n, seed), the first 16n directions of the K sweep: an
    inner bound on the true range.  side "max" runs only the ascents, for
    k_max, and "min" only the descents, for k_min (the other extreme is then
    the best over that side's rows): an ascent never ends below its start
    and a descent never above it, so the other side can only tie, and beats
    it by roundoff alone, where K is constant along a start's path (by one
    ulp on constant-curvature designs).  Deterministic for a fixed seed;
    points with non-finite entries give NaN."""
    P, n = S.shape[0], _n_of_pairs(S.shape[1])
    # the eigensolvers raise on NaN, so non-finite points search on II = 0
    S0 = np.where(np.isfinite(S).all(axis=(1, 2))[:, None, None], S, 0.0)
    if n == 2:
        U = _plane_candidates(S0)
    else:
        full = _full_form(S0)
        M = np.einsum("pijq,pklq->pijkl", full, full, optimize=True)
        D = _directions(n, 16 * n, seed)
        U = np.concatenate([_power_climb(M, D, sigma) for sigma in
                            {"both": (1.0, -1.0), "max": (1.0,), "min": (-1.0,)}[side]], axis=1)
    K2 = _k2_sweep(U, S)
    i_min, i_max, at = np.argmin(K2, axis=1), np.argmax(K2, axis=1), np.arange(P)
    return np.sqrt(K2[at, i_min]), np.sqrt(K2[at, i_max]), U[at, i_min], U[at, i_max]


def invariants_at(jet: Jet, seed: int = 0) -> PointInvariants:
    """All pointwise invariants at once; the two scalar-curvature closed forms
    (3/2*|H|^2 - n(n+2)/2*zh and |H|^2 - |II|^2) agree to roundoff by algebra,
    and both are evaluated so bookkeeping bugs cannot hide."""
    if jet.d2 is None:
        raise ValueError("invariants_at needs a jet of order >= 2")
    theta = None if jet.theta is None else jet.theta[None]
    S = _jet_core(jet.d1[None], jet.d2[None], theta)[1]
    n = jet.d1.shape[0]
    H, H2, II2, zh, sc_b = (v[0] for v in _scalar_invariants(S))
    sc_a = _sc_from_zh(H2, zh, n)
    if abs(sc_a - sc_b) > 1e-10 * max(1.0, H2 + II2):
        raise AssertionError(f"scalar-curvature closed forms disagree: {sc_a!r} vs {sc_b!r}")
    k_min, k_max = extremal_normal_curvature(S, seed)[:2]
    return PointInvariants(
        H=H, H2=float(H2), II2=float(II2), zh=float(zh), sc_ext=float(sc_b),
        K_min=float(k_min[0]), K_max=float(k_max[0]),
        r=float(np.linalg.norm(jet.value)),
    )


# ---------------------------------------------------------------------------
# Vectorized grid pipeline.  All reductions run in flat C grid order.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridFields:
    """Per-point scalar fields over a torus grid (flat C order): the six the
    kernel computes, the K range where the pass also swept K, and read-only
    properties for the rest."""

    grid: TorusGrid
    r: np.ndarray          # |f|
    sqrt_det: np.ndarray
    hx: np.ndarray         # <H, f>
    H2: np.ndarray         # |H|^2
    II2: np.ndarray        # |II|^2
    xt2: np.ndarray        # |E f|^2, the squared tangential part of f
    k_seed: int | None = None           # the seed of the K range below, None where K was not swept
    k_min: np.ndarray | None = None     # _K_range(S, k_seed)
    k_max: np.ndarray | None = None

    @property
    def npoints(self) -> int:
        return self.grid.npoints

    @property
    def norm_H(self) -> np.ndarray:
        return np.sqrt(self.H2)

    @property
    def zh(self) -> np.ndarray:
        return _zh(self.H2, self.II2, self.grid.n)

    @property
    def sc_ext(self) -> np.ndarray:
        return _sc_ext(self.H2, self.II2)

    @property
    def sin_beta(self) -> np.ndarray:
        """|tangential part of f| / |f| (nan where |f| < 1e-12)."""
        return self._over_r(self.xt2)

    @property
    def cos_beta(self) -> np.ndarray:
        """|normal part of f| / |f| (nan where |f| < 1e-12)."""
        return self._over_r(self.r * self.r - self.xt2)

    def _over_r(self, square: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.sqrt(np.clip(square, 0.0, None)) / self.r
        out[self.r < 1e-12] = np.nan
        return out


_FIELD_NAMES = ("r", "sqrt_det", "hx", "H2", "II2", "xt2")


def _chunk_core(imm: FourierImmersion, thetas: np.ndarray):
    """One chunk's kernel, in grid_pass's floating-point mode also outside a
    pass: position, frame, II in the pair layout and sqrt(det g)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, d1, d2, _ = jets_at(imm, thetas, order=2)
        return (value, *_jet_core(d1, d2, thetas))


def _jet_core(d1: np.ndarray, d2: np.ndarray, thetas: np.ndarray):
    """The kernel after the jets: frame, II in the pair layout and sqrt(det g)
    from the (P, n, q) and (P, n, n, q) derivatives at the points thetas."""
    L, sqrt_det = _metric_factor(_metric(d1), thetas)
    E, S = _second_form(L, d1, d2)
    return E, S, sqrt_det


_grid_cache: "weakref.WeakKeyDictionary[FourierImmersion, dict]" = weakref.WeakKeyDictionary()


def _memo(imm: FourierImmersion, key: tuple, compute, keep=None):
    """imm's grid-cache entry under key, made by compute() if missing or if
    keep(entry) is false.  One function writes each key: grid_fields,
    global_normal_curvature_max, intrinsic.analysis_grid, verify._resolves,
    verify._ball_top or verify._zh_top."""
    per_imm = _grid_cache.setdefault(imm, {})
    if key not in per_imm or (keep is not None and not keep(per_imm[key])):
        per_imm[key] = compute()
    return per_imm[key]


def grid_fields(imm: FourierImmersion, grid: TorusGrid, sweep: int | None = None) -> GridFields:
    """Pointwise invariant fields over a grid, one pass memoized per
    (immersion, sizes).  Given a seed sweep, the pass also takes _K_range at
    that seed at every point, in the same kernel call; an entry that holds no
    K range at that seed is replaced by such a pass, whose fields are bit for
    bit the entry's."""
    return _memo(imm, ("fields", grid.sizes), lambda: _evaluate_fields(imm, grid, sweep),
                 keep=lambda fields: sweep is None or fields.k_seed == sweep)


def _field_columns(value: np.ndarray, E: np.ndarray, S: np.ndarray, sqrt_det: np.ndarray):
    """The six GridFields columns, in _FIELD_NAMES order, at a batch of points
    from the position, the frame E, II in the pair layout and sqrt(det g)."""
    H, H2, II2 = _scalar_invariants(S)[:3]
    xt = np.einsum("piq,pq->pi", E, value)
    return (np.linalg.norm(value, axis=1), sqrt_det, np.einsum("pq,pq->p", H, value),
            H2, II2, np.einsum("pi,pi->p", xt, xt))


def _evaluate_fields(imm: FourierImmersion, grid: TorusGrid, sweep: int | None = None) -> GridFields:
    """One kernel pass over every point of a grid, split over forked workers
    by grid_pass, with _K_range at the seed sweep unless that is None."""
    def kernel(thetas):
        core = _chunk_core(imm, thetas)
        columns = _field_columns(*core)
        return columns if sweep is None else (*columns, *_K_range(core[2], sweep))

    if sweep is not None:
        _before_sweep_fork(grid.n, sweep)
    out = grid_pass(grid, len(_FIELD_NAMES) + (0 if sweep is None else 2), kernel, "grid fields")
    swept = {} if sweep is None else {"k_seed": sweep, "k_min": out[-2], "k_max": out[-1]}
    return GridFields(grid=grid, **dict(zip(_FIELD_NAMES, out)), **swept)


def weighted_average(fields: GridFields, values: np.ndarray) -> float:
    """Induced-volume average of precomputed per-point values."""
    return float(np.sum(values * fields.sqrt_det) / np.sum(fields.sqrt_det))


def _K_range(S: np.ndarray, seed: int):
    """(K_min, K_max) at each point of a (P, m, q) batch in the pair layout,
    the one per-point K range: exact for n = 2 (the extremizer's root solve),
    otherwise K over the 256 directions _directions(n, 256, seed) (the axes,
    the diagonal and seeded draws), an inner bound on the true range, since
    the power method at every point costs seconds.  The two extreme
    directions are located on the quadratic form of the pair Gram matrix
    G = S S' (K(u)^2 = C G C' for C = _sweep_coefficients(u), a form whose
    coefficients are C's own pair products), one matrix product of m(m+1)/2
    columns per block of 256 points, and K is re-read exactly, as |C S|, at
    both: the form's roundoff, about eps |II|^2 in K^2, would cost K_min its
    relative precision where K is near 0."""
    n = _n_of_pairs(S.shape[1])
    if n == 2:
        return extremal_normal_curvature(S)[:2]
    D = _directions(n, 256, seed)
    C = _sweep_coefficients(D)
    gram, form = _pairs(C.shape[1]), _sweep_coefficients(C).T      # form: (m(m+1)/2, 256)
    ends = np.empty((S.shape[0], 2), dtype=np.intp)
    for lo in range(0, S.shape[0], 256):
        block = S[lo:lo + 256]
        k2 = (block @ block.transpose(0, 2, 1).copy())[:, gram.I, gram.J] @ form
        ends[lo:lo + 256, 0], ends[lo:lo + 256, 1] = k2.argmin(axis=1), k2.argmax(axis=1)
    K = np.sqrt(_k2_sweep(D[ends], S))
    return K[:, 0], K[:, 1]


def grid_K_estimates(imm: FourierImmersion, grid: TorusGrid,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """_K_range at this seed at every point of a grid, as read-only arrays:
    the K range of grid_fields' pass swept at the seed."""
    fields = grid_fields(imm, grid, sweep=seed)
    return fields.k_min, fields.k_max


def _best_found_K(imm: FourierImmersion, grid: TorusGrid, K: np.ndarray, seed: int,
                  highest: bool) -> float:
    """The largest (highest) or smallest of a per-point K_max or K_min array
    over a grid, pushed outward by the extremizer at the four grid points
    where K is most extreme, in one batched call that climbs only that side."""
    picks = np.argsort(K)[-4:] if highest else np.argsort(K)[:4]
    S = _chunk_core(imm, grid.theta_at(picks))[2]
    refined = extremal_normal_curvature(S, seed, "max" if highest else "min")[highest]
    values = np.append(K[picks], refined)
    return float(values.max() if highest else values.min())


def global_normal_curvature_max(imm: FourierImmersion, grid: TorusGrid, seed: int = 0) -> float:
    """Best-found maximum of the normal curvature over the whole torus, the
    value the K <= 2 gate decides on: the larger of grid_K_estimates' K_max
    and the extremizer's K_max (exact for n = 2, the power method from 16n
    starts above) at the four grid points where that estimate is highest.
    Values between grid points are not seen, so, like every grid-sampled
    supremum, it can fall short of the true maximum.  Memoized per
    (immersion, sizes, seed)."""
    return _memo(imm, ("K_max", grid.sizes, seed), lambda: _best_found_K(
        imm, grid, grid_K_estimates(imm, grid, seed)[1], seed, highest=True))
