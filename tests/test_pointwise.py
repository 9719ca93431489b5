import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricurv import pointwise
from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.fixtures import ball_immersion, perturbed_clifford
from toricurv.errors import DegenerateMetric
from toricurv.formats import parse_immersion
from toricurv.immersion import FourierImmersion, FourierTerm, Signature, _metric, evaluate_jet, jets_at, transform
from toricurv.pointwise import (
    extremal_normal_curvature,
    grid_K_estimates,
    grid_fields,
    invariants_at,
    weighted_average,
)
from toricurv.pointwise import (
    _best_found_K,
    _chunk_core,
    _K_range,
    _directions,
    _full_form,
    _k2_sweep,
    _metric_factor,
    _pairs,
    _power_climb,
    _sc_from_zh,
    _scalar_invariants,
)
from toricurv.quadrature import SphereSampler, TorusGrid, sphere_average_mc

from conftest import (
    overflowing_torus,
    random_orthogonal,
    random_points,
    reference_k2_range,
    reference_k2_sweep,
    reference_metric_factor,
    reference_second_form,
)


def jet_of(imm, theta, order=2):
    return evaluate_jet(imm, theta, order=order)


def points(theta):
    return np.asarray(theta, dtype=float).reshape(1, -1)


def form_at(imm, theta):
    """II at one point from the batched kernel, as a (1, m, q) pair-layout batch."""
    return _chunk_core(imm, points(theta))[2]


def full_at(imm, theta):
    """II at one point from the batched kernel, mirrored out to (n, n, q)."""
    return _full_form(form_at(imm, theta))[0]


def metric_of(imm, theta):
    """g = d1 d1' at one point, its factor L (L g L' = I) and sqrt(det g)."""
    d1 = jet_of(imm, theta, order=1).d1[None]
    g = d1 @ d1.transpose(0, 2, 1)
    L, sqrt_det = _metric_factor(g, points(theta))
    return g[0], L[0], float(sqrt_det[0])


def k_of(full, u):
    """K(u) = |II(u, u)| for a direction in frame coordinates."""
    return float(np.linalg.norm(np.einsum("i,j,ijq->q", u, u, full)))


def pairing(full, x, y, v, w):
    """<II(x, y), II(v, w)> by bilinear extension."""
    return float(np.einsum("i,j,ijq->q", x, y, full) @ np.einsum("i,j,ijq->q", v, w, full))


def extremes(S, seed=0):
    """The batched extremizer at the one point of a (1, m, q) batch."""
    k_min, k_max, u_min, u_max = extremal_normal_curvature(S, seed)
    return float(k_min[0]), float(k_max[0]), u_min[0], u_max[0]


# ---------------------------------------------------------------- metric

def test_metric_clifford(clifford2):
    g, L, sqrt_det = metric_of(clifford2, [0.4, 2.2])
    np.testing.assert_allclose(g, 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(g @ (L.T @ L), np.eye(2), atol=1e-10)
    np.testing.assert_allclose(L @ g @ L.T, np.eye(2), atol=1e-10)
    assert abs(sqrt_det - 0.5) < 1e-14


def test_metric_hexagonal(hexagonal):
    g = metric_of(hexagonal, [1.0, 0.3])[0]
    np.testing.assert_allclose(g, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-14)


def test_metric_unit_circle():
    g = metric_of(clifford(1), [1.7])[0]
    np.testing.assert_allclose(g, [[1.0]], atol=1e-14)


def test_metric_degenerate_for_constant_map():
    constant = FourierImmersion(Signature(2, 4), (), translate=[0.5, 0, 0, 0])
    with pytest.raises(DegenerateMetric):
        metric_of(constant, [0.0, 0.0])
    with pytest.raises(DegenerateMetric):
        form_at(constant, [0.0, 0.0])


def test_degeneracy_policy_below_cholesky_failure():
    # f = (cos t1, sin t1, 1e-7 sin t2): lambda_min(g) = 1e-14 cos^2 t2 < 1e-12
    # everywhere, yet Cholesky succeeds.  The point kernel and the grid pass
    # apply one policy and name the point.
    thin = FourierImmersion(Signature(2, 3), (
        FourierTerm(k=(1, 0), a=[1.0, 0.0, 0.0], b=[0.0, 1.0, 0.0]),
        FourierTerm(k=(0, 1), a=[0.0, 0.0, 0.0], b=[0.0, 0.0, 1e-7]),
    ))
    jet = jet_of(thin, [0.3, 0.0], order=1)
    np.linalg.cholesky(jet.d1 @ jet.d1.T)
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.3, 0\.0\]"):
        form_at(thin, [0.3, 0.0])
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.0, 0\.0\]"):
        grid_fields(thin, TorusGrid((8, 8)))


def spd_jets(n: int, count: int, cond: float, seed: int) -> np.ndarray:
    """(count, n, n + 2) first derivatives whose metrics have condition number
    cond, random eigenvectors and a random overall scale."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    Q = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    W = np.linalg.qr(rng.standard_normal((count, n + 2, n)))[0].transpose(0, 2, 1)
    lam = np.logspace(0.0, -math.log10(cond), n) * 10.0 ** rng.uniform(-1, 1, (count, 1))
    return (Q * np.sqrt(lam)[:, None, :]) @ W


@pytest.mark.parametrize("n", range(1, 9))
def test_metric_factor_against_lapack(n):
    # Two backward-stable factorizations of one g agree to about cond(g)*eps,
    # so every tolerance scales with the condition number.
    d1 = np.concatenate([spd_jets(n, 16, cond, seed=n) for cond in (1.0, 1e4, 1e8)])
    g = d1 @ d1.transpose(0, 2, 1)
    L, sqrt_det = _metric_factor(g, None)
    cond = np.linalg.cond(g)
    eye = np.abs(L @ g @ L.transpose(0, 2, 1) - np.eye(n)).max(axis=(1, 2))
    assert np.all(eye <= 1e-12 * cond)
    ref = np.linalg.inv(np.linalg.cholesky(g))
    assert np.all(np.abs(L - ref).max(axis=(1, 2)) <= 1e-13 * cond * np.abs(ref).max(axis=(1, 2)))
    sign, logdet = np.linalg.slogdet(g)
    assert np.all(sign == 1.0)
    assert np.all(np.abs(sqrt_det / np.exp(0.5 * logdet) - 1.0) <= 1e-13 * cond)
    for p in range(d1.shape[0]):      # a point's factor does not depend on its batch
        gp = d1[p:p + 1] @ d1[p:p + 1].transpose(0, 2, 1)
        Lp, sp = _metric_factor(gp, None)
        assert np.array_equal(gp[0], g[p]) and np.array_equal(Lp[0], L[p]) and sp[0] == sqrt_det[p]


def _factor_outcome(factor, g, thetas):
    """(L, sqrt_det) of a metric factor, or its DegenerateMetric message."""
    try:
        return factor(g, thetas)
    except DegenerateMetric as exc:
        return str(exc)


@pytest.mark.parametrize("n", range(1, 6))
def test_metric_factor_is_its_full_sweeps(n):
    # The factor skips the last column's and row's empty steps and starts L
    # from zeros, which changes no bit, zeros' signs included, of L or
    # sqrt(det g), and no degeneracy verdict: on finite batches, on batches
    # with NaN or infinite metrics, and on degenerate ones (rank-deficient,
    # zero, and with a swept pivot that rounds to 0).
    thetas = np.arange(17.0 * n).reshape(17, n)
    d1 = spd_jets(n, 16, 1e6, seed=40 + n)
    batches = [d1]
    for where, value in ((3, np.nan), (5, np.inf)):
        bad = d1.copy()
        bad[where, 0, 0] = value
        batches.append(bad)
    rank = d1.copy()
    rank[7, -1] = rank[7, 0]
    zero = d1.copy()
    zero[2] = 0.0
    batches += [rank, zero]
    with np.errstate(invalid="ignore"):      # inf times 0
        metrics = [_metric(d) for d in batches]
    b = np.nextafter(3e4, 0.0)
    tight = np.eye(n) * 3e4
    tight[0, -1] = tight[-1, 0] = b
    metrics.append(np.concatenate([metrics[0], tight[None]]))
    outcomes = []
    for g in metrics:
        got, want = (_factor_outcome(f, g, thetas[:len(g)]) for f in (_metric_factor, reference_metric_factor))
        outcomes.append(isinstance(want, str))
        if isinstance(want, str):
            assert got == want
            continue
        for x, y in zip(got, want):
            assert np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))
    assert outcomes == [False, False, False, n > 1, True, n > 1]


def test_metric_factor_mixed_batches():
    thetas = np.arange(12.0).reshape(6, 2)
    d1 = spd_jets(3, 6, 1e3, seed=9)
    clean_g = d1 @ d1.transpose(0, 2, 1)
    clean = (clean_g, *_metric_factor(clean_g, thetas))
    d1[2, 0, 0] = np.nan               # g[2] is NaN in row and column 0
    g = d1 @ d1.transpose(0, 2, 1)
    L, sqrt_det = _metric_factor(g, thetas)
    lower = np.tril_indices(3)
    assert np.isnan(L[2][lower]).all() and np.isnan(sqrt_det[2])
    others = np.arange(6) != 2
    for got, want in zip((g, L, sqrt_det), clean):
        assert np.array_equal(got[others], want[others])
    d1[4, 2] = d1[4, 0]               # rank 2: lambda_min(g) is 0 to roundoff
    with pytest.raises(DegenerateMetric, match=r"theta=\[8\.0, 9\.0\]"):
        _metric_factor(d1 @ d1.transpose(0, 2, 1), thetas)


def test_metric_factor_pivot_rule():
    # lambda_min(g) = ulp(3e4) = 3.638e-12 passes the eigenvalue test, but the
    # swept pivot 3e4 - (b / sqrt(3e4))^2 rounds to exactly 0.
    b = np.nextafter(3e4, 0.0)
    g = np.array([[[3e4, b], [b, 3e4]]])
    assert np.linalg.eigvalsh(g)[0, 0] > 1e-12
    with pytest.raises(DegenerateMetric,
                       match=r"metric eigenvalue 3\.638e-12 and a pivot <= 0 at theta=\[0\.1, 0\.2\]"):
        _metric_factor(g, np.array([[0.1, 0.2]]))


# ---------------------------------------------------------------- frame

def test_frame_orthonormal_and_projector(wavy2):
    thetas = random_points(2, 5, seed=2)
    _, frames, _, _ = _chunk_core(wavy2, thetas)
    for theta, E in zip(thetas, frames):
        jet = jet_of(wavy2, theta)
        np.testing.assert_allclose(E @ E.T, np.eye(2), atol=1e-10)
        for a in range(2):
            assert np.linalg.norm(jet.d1[a] - E.T @ (E @ jet.d1[a])) < 1e-9


# ---------------------------------------------------------------- second form

def test_second_form_clifford_values(clifford2):
    t1, t2 = 0.8, 2.5
    S = full_at(clifford2, [t1, t2])
    expected_S11 = -math.sqrt(2) * np.array([math.cos(t1), math.sin(t1), 0, 0])
    np.testing.assert_allclose(S[0, 0], expected_S11, atol=1e-12)
    np.testing.assert_allclose(S[0, 1], np.zeros(4), atol=1e-12)
    assert abs(np.linalg.norm(S[0, 0]) - math.sqrt(2)) < 1e-12


def test_second_form_symmetry_and_normality(wavy2):
    _, E, S, _ = _chunk_core(wavy2, points([0.6, 1.9]))
    S = _full_form(S)[0]
    assert np.array_equal(S, S.transpose(1, 0, 2))
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(E[0] @ S[i, j])) < 1e-9


@pytest.mark.parametrize("make", [
    lambda: perturbed_clifford(2, seed=5),
    lambda: clifford(3),
    lambda: subtorus_immersion(builtin_design("d4")),
    lambda: ball_immersion(5, 11, seed=3),
], ids=["wavy2", "clifford3", "d4", "ball511"])
def test_pair_kernel_matches_reference(make):
    # The batched kernel holds II for the pairs i <= j only; mirrored out, it
    # must match the per-point construction, and the pair-layout sweep must
    # match the sweep over all (i, j), here at 300 points, more than one of
    # the sweep's 256-point blocks.
    imm = make()
    thetas = random_points(imm.n, 8, seed=71)
    S = _chunk_core(imm, thetas)[2]
    for p, theta in enumerate(thetas):
        jet = jet_of(imm, theta)
        ref, _ = reference_second_form(jet)
        size = float(np.linalg.norm(ref))
        full = _full_form(S[p])
        np.testing.assert_allclose(full, ref, rtol=0, atol=1e-12 * size)
        assert np.array_equal(full, full.swapaxes(0, 1))
    D = _directions(imm.n, 64, seed=5)
    S = _chunk_core(imm, random_points(imm.n, 300, seed=72))[2]
    expected = reference_k2_sweep(D, _full_form(S))
    np.testing.assert_allclose(_k2_sweep(D, S), expected, rtol=1e-13, atol=0)


def test_second_form_hexagonal_constant_curvature(hexagonal):
    S = form_at(hexagonal, [0.2, 1.4])
    rng = np.random.Generator(np.random.Philox(key=np.uint64(77)))
    for _ in range(64):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        assert abs(math.sqrt(_k2_sweep(u[None], S)[0, 0]) - math.sqrt(1.5)) < 1e-10


# ---------------------------------------------------------------- H, zh, K

def mean_curvature(imm, theta):
    return _scalar_invariants(form_at(imm, theta))[0][0]


def zh_at(imm, theta):
    return float(_scalar_invariants(form_at(imm, theta))[3][0])


def test_mean_curvature_clifford(clifford2):
    jet = jet_of(clifford2, [1.1, 0.7])
    H = mean_curvature(clifford2, [1.1, 0.7])
    np.testing.assert_allclose(H, -2.0 * jet.value, atol=1e-12)
    assert abs(float(H @ jet.value) + 2.0) < 1e-12


def test_mean_curvature_norms():
    assert abs(np.linalg.norm(mean_curvature(clifford(3), [0.1, 2, 4])) - 3) < 1e-12


def test_mean_curvature_hexagonal(hexagonal):
    H = mean_curvature(hexagonal, [2.0, 0.5])
    assert abs(np.linalg.norm(H) - 2.0) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zh_clifford_family(m):
    assert abs(zh_at(clifford(m), np.linspace(0.3, 1.8, m)) - 3.0 * m / (m + 2)) < 1e-12


def test_sc_from_zh_is_the_gauss_equation(random25):
    # 3/2|H|^2 - n(n+2)/2 zh and |H|^2 - |II|^2 are one closed form by algebra.
    fields = grid_fields(random25, TorusGrid((16, 16)))
    scale = float(np.max(fields.H2 + fields.II2))
    np.testing.assert_allclose(_sc_from_zh(fields.H2, fields.zh, 2), fields.sc_ext,
                               rtol=0, atol=1e-12 * scale)


def test_zh_hexagonal(hexagonal):
    assert abs(zh_at(hexagonal, [0.9, 2.7]) - 1.5) < 1e-12


def test_zh_matches_sphere_average(wavy2, hexagonal):
    # Bridge between the definition (average of K^2) and the closed form.
    for imm, seed in ((wavy2, 5), (hexagonal, 6)):
        thetas = random_points(2, 3, seed=40 + seed)
        S = _chunk_core(imm, thetas)[2]
        zh = _scalar_invariants(S)[3]
        for i, full in enumerate(_full_form(S)):
            sampler = SphereSampler(2, 200_000, seed=seed * 10 + i)

            def ksq(dirs):
                vals = np.einsum("da,db,abq->dq", dirs, dirs, full, optimize=True)
                return np.einsum("dq,dq->d", vals, vals)

            mean, stderr = sphere_average_mc(ksq, sampler)
            assert abs(mean - zh[i]) < 4.0 * max(stderr, 1e-12)


def test_normal_curvature_clifford_directions(clifford2):
    S = form_at(clifford2, [0.8, 1.2])
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    K = np.sqrt(_k2_sweep(np.array([[1.0, 0.0], diag]), S)[0])
    assert abs(K[0] - math.sqrt(2)) < 1e-12
    assert abs(K[1] - 1.0) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_extremal_clifford_range(m):
    k_min, k_max = extremes(form_at(clifford(m), np.linspace(0.0, 2.0, m)), seed=1)[:2]
    assert abs(k_min - 1.0) < 1e-9
    assert abs(k_max - math.sqrt(m)) < 1e-9


def test_extremal_constant_designs(hexagonal, d4):
    k_min, k_max = extremes(form_at(hexagonal, [1.3, 0.4]), seed=2)[:2]
    assert abs(k_min - math.sqrt(1.5)) < 1e-9
    assert abs(k_max - math.sqrt(1.5)) < 1e-9
    k_min, k_max = extremes(form_at(d4, [0.1, 0.9, 1.7, 2.5]), seed=3)[:2]
    assert abs(k_min - math.sqrt(2)) < 1e-8
    assert abs(k_max - math.sqrt(2)) < 1e-8


def _check_extremes(S, seed=0):
    """For a (1, m, q) batch: the extremizer's values bracket a dense scan,
    its directions reproduce its values and, for n >= 3, are stationary on
    the sphere.  Returns the extremes."""
    k_min, k_max, u_min, u_max = ext = extremes(S, seed)
    full = _full_form(S)[0]
    scale = max(1.0, float(np.einsum("ijq,ijq->", full, full)))
    lo, hi = reference_k2_range(full)
    assert k_max ** 2 >= hi - 1e-12 * scale
    assert k_min ** 2 <= lo + 1e-12 * scale
    for k, u in ((k_min, u_min), (k_max, u_max)):
        assert abs(k_of(full, u) - k) <= 1e-12 * math.sqrt(scale)
        if full.shape[0] >= 3:
            v = np.einsum("i,j,ijq->q", u, u, full)
            g = np.einsum("ijq,j,q->i", full, u, v)
            assert np.linalg.norm(g - (g @ u) * u) <= 1e-8 * scale
    return ext


@pytest.mark.parametrize("make", [
    lambda: perturbed_clifford(2, seed=5),
    lambda: subtorus_immersion(builtin_design("hex2")),    # constant K
    lambda: perturbed_clifford(3, seed=1),
    lambda: ball_immersion(3, 7, seed=7),
    lambda: ball_immersion(5, 11, seed=3),
], ids=["wavy2", "hex2", "wavy3", "ball37", "ball511"])
def test_extremizer_against_dense_scan(make):
    imm = make()
    for theta in random_points(imm.n, 3, seed=61):
        _check_extremes(form_at(imm, theta), seed=1)


def test_power_climb_keeps_one_live_row_per_cluster():
    # A repeated start is a cluster from the first step: the lower row climbs
    # on, the repeat stops at the first stall check (both ascending and
    # descending), and never ends past the row it defers to.
    S = _chunk_core(ball_immersion(3, 7, seed=7), random_points(3, 1, seed=61))[2]
    full = _full_form(S)
    M = np.einsum("pijq,pklq->pijkl", full, full)
    D = _directions(3, 8, 0)
    for sign in (1.0, -1.0):
        U = _power_climb(M, np.vstack([D, D[:1]]), sign)[0]
        v = np.einsum("ri,rj,ijq->rq", U, U, full[0])
        k2 = np.einsum("rq,rq->r", v, v)
        assert not np.array_equal(U[0], U[8])
        assert sign * (k2[0] - k2[8]) >= 0.0


@pytest.mark.parametrize("make,sizes,seed", [
    (lambda: perturbed_clifford(3, seed=1), (8, 8, 8), 0),
    (lambda: ball_immersion(4, 9, seed=7), (4, 4, 4, 4), 1),
    (lambda: perturbed_clifford(5, seed=2), (4, 4, 4, 4, 4), 3),
], ids=["wavy3", "ball49", "wavy5"])
def test_best_found_K_climbs_one_side_only(make, sizes, seed):
    # Ascents alone give the best-found K_max, and descents alone K_min, bit
    # for bit as climbing both ways from the same starts, where the climb
    # beats the grid's value.
    imm, grid = make(), TorusGrid(sizes)
    for highest, K in enumerate(grid_K_estimates(imm, grid, seed)):
        picks = np.argsort(K)[-4:] if highest else np.argsort(K)[:4]
        both = extremal_normal_curvature(_chunk_core(imm, grid.theta_at(picks))[2], seed)[highest]
        values = np.append(K[picks], both)
        assert (values.argmax() if highest else values.argmin()) >= 4     # the climb wins
        assert _best_found_K(imm, grid, K, seed, bool(highest)) == (values.max() if highest else values.min())


def test_extremizer_degree_one_derivative():
    # II(u, u) = a + b cos s + c sin s with |b| = |c| and b _|_ c: the quartic's
    # leading coefficient vanishes, and K^2 = |a|^2 + |b|^2 + 2 a.b cos s + 2 a.c sin s.
    a = np.array([0.0, 0.0, 0.4, 0.2, 1.0])
    b = np.array([0.0, 0.0, 0.7, 0.0, 0.0])
    c = np.array([0.0, 0.0, 0.0, 0.7, 0.0])
    k_min, k_max = _check_extremes(np.array([[a + b, c, a - b]]))[:2]   # pairs 00, 01, 11
    mid, amp = a @ a + b @ b, 2.0 * math.hypot(a @ b, a @ c)
    assert abs(k_max ** 2 - (mid + amp)) < 1e-14
    assert abs(k_min ** 2 - (mid - amp)) < 1e-14


def test_grid_K_estimates_exact_for_surfaces(wavy2):
    grid = TorusGrid((8, 8))
    k_min, k_max = grid_K_estimates(wavy2, grid)
    for idx in (0, 21, 50):
        lo, hi = reference_k2_range(full_at(wavy2, grid.theta_at(idx)))
        assert k_max[idx] ** 2 >= hi - 1e-12 and k_min[idx] ** 2 <= lo + 1e-12
        assert k_max[idx] ** 2 <= hi + 1e-8 and k_min[idx] ** 2 >= lo - 1e-8


@pytest.mark.parametrize("make", [lambda: perturbed_clifford(3, seed=1), lambda: ball_immersion(5, 11, seed=3)],
                         ids=["wavy3", "ball5"])
def test_K_range_ends_are_the_full_sweeps(make):
    # _K_range locates its two ends on the pair Gram form and re-reads K there
    # exactly: each end is the direct sweep's over all 256 directions to
    # 1e-14, checked at the points whose extreme direction comes after the
    # first 32, over more than one of the form's 256-point blocks.
    imm, seed = make(), 2
    S = _chunk_core(imm, random_points(imm.n, 300, seed=73))[2]
    K2 = reference_k2_sweep(_directions(imm.n, 256, seed), _full_form(S))
    for end, K in zip(("min", "max"), _K_range(S, seed)):
        late = np.flatnonzero(getattr(K2, "arg" + end)(axis=1) >= 32)
        assert late.size >= 100, end
        swept = np.sqrt(getattr(K2, end)(axis=1)[late])
        np.testing.assert_allclose(K[late], swept, rtol=1e-14, atol=0, err_msg=end)


def test_only_pointwise_samples_K():
    # Every per-point K range is pointwise._K_range: no other module builds a
    # direction set or sweeps K.
    package = Path(pointwise.__file__).parent
    helpers = {"_directions", "_k2_sweep", "_sweep_coefficients"}
    callers = set()
    for path in package.glob("*.py"):
        if path.stem == "pointwise":
            continue
        for top in ast.parse(path.read_text()).body:
            callers.update((path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                           if isinstance(node, ast.Call)
                           and getattr(node.func, "attr", getattr(node.func, "id", None)) in helpers)
    assert callers == set()


def test_sweeping_passes_build_the_direction_set_before_the_fork():
    # A pass that sweeps K builds the direction set, and with it numpy.random,
    # before grid_pass forks, so that its workers inherit both instead of each
    # importing numpy.random; in a fresh interpreter, where nothing has
    # loaded numpy.random yet, every such fork_map call sees both in place.
    # grid_K_estimates at a seed the cached pass did not sweep reruns the
    # field pass with that seed's sweep.
    code = """if True:
        import sys
        from toricurv import forked, intrinsic, pointwise
        from toricurv.designs import clifford
        from toricurv.quadrature import TorusGrid
        seen, fork_map = [sorted(m for m in sys.modules if m.startswith("numpy.random"))], forked.fork_map

        def recording(task, items, what):
            seen.append((what, "numpy.random" in sys.modules, pointwise._directions.cache_info().currsize))
            return fork_map(task, items, what)

        forked.fork_map = recording
        imm, grid = clifford(3), TorusGrid((6, 6, 6))
        pointwise.grid_fields(imm, grid, sweep=5)
        pointwise.grid_K_estimates(imm, grid, 6)
        intrinsic.analysis_grid(imm, grid, 7)
        print(seen)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == str([[], ("grid fields", True, 1), ("grid fields", True, 2),
                                      ("analysis pass", True, 3)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_climb_starts_are_the_sweeps_first_rows(n):
    starts, sweep = _directions(n, 16 * n, 7), _directions(n, 256, 7)
    assert np.array_equal(starts, sweep[:16 * n])
    assert not starts.flags.writeable and not sweep.flags.writeable


# ---------------------------------------------------------------- principal values

def principal_values(full, nu):
    """Eigenvalues (ascending) of the scalar form <II, nu> for a unit normal nu."""
    return np.linalg.eigvalsh(np.einsum("ijq,q->ij", full, nu))


def test_principal_values_clifford(clifford2):
    jet = jet_of(clifford2, [0.5, 1.6])
    S = full_at(clifford2, [0.5, 1.6])
    np.testing.assert_allclose(principal_values(S, -jet.value), [1.0, 1.0], atol=1e-12)


def test_principal_values_unit_circle():
    jet = jet_of(clifford(1), [0.4])
    S = full_at(clifford(1), [0.4])
    np.testing.assert_allclose(principal_values(S, -jet.value), [1.0], atol=1e-12)


# ---------------------------------------------------------------- 4-tensor

def test_inner_tensor_diagonal_is_k_squared(wavy2):
    S = form_at(wavy2, [1.0, 2.0])
    u = np.array([0.6, 0.8])
    assert abs(pairing(_full_form(S)[0], u, u, u, u) - _k2_sweep(u[None], S)[0, 0]) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_inner_tensor_symmetries(seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    S = full_at(clifford(2), rng.uniform(0, 2 * math.pi, 2))
    x, y, v, w = rng.standard_normal((4, 2))
    a = pairing(S, x, y, v, w)
    assert abs(a - pairing(S, v, w, x, y)) < 1e-12
    assert abs(a - pairing(S, y, x, v, w)) < 1e-12


def test_inner_tensor_clifford_blocks(clifford2):
    S = full_at(clifford2, [0.3, 0.9])
    e1, e2 = np.eye(2)
    assert abs(pairing(S, e1, e1, e2, e2)) < 1e-12


# ---------------------------------------------------------------- invariants bundle

def test_invariants_clifford2(clifford2):
    iv = invariants_at(jet_of(clifford2, [2.2, 0.1]))
    assert abs(iv.H2 - 4.0) < 1e-12
    assert abs(iv.II2 - 4.0) < 1e-12
    assert abs(iv.zh - 1.5) < 1e-12
    assert abs(iv.sc_ext) < 1e-12
    assert abs(iv.K_min - 1.0) < 1e-9
    assert abs(iv.K_max - math.sqrt(2)) < 1e-9
    assert abs(iv.r - 1.0) < 1e-12


def test_invariants_hexagonal(hexagonal):
    iv = invariants_at(jet_of(hexagonal, [0.8, 1.1]))
    assert abs(iv.H2 - 4.0) < 1e-12
    assert abs(iv.zh - 1.5) < 1e-12
    assert abs(iv.sc_ext) < 1e-12
    assert abs(iv.K_min - math.sqrt(1.5)) < 1e-9
    assert abs(iv.K_max - math.sqrt(1.5)) < 1e-9
    assert abs(iv.r - 1.0) < 1e-12


def test_invariants_unit_circle():
    iv = invariants_at(jet_of(clifford(1), [2.9]))
    assert abs(iv.H2 - 1.0) < 1e-12
    assert abs(iv.II2 - 1.0) < 1e-12
    assert abs(iv.zh - 1.0) < 1e-12
    assert abs(iv.sc_ext) < 1e-12


def test_range_sandwich(wavy2):
    for theta in random_points(2, 6, seed=8):
        iv = invariants_at(jet_of(wavy2, theta))
        assert iv.K_min ** 2 <= iv.zh + 1e-12
        assert iv.zh <= iv.K_max ** 2 + 1e-12


def test_frame_independence(wavy2):
    theta = [1.4, 0.2]
    jet = jet_of(wavy2, theta)
    _, E, default, _ = _chunk_core(wavy2, points(theta))
    layout = _pairs(2)
    # A 2x2 reflection is symmetric, so a proper rotation is needed as well to
    # tell R S R' from R' S R.
    rotation = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    for R in (random_orthogonal(2, seed=17), rotation):
        # II in the frame R E is R S R'; it matches II built directly in that frame.
        full = np.einsum("ia,jb,abq->ijq", R, R, _full_form(default)[0])
        np.testing.assert_allclose(full, reference_second_form(jet, R @ E[0])[0], atol=1e-12)
        rotated = full[None, layout.I, layout.J]
        for fn in (lambda s: math.sqrt(_scalar_invariants(s)[1][0]),    # |H|
                   lambda s: _scalar_invariants(s)[3][0],               # zh
                   lambda s: _scalar_invariants(s)[2][0]):              # |II|^2
            assert abs(fn(default) - fn(rotated)) < 1e-9
        a, b = extremes(default, seed=0), extremes(rotated, seed=0)
        assert abs(a[0] - b[0]) < 1e-9
        assert abs(a[1] - b[1]) < 1e-9


def test_euclidean_invariance(wavy2):
    Q = random_orthogonal(4, seed=23)
    moved = transform(wavy2, Q, np.full(4, 0.05), 1.0)
    for theta in random_points(2, 4, seed=29):
        a = invariants_at(jet_of(wavy2, theta), seed=1)
        b = invariants_at(jet_of(moved, theta), seed=1)
        for name in ("H2", "II2", "zh", "sc_ext", "K_min", "K_max"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-9


def test_scaling_law(wavy2):
    lam = 3.0
    scaled = transform(wavy2, np.eye(4), None, lam)
    for theta in random_points(2, 4, seed=31):
        a = invariants_at(jet_of(wavy2, theta), seed=1)
        b = invariants_at(jet_of(scaled, theta), seed=1)
        np.testing.assert_allclose(b.H, a.H / lam, atol=1e-9)
        assert abs(b.zh - a.zh / lam**2) < 1e-9
        assert abs(b.sc_ext - a.sc_ext / lam**2) < 1e-9
        assert abs(b.K_min - a.K_min / lam) < 1e-9
        assert abs(b.K_max - a.K_max / lam) < 1e-9


def test_grid_fields_match_pointwise(wavy2):
    grid = TorusGrid((8, 8))
    fields = grid_fields(wavy2, grid)
    thetas = grid.points()
    for idx in (0, 13, 37, 60):
        jet = jet_of(wavy2, thetas[idx])
        S, _ = reference_second_form(jet)
        H = np.einsum("iiq->q", S)
        H2 = float(H @ H)
        II2 = float(np.einsum("ijq,ijq->", S, S))
        assert abs(fields.zh[idx] - (2.0 * II2 + H2) / 8.0) < 1e-12
        assert abs(fields.H2[idx] - H2) < 1e-12
        assert abs(fields.sc_ext[idx] - (H2 - II2)) < 1e-12
        assert abs(fields.r[idx] - np.linalg.norm(jet.value)) < 1e-12
        assert abs(fields.norm_H[idx] - math.sqrt(H2)) < 1e-12
        assert abs(fields.zh[idx] - invariants_at(jet).zh) < 1e-12


def test_base_grid_fields_do_not_depend_on_the_doubled_grid():
    # For n >= 5 the jet GEMM rounds d2 by its shape, so a pass over the
    # doubled grid differs from one over the base grid in the last bits (12
    # hx entries of ball(5, 11, 3) at 4^5); grid_fields of a grid is that
    # grid's own pass whether or not its doubled grid was read first.
    grid = TorusGrid((4,) * 5)
    first = ball_immersion(5, 11, seed=3)
    alone = grid_fields(first, grid)
    imm = dataclasses.replace(first)      # the same series, with an empty grid cache
    grid_fields(imm, grid.doubled())
    after = grid_fields(imm, grid)
    for name in pointwise._FIELD_NAMES:
        assert np.array_equal(getattr(after, name), getattr(alone, name)), name


def test_certified_grid_pass_makes_no_lapack_call(monkeypatch):
    # The metric factor comes from elementwise column sweeps; a grid whose
    # batches are certified never reaches an eigensolve.
    def no_lapack(*args, **kwargs):
        raise AssertionError("per-point LAPACK call in the grid pass")

    for name in ("cholesky", "solve", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    grid_fields(subtorus_immersion(builtin_design("d4")), TorusGrid((6,) * 4))
    grid_fields(dataclasses.replace(perturbed_clifford(2, seed=5)), TorusGrid((16, 16)))     # not memoized


def test_fields_are_nan_where_the_metric_overflows():
    # The metric overflows at all but a few of the 32^2 points, where |f|
    # stays finite: every column read from the metric factor is NaN there,
    # not a finite value from an L of zeros.
    imm, grid = parse_immersion(overflowing_torus(huge_frequency=True)), TorusGrid((32, 32))
    fields = grid_fields(imm, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = jets_at(imm, grid.points(), 1)[1]
        overflowed = ~np.isfinite(d1 @ d1.transpose(0, 2, 1)).all(axis=(1, 2))
    assert 0 < overflowed.sum() < grid.npoints
    assert np.isfinite(fields.r).all()
    for name in ("sqrt_det", "hx", "H2", "II2", "xt2"):
        assert np.isnan(getattr(fields, name)[overflowed]).all(), name


def test_weighted_average_constant_is_exact(clifford2, grid16):
    fields = grid_fields(clifford2, grid16)
    assert weighted_average(fields, np.ones(grid16.npoints)) == 1.0


@pytest.mark.parametrize("through_origin", [False, True], ids=["perturbed_clifford31", "origin"])
def test_derived_fields_bit_identical(through_origin):
    # norm_H, zh, sc_ext, sin_beta and cos_beta are read off the six stored
    # fields; they equal _scalar_invariants and the direct beta expressions
    # on the same kernel batch bit for bit, NaN at the origin included.
    imm, grid = perturbed_clifford(3, seed=1), TorusGrid((8,) * 3)
    if through_origin:
        x = evaluate_jet(imm, grid.theta_at(100), order=0).value
        imm = transform(imm, np.eye(imm.q), -x, 1.0)
    fields = grid_fields(imm, grid)
    value, E, S, _ = _chunk_core(imm, grid.points())
    _, H2, _, zh, sc = _scalar_invariants(S)
    r = np.linalg.norm(value, axis=1)
    xt = np.einsum("piq,pq->pi", E, value)
    xt2 = np.einsum("pi,pi->p", xt, xt)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_b = np.sqrt(np.clip(xt2, 0.0, None)) / r
        cos_b = np.sqrt(np.clip(r * r - xt2, 0.0, None)) / r
    sin_b[r < 1e-12] = np.nan
    cos_b[r < 1e-12] = np.nan
    assert np.isnan(fields.sin_beta).any() == through_origin
    for name, expected in (("norm_H", np.sqrt(H2)), ("zh", zh), ("sc_ext", sc),
                           ("sin_beta", sin_b), ("cos_beta", cos_b)):
        np.testing.assert_array_equal(getattr(fields, name), expected, err_msg=name)
