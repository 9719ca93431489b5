import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricurv.designs import clifford
from toricurv.errors import DegenerateMetric, NotNormal, NotUnit
from toricurv.immersion import FourierImmersion, FourierTerm, Signature, evaluate_jet, transform
from toricurv.pointwise import (
    TangentNormalFrame,
    extremal_normal_curvature,
    frame_at,
    grid_fields,
    invariants_at,
    mean_curvature,
    metric_at,
    normal_curvature,
    principal_values,
    second_form_at,
    second_form_inner,
    weighted_average,
    zh_at,
)
from toricurv.quadrature import SphereSampler, TorusGrid, sphere_average_mc

from conftest import random_orthogonal, random_points, reference_second_form


def jet_of(imm, theta, order=2):
    return evaluate_jet(imm, theta, order=order)


# ---------------------------------------------------------------- metric

def test_metric_clifford(clifford2):
    mp = metric_at(jet_of(clifford2, [0.4, 2.2]))
    np.testing.assert_allclose(mp.g, 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(mp.g @ mp.g_inv, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(mp.L @ mp.g @ mp.L.T, np.eye(2), atol=1e-10)
    assert abs(mp.sqrt_det - 0.5) < 1e-14


def test_metric_hexagonal(hexagonal):
    mp = metric_at(jet_of(hexagonal, [1.0, 0.3]))
    np.testing.assert_allclose(mp.g, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-14)


def test_metric_unit_circle():
    mp = metric_at(jet_of(clifford(1), [1.7]))
    np.testing.assert_allclose(mp.g, [[1.0]], atol=1e-14)


def test_metric_degenerate_for_constant_map():
    constant = FourierImmersion(Signature(2, 4), (), translate=[0.5, 0, 0, 0])
    with pytest.raises(DegenerateMetric):
        metric_at(jet_of(constant, [0.0, 0.0]))
    with pytest.raises(DegenerateMetric):
        second_form_at(jet_of(constant, [0.0, 0.0]))


def test_degeneracy_policy_below_cholesky_failure():
    # f = (cos t1, sin t1, 1e-7 sin t2): lambda_min(g) = 1e-14 cos^2 t2 < 1e-12
    # everywhere, yet Cholesky succeeds.  Both entry points apply one policy
    # and name the point.
    thin = FourierImmersion(Signature(2, 3), (
        FourierTerm(k=(1, 0), a=[1.0, 0.0, 0.0], b=[0.0, 1.0, 0.0]),
        FourierTerm(k=(0, 1), a=[0.0, 0.0, 0.0], b=[0.0, 0.0, 1e-7]),
    ))
    jet = jet_of(thin, [0.3, 0.0], order=1)
    np.linalg.cholesky(jet.d1 @ jet.d1.T)
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.3, 0\.0\]"):
        metric_at(jet)
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.0, 0\.0\]"):
        grid_fields(thin, TorusGrid((8, 8)))


# ---------------------------------------------------------------- frame

def test_frame_orthonormal_and_projector(wavy2):
    for theta in random_points(2, 5, seed=2):
        jet = jet_of(wavy2, theta)
        frame = frame_at(jet)
        np.testing.assert_allclose(frame.E @ frame.E.T, np.eye(2), atol=1e-10)
        for a in range(2):
            assert np.linalg.norm(frame.project_normal(jet.d1[a])) < 1e-9


# ---------------------------------------------------------------- second form

def test_second_form_clifford_values(clifford2):
    t1, t2 = 0.8, 2.5
    S = second_form_at(jet_of(clifford2, [t1, t2]))
    expected_S11 = -math.sqrt(2) * np.array([math.cos(t1), math.sin(t1), 0, 0])
    np.testing.assert_allclose(S.S[0, 0], expected_S11, atol=1e-12)
    np.testing.assert_allclose(S.S[0, 1], np.zeros(4), atol=1e-12)
    assert abs(np.linalg.norm(S.S[0, 0]) - math.sqrt(2)) < 1e-12


def test_second_form_symmetry_and_normality(wavy2):
    jet = jet_of(wavy2, [0.6, 1.9])
    S = second_form_at(jet)
    assert np.array_equal(S.S, S.S.transpose(1, 0, 2))
    for i in range(2):
        for j in range(2):
            assert np.max(np.abs(S.frame.E @ S.S[i, j])) < 1e-9


def test_second_form_hexagonal_constant_curvature(hexagonal):
    S = second_form_at(jet_of(hexagonal, [0.2, 1.4]))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(77)))
    for _ in range(64):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        assert abs(normal_curvature(S, u) - math.sqrt(1.5)) < 1e-10


# ---------------------------------------------------------------- H, zh, K

def test_mean_curvature_clifford(clifford2):
    jet = jet_of(clifford2, [1.1, 0.7])
    H = mean_curvature(second_form_at(jet))
    np.testing.assert_allclose(H, -2.0 * jet.value, atol=1e-12)
    assert abs(float(H @ jet.value) + 2.0) < 1e-12


def test_mean_curvature_norms():
    assert abs(np.linalg.norm(mean_curvature(second_form_at(jet_of(clifford(3), [0.1, 2, 4])))) - 3) < 1e-12


def test_mean_curvature_hexagonal(hexagonal):
    H = mean_curvature(second_form_at(jet_of(hexagonal, [2.0, 0.5])))
    assert abs(np.linalg.norm(H) - 2.0) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_zh_clifford_family(m):
    S = second_form_at(jet_of(clifford(m), np.linspace(0.3, 1.8, m)))
    assert abs(zh_at(S) - 3.0 * m / (m + 2)) < 1e-12


def test_zh_hexagonal(hexagonal):
    S = second_form_at(jet_of(hexagonal, [0.9, 2.7]))
    assert abs(zh_at(S) - 1.5) < 1e-12


def test_zh_matches_sphere_average(wavy2, hexagonal):
    # Bridge between the definition (average of K^2) and the closed form.
    for imm, seed in ((wavy2, 5), (hexagonal, 6)):
        for i, theta in enumerate(random_points(2, 3, seed=40 + seed)):
            S = second_form_at(jet_of(imm, theta))
            sampler = SphereSampler(2, 200_000, seed=seed * 10 + i)

            def ksq(dirs):
                vals = np.einsum("da,db,abq->dq", dirs, dirs, S.S)
                return np.einsum("dq,dq->d", vals, vals)

            mean, stderr = sphere_average_mc(ksq, sampler)
            assert abs(mean - zh_at(S)) < 4.0 * max(stderr, 1e-12)


def test_normal_curvature_clifford_directions(clifford2):
    S = second_form_at(jet_of(clifford2, [0.8, 1.2]))
    assert abs(normal_curvature(S, [1.0, 0.0]) - math.sqrt(2)) < 1e-12
    diag = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(normal_curvature(S, diag) - 1.0) < 1e-12
    with pytest.raises(NotUnit):
        normal_curvature(S, [1.0, 1.0])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_extremal_clifford_range(m):
    S = second_form_at(jet_of(clifford(m), np.linspace(0.0, 2.0, m)))
    ext = extremal_normal_curvature(S, seed=1)
    assert abs(ext.k_min - 1.0) < 1e-9
    assert abs(ext.k_max - math.sqrt(m)) < 1e-9


def test_extremal_constant_designs(hexagonal, d4):
    S = second_form_at(jet_of(hexagonal, [1.3, 0.4]))
    ext = extremal_normal_curvature(S, seed=2)
    assert abs(ext.k_min - math.sqrt(1.5)) < 1e-9
    assert abs(ext.k_max - math.sqrt(1.5)) < 1e-9
    S = second_form_at(jet_of(d4, [0.1, 0.9, 1.7, 2.5]))
    ext = extremal_normal_curvature(S, seed=3)
    assert abs(ext.k_min - math.sqrt(2)) < 1e-8
    assert abs(ext.k_max - math.sqrt(2)) < 1e-8


# ---------------------------------------------------------------- principal values

def test_principal_values_clifford(clifford2):
    jet = jet_of(clifford2, [0.5, 1.6])
    S = second_form_at(jet)
    np.testing.assert_allclose(principal_values(S, -jet.value), [1.0, 1.0], atol=1e-12)


def test_principal_values_rejects_tangential(clifford2):
    jet = jet_of(clifford2, [0.5, 1.6])
    S = second_form_at(jet)
    tangent = jet.d1[0] / np.linalg.norm(jet.d1[0])
    with pytest.raises(NotNormal):
        principal_values(S, tangent)


def test_principal_values_unit_circle():
    jet = jet_of(clifford(1), [0.4])
    S = second_form_at(jet)
    np.testing.assert_allclose(principal_values(S, -jet.value), [1.0], atol=1e-12)


# ---------------------------------------------------------------- 4-tensor

def test_inner_tensor_diagonal_is_k_squared(wavy2):
    S = second_form_at(jet_of(wavy2, [1.0, 2.0]))
    u = np.array([0.6, 0.8])
    assert abs(second_form_inner(S, u, u, u, u) - normal_curvature(S, u) ** 2) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_inner_tensor_symmetries(seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    S = second_form_at(jet_of(clifford(2), rng.uniform(0, 2 * math.pi, 2)))
    x, y, v, w = rng.standard_normal((4, 2))
    a = second_form_inner(S, x, y, v, w)
    assert abs(a - second_form_inner(S, v, w, x, y)) < 1e-12
    assert abs(a - second_form_inner(S, y, x, v, w)) < 1e-12


def test_inner_tensor_clifford_blocks(clifford2):
    S = second_form_at(jet_of(clifford2, [0.3, 0.9]))
    e1, e2 = np.eye(2)
    assert abs(second_form_inner(S, e1, e1, e2, e2)) < 1e-12


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
    metric = metric_at(jet)
    default = second_form_at(jet, metric)
    # A 2x2 reflection is symmetric, so a proper rotation is needed as well to
    # tell R S R' from R' S R.
    rotation = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    for R in (random_orthogonal(2, seed=17), rotation):
        rotated_frame = TangentNormalFrame(E=R @ metric.L @ jet.d1)
        rotated = second_form_at(jet, metric, frame=rotated_frame)
        # The rotation of the kernel's II matches II built directly in the rotated frame.
        np.testing.assert_allclose(rotated.S, reference_second_form(jet, rotated_frame.E)[0],
                                   atol=1e-12)
        for fn in (lambda s: np.linalg.norm(mean_curvature(s)), zh_at,
                   lambda s: float(np.einsum("ijq,ijq->", s.S, s.S))):
            assert abs(fn(default) - fn(rotated)) < 1e-9
        a = extremal_normal_curvature(default, seed=0)
        b = extremal_normal_curvature(rotated, seed=0)
        assert abs(a.k_min - b.k_min) < 1e-9
        assert abs(a.k_max - b.k_max) < 1e-9


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


def test_weighted_average_constant_is_exact(clifford2, grid16):
    fields = grid_fields(clifford2, grid16)
    assert weighted_average(fields, np.ones(grid16.npoints)) == 1.0
