import math
from fractions import Fraction

import numpy as np
import pytest

from toricurv.designs import clifford
from toricurv.errors import DegenerateMetric, DimensionTooLow, OriginPoint
from toricurv.fixtures import ball_immersion, perturbed_clifford, round_sphere
from toricurv.immersion import FourierImmersion, FourierTerm, Signature, transform
from toricurv.intrinsic import (
    _christoffel,
    conformal_grid,
    conformal_rate,
    conformal_trace,
    curvature_grid,
    gauss_residuals,
)
from toricurv.pointwise import _chunk_core, _scalar_invariants
from toricurv.quadrature import TorusGrid

from conftest import random_points


def bumped_clifford2(eps=0.05):
    """Clifford 2-torus plus one high-frequency graph bump (not rescaled)."""
    base = clifford(2)
    bump_a = np.zeros(4)
    bump_a[1] = eps
    terms = tuple(FourierTerm(t.k, base.scale * t.a, base.scale * t.b) for t in base.terms)
    terms += (FourierTerm((3, 2), bump_a, np.zeros(4)),)
    return FourierImmersion(Signature(2, 4), terms)


def christoffel_at(imm, theta):
    """The third-order path at one point, as a batch of one."""
    return _christoffel(imm, np.asarray(theta, dtype=float).reshape(1, -1))


# ---------------------------------------------------------------- metric jets

def test_metric_jets_constant_for_clifford(clifford2):
    mj = christoffel_at(clifford2, [0.7, 1.9])
    assert np.max(np.abs(mj.dg[0])) < 1e-14
    assert np.max(np.abs(mj.ddg[0])) < 1e-14


def test_metric_jets_constant_for_hexagonal(hexagonal):
    mj = christoffel_at(hexagonal, [2.2, 0.4])
    assert np.max(np.abs(mj.dg[0])) < 1e-14


def test_metric_jets_match_finite_differences(wavy2):
    # Oracle: central differences of the metric itself.
    h = 1e-5
    theta = np.array([1.3, 0.8])
    mj = christoffel_at(wavy2, theta)

    def metric(t):
        return christoffel_at(wavy2, t).g[0]

    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (metric(theta + step) - metric(theta - step)) / (2 * h)
        np.testing.assert_allclose(mj.dg[0, k], fd, atol=1e-6)


def test_metric_jets_symmetries(wavy2):
    mj = christoffel_at(wavy2, [0.1, 2.6])
    dg, ddg = mj.dg[0], mj.ddg[0]
    assert np.max(np.abs(dg - dg.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(ddg - ddg.transpose(1, 0, 2, 3))) < 1e-12
    assert np.max(np.abs(ddg - ddg.transpose(0, 1, 3, 2))) < 1e-12


# ---------------------------------------------------------------- scalar curvature

def test_flat_fixtures_have_zero_curvature(clifford3, hexagonal, d4):
    for imm in (clifford3, hexagonal, d4):
        theta = np.linspace(0.2, 1.1, imm.n)
        mj = christoffel_at(imm, theta)
        assert abs(mj.sc[0]) < 1e-9
        assert mj.riem_max[0] < 1e-9


def test_round_sphere_pins_the_convention():
    # On the chart (t, p), |R^p_tpt| = 1 >= |R^t_ptp| = sin^2 t at every radius.
    for radius in (1.0, 2.0, 0.5):
        sph = round_sphere(radius)
        for theta in ([1.2, 0.5], [2.0, 3.1], [0.9, 4.4]):
            mj = christoffel_at(sph, theta)
            assert abs(mj.sc[0] - 2.0 / radius**2) < 1e-9
            assert abs(mj.riem_max[0] - 1.0) < 1e-12


def test_christoffel_path_applies_the_degeneracy_rule():
    # lambda_min(g) = sin^2(1e-7) = 1e-14 < 1e-12, yet g inverts: Sc would read 1.9457...
    # The point is named, as on every path.
    with pytest.raises(DegenerateMetric, match=r"eigenvalue 1\.000e-14 < 1e-12 at theta=\[1e-07, 0\.3\]"):
        christoffel_at(round_sphere(), [1e-7, 0.3])


def test_christoffel_path_names_the_degenerate_point():
    sph = round_sphere()
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.0, 0\.3\]"):
        gauss_residuals(sph, np.array([[0.0, 0.3]]))
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.0, 0\.3\]"):
        conformal_trace(sph, [0.0, 0.3], 1.0)
    with pytest.raises(DegenerateMetric, match=r"theta=\[0\.0, 0\.0\]"):
        curvature_grid(sph, TorusGrid((8, 8)))


def test_graph_perturbed_torus_matches_extrinsic_form():
    imm = bumped_clifford2(0.05)
    res = gauss_residuals(imm, random_points(2, 100, seed=91))
    assert np.max(np.abs(res)) < 1e-6


# ---------------------------------------------------------------- Gauss residual

def test_gauss_residual_clifford3(clifford3):
    for residual in gauss_residuals(clifford3, random_points(3, 10, seed=14)):
        assert abs(residual) < 1e-9


def test_gauss_residual_random_general_position(random25):
    res = gauss_residuals(random25, random_points(2, 200, seed=55))
    assert np.max(np.abs(res)) < 1e-6


def test_gauss_residual_scales(random25):
    scaled = transform(random25, np.eye(5), None, 3.0)
    pts = random_points(2, 50, seed=56)
    base = np.max(np.abs(gauss_residuals(random25, pts)))
    res = np.max(np.abs(gauss_residuals(scaled, pts)))
    assert res < 1e-6
    assert res < base  # residual roundoff shrinks with curvature 1/lam^2


# ---------------------------------------------------------------- conformal machinery

def test_conformal_rate_exact_values():
    assert conformal_rate(3) == Fraction(9, 8)
    assert conformal_rate(4) == Fraction(2)
    assert conformal_rate(5) == Fraction(45, 16)
    for n in range(3, 12):
        k = conformal_rate(n)
        assert Fraction(4, 3) * Fraction(n - 1, n - 2) * k == n
    with pytest.raises(DimensionTooLow):
        conformal_rate(2)


def test_conformal_trace_clifford3(clifford3):
    k = conformal_rate(3)
    tr = conformal_trace(clifford3, [0.5, 1.0, 2.0], k)
    assert abs(tr.r - 1.0) < 1e-12
    assert abs(tr.beta) < 1e-7
    assert abs(tr.require_alpha() - math.pi) < 1e-7
    assert abs(tr.lap_u) < 1e-10
    assert abs(tr.require_conformal()) < 1e-10
    assert abs(tr.grad_f_norm) < 1e-7
    assert abs(tr.lap_f) < 1e-10
    assert abs(tr.sc) < 1e-10


def test_laplace_identity_on_moved_clifford3(clifford3):
    # Independent check of lap(|x|^2/2) = n + <H, x>: the left side comes from
    # Christoffel symbols, H and x from the frame pipeline.
    c = np.zeros(6)
    c[0] = 0.1
    moved = transform(clifford3, np.eye(6), c, 0.4)
    for theta in random_points(3, 8, seed=61):
        tr = conformal_trace(moved, theta, conformal_rate(3))
        value, _, S, _ = _chunk_core(moved, theta[None])
        H = _scalar_invariants(S)[0][0]
        expected = 3.0 + float(H @ value[0])
        assert abs(tr.lap_f - expected) < 1e-8


def test_gradient_identity_and_angle_sandwich(wavy2):
    for theta in random_points(2, 10, seed=62):
        tr = conformal_trace(wavy2, theta, 1.0)
        assert abs(tr.grad_f_norm - tr.r * math.sin(tr.beta)) < 1e-8
        if tr.alpha is not None:
            assert tr.alpha >= tr.beta - 1e-8
            assert tr.alpha <= math.pi - tr.beta + 1e-8


def test_conformal_trace_dimension_gate(wavy2):
    tr = conformal_trace(wavy2, [0.3, 0.8], 1.0)
    assert tr.conformal_value is None
    with pytest.raises(DimensionTooLow):
        tr.require_conformal()
    assert tr.lap_u == tr.lap_u  # still computed (not NaN)


def test_conformal_trace_origin_gate():
    # Unit circle shifted so f(pi) is the origin.
    shifted = transform(clifford(1), np.eye(2), [1.0, 0.0], 1.0)
    with pytest.raises(OriginPoint):
        conformal_trace(shifted, [math.pi], 1.0)


def test_conformal_grid_nonpositive_minimum(clifford3, clifford4, d4):
    for imm in (clifford3, clifford4, d4):
        grid = TorusGrid((6,) * imm.n)
        cg = conformal_grid(imm, grid, conformal_rate(imm.n))
        assert float(np.min(cg["conformal"])) <= 1e-7


@pytest.mark.parametrize("make", [lambda: perturbed_clifford(3, seed=1),
                                  lambda: ball_immersion(3, 7, seed=7)],
                         ids=["perturbed_clifford31", "ball377"])
def test_conformal_grid_matches_christoffel_path(make):
    # The grid reads Sc, lap_f and |grad f|^2 from closed forms of the
    # second-order fields; the trace computes them from Christoffel symbols.
    imm = make()
    grid = TorusGrid((8, 8, 8))
    k = conformal_rate(3)
    cg = conformal_grid(imm, grid, k)
    for idx in (0, 77, 200, 365, 511):
        tr = conformal_trace(imm, grid.theta_at(idx), k)
        for got, want in ((cg["conformal"][idx], tr.conformal_value), (cg["sc"][idx], tr.sc),
                          (cg["lap_f"][idx], tr.lap_f), (cg["grad2"][idx], tr.grad_f_norm ** 2)):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_conformal_grid_dimension_gate(wavy2, grid16):
    with pytest.raises(DimensionTooLow):
        conformal_grid(wavy2, grid16, 1.0)


def test_curvature_grid_matches_pointwise(wavy2):
    grid = TorusGrid((8, 8))
    sc = curvature_grid(wavy2, grid)
    pts = grid.points()
    for idx in (0, 17, 40):
        assert abs(sc[idx] - christoffel_at(wavy2, pts[idx]).sc[0]) < 1e-12
