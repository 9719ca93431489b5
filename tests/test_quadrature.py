import math

import numpy as np
import pytest

from toricurv.designs import clifford
from toricurv.errors import DegenerateMetric
from toricurv.fixtures import perturbed_clifford
from toricurv.immersion import FourierImmersion, Signature
from toricurv.pointwise import grid_fields, weighted_average
from toricurv.quadrature import (
    MonomialReport,
    SphereSampler,
    TorusGrid,
    _philox,
    monomial_selftest,
    sphere_average_mc,
)


# ---------------------------------------------------------------- grids

def test_doubled_grid_holds_base_points_bit_for_bit():
    for N in range(4, 65):
        grid = TorusGrid((N,))
        j = np.arange(N)
        assert np.array_equal(grid.doubled().theta_at(2 * j), grid.theta_at(j))
    grid = TorusGrid((5, 8))
    j = np.arange(grid.npoints)
    fine = np.ravel_multi_index(tuple(2 * i for i in np.unravel_index(j, grid.sizes)), (10, 16))
    assert np.array_equal(grid.doubled().theta_at(fine), grid.theta_at(j))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((3, 8))
    with pytest.raises(ValueError):
        TorusGrid(())


def test_grid_points_layout():
    grid = TorusGrid((4, 8))
    pts = grid.points()
    assert pts.shape == (32, 2)
    np.testing.assert_allclose(pts[0], [0.0, 0.0])
    np.testing.assert_allclose(pts[1], [0.0, 2 * math.pi / 8])
    np.testing.assert_allclose(grid.theta_at(9), pts[9])
    assert grid.doubled().sizes == (8, 16)


def test_grid_iter_points_covers_everything():
    grid = TorusGrid((4, 4))
    chunks = list(grid.iter_points(chunk=5))
    total = np.concatenate([c[1] for c in chunks])
    np.testing.assert_array_equal(total, grid.points())


def test_default_grids():
    assert TorusGrid.default(2).sizes == (64, 64)
    assert TorusGrid.default(3).sizes == (32, 32, 32)
    assert TorusGrid.default(4).sizes == (16, 16, 16, 16)


# ---------------------------------------------------------------- torus averages

def average(field, imm, grid):
    """Induced-volume average of an array of values, or of a callable
    evaluated at the grid's points."""
    values = field(grid.points()) if callable(field) else field
    return weighted_average(grid_fields(imm, grid), values)


def test_average_of_constant_is_one(clifford2, grid16):
    assert average(np.ones(grid16.npoints), clifford2, grid16) == 1.0


def test_average_zh_clifford(clifford2, grid16):
    fields = grid_fields(clifford2, grid16)
    assert abs(average(fields.zh, clifford2, grid16) - 1.5) < 1e-12


def test_average_divergence_identity(wavy2):
    # average <H, x> = -n on any ball-immersed torus
    grid = TorusGrid((48, 48))
    fields = grid_fields(wavy2, grid)
    assert abs(average(fields.hx, wavy2, grid) + 2.0) < 1e-8


def test_average_accepts_callable(clifford2, grid16):
    val = average(lambda thetas: np.cos(thetas[:, 0]) ** 2, clifford2, grid16)
    assert abs(val - 0.5) < 1e-13


def test_average_aborts_on_degenerate_point():
    constant = FourierImmersion(Signature(2, 4), (), translate=[0.3, 0, 0, 0])
    with pytest.raises(DegenerateMetric):
        average(np.ones(16 * 16), constant, TorusGrid((16, 16)))


def test_trapezoid_exact_below_nyquist(clifford2):
    grid = TorusGrid((16, 16))

    # Frequencies up to 7 < 16/2: exact to roundoff (weights are constant here).
    def field(thetas):
        return 1.0 + 0.3 * np.cos(7 * thetas[:, 0]) - 0.2 * np.sin(5 * thetas[:, 1] + 1.0)

    assert abs(average(field, clifford2, grid) - 1.0) < 1e-13


def refinement_delta(field, imm, grid):
    """Change of the average when every axis of the grid is doubled."""
    return abs(average(field, imm, grid.doubled()) - average(field, imm, grid))


def test_refinement_flags_aliasing():
    circle = clifford(1)
    grid = TorusGrid((32,))

    def aliased(thetas):
        return np.cos(32 * thetas[:, 0])   # exactly at the grid frequency

    assert refinement_delta(aliased, circle, grid) > 1e-3

    def resolved(thetas):
        return 1.0 + np.cos(3 * thetas[:, 0])

    assert refinement_delta(resolved, circle, grid) < 1e-13


def test_refinement_smooth_perturbed_clifford():
    imm = perturbed_clifford(2, seed=1)
    grid = TorusGrid((32, 32))

    def zh_field(thetas):
        from toricurv.pointwise import _chunk_core
        _, _, S, _ = _chunk_core(imm, thetas)     # pairs (0,0), (0,1), (1,1)
        H = S[:, 0] + S[:, 2]
        H2 = np.einsum("pq,pq->p", H, H)
        II2 = np.einsum("pkq,pkq->p", S, S) + np.einsum("pq,pq->p", S[:, 1], S[:, 1])
        return (2 * II2 + H2) / 8.0

    assert refinement_delta(zh_field, imm, grid) < 1e-8


# ---------------------------------------------------------------- sphere sampling

def test_sampler_unit_norm_and_determinism():
    s = SphereSampler(3, 5000, seed=12)
    d1 = s.directions()
    d2 = SphereSampler(3, 5000, seed=12).directions()
    assert np.array_equal(d1, d2)
    np.testing.assert_allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)
    d3 = SphereSampler(3, 5000, seed=13).directions()
    assert not np.array_equal(d1, d3)


def test_philox_key_wraps_modulo_2_64():
    # Every integer seed keys a generator; seeds below 2^64 keep their stream.
    draws = _philox(5).standard_normal(8)
    assert np.array_equal(_philox(2 ** 64 + 5).standard_normal(8), draws)
    assert np.array_equal(np.random.Generator(np.random.Philox(key=np.uint64(5))).standard_normal(8),
                          draws)
    assert np.array_equal(_philox(-1).standard_normal(8), _philox(2 ** 64 - 1).standard_normal(8))


def test_sphere_average_constant():
    mean, stderr = sphere_average_mc(lambda d: np.ones(len(d)), SphereSampler(2, 2000, 0))
    assert mean == 1.0
    assert stderr == 0.0


def test_sphere_average_quartic_moment():
    # E[x1^4] on S^1 is 3/8.
    mean, stderr = sphere_average_mc(lambda d: d[:, 0] ** 4, SphereSampler(2, 1_000_000, 3))
    assert abs(mean - 3.0 / 8.0) < 4.0 * stderr


def test_sphere_average_cross_moment():
    # E[x1^2 x2^2] on S^2 is 1/15.
    mean, stderr = sphere_average_mc(lambda d: d[:, 0] ** 2 * d[:, 1] ** 2,
                                     SphereSampler(3, 1_000_000, 4))
    assert abs(mean - 1.0 / 15.0) < 4.0 * stderr


# ---------------------------------------------------------------- monomial self-test

def test_monomials_n1_exact():
    rep = monomial_selftest(1, count=100_000, seed=5)
    assert rep.max_deviation == 0.0
    assert rep.worst_sigmas == 0.0


@pytest.mark.parametrize("n,seed", [(2, 7), (4, 8)])
def test_monomials_converge(n, seed):
    rep = monomial_selftest(n, count=1_000_000, seed=seed)
    assert isinstance(rep, MonomialReport)
    assert rep.max_deviation < 0.01
    assert rep.worst_sigmas < 5.0
    labels = [e.label for e in rep.entries]
    assert len(labels) == n + n * (n - 1) // 2


@pytest.mark.parametrize("sizes", [(512,), (6, 10), (4, 5, 7)])
def test_axes_give_the_points_coordinates(sizes):
    # analyze formats each axis value once; the C-order product of the axes
    # must be points() bit for bit.
    grid = TorusGrid(sizes)
    axes = grid.axes()
    assert [a.shape[0] for a in axes] == list(sizes)
    product = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(sizes))
    assert np.array_equal(product, grid.points())
