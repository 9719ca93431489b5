import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.errors import DegenerateMetric, DimensionTooLow, OriginPoint
from toricurv.fixtures import ball_immersion, perturbed_clifford, round_sphere
from toricurv import pointwise
from toricurv.immersion import (
    FourierImmersion,
    FourierTerm,
    Signature,
    _metric,
    _metric_eigenvalues,
    immersion_rank_check,
    jets_at,
    transform,
)
from toricurv.intrinsic import (
    _christoffel,
    analysis_grid,
    conformal_grid,
    conformal_rate,
    conformal_trace,
    curvature_grid,
    gauss_residuals,
)
from toricurv.pointwise import _FIELD_NAMES, _chunk_core, _scalar_invariants, grid_fields, grid_K_estimates
from toricurv.quadrature import TorusGrid
from toricurv.verify import run_checks

from conftest import pinched_torus, random_points


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
        assert np.max(np.abs(mj.ricci[0])) < 1e-9


def test_round_sphere_pins_the_convention():
    # Ric = g / r^2 on the sphere of radius r: positive, as Sc = 2 / r^2.
    for radius in (1.0, 2.0, 0.5):
        sph = round_sphere(radius)
        for theta in ([1.2, 0.5], [2.0, 3.1], [0.9, 4.4]):
            mj = christoffel_at(sph, theta)
            assert abs(mj.sc[0] - 2.0 / radius**2) < 1e-9
            assert np.max(np.abs(mj.ricci[0] - mj.g[0] / radius**2)) < 1e-12


def _riemann_sc(path):
    """Sc as the full contraction g^bd R^a_bad of the (P, n, n, n, n) Riemann
    tensor R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma^a_ce Gamma^e_db
    - Gamma^a_de Gamma^e_cb, from every d_m Gamma^k_ij, and the sum of the
    absolute values of the terms that the contracted path adds up."""
    ginv, gam, dg, ddg = path.ginv, path.gam, path.dg, path.ddg
    dlow = 0.5 * (ddg.transpose(0, 1, 4, 2, 3) + ddg.transpose(0, 1, 4, 3, 2) - ddg)
    X = dlow - np.einsum("pmlb,pbij->pmlij", dg, gam)
    dgam = np.einsum("pkl,pmlij->pmkij", ginv, X)          # d_m Gamma^k_ij
    gamgam = np.einsum("pace,pedb->pabcd", gam, gam)
    riem = (np.einsum("pcadb->pabcd", dgam) - np.einsum("pdacb->pabcd", dgam)
            + gamgam - gamgam.transpose(0, 1, 2, 4, 3))
    sc = np.einsum("pbd,pabad->p", ginv, riem)
    gi, ga, ax = np.abs(ginv), np.abs(gam), np.abs(X)
    terms = (np.einsum("pal,paldb->pdb", gi, ax) + np.einsum("pal,pdlab->pdb", gi, ax)
             + np.einsum("paae,pedb->pdb", ga, ga) + np.einsum("pade,peab->pdb", ga, ga))
    return sc, np.einsum("pdb,pdb->p", gi, terms)


@pytest.mark.parametrize("make,sizes", [
    (lambda: clifford(3), (8, 8, 8)),
    (lambda: perturbed_clifford(3, seed=1), (16, 16, 16)),
    (lambda: ball_immersion(4, 9, seed=7), (6, 6, 6, 6)),
    (lambda: ball_immersion(5, 11, seed=3), (4, 4, 4, 4, 6)),
], ids=["clifford3", "wavy3", "ball4", "ball5"])
def test_ricci_trace_matches_the_riemann_contraction(make, sizes):
    # Sc from the Ricci trace, with no Riemann tensor formed, is the full
    # contraction to roundoff in the sum of its terms' sizes, which on
    # ball(5, 11, 3) reach 1e7 where g^-1 reaches 1e3.
    imm = make()
    for _, thetas in TorusGrid(sizes).iter_points(512):
        path = _christoffel(imm, thetas)
        sc, size = _riemann_sc(path)
        assert np.all(np.abs(path.sc - sc) <= 1e-13 * np.maximum(1.0, size))
        assert np.all(size >= np.abs(sc) * (1 - 1e-12))


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
        cg = conformal_grid(grid_fields(imm, grid), conformal_rate(imm.n))
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
    cg = conformal_grid(grid_fields(imm, grid), k)
    for idx in (0, 77, 200, 365, 511):
        tr = conformal_trace(imm, grid.theta_at(idx), k)
        for got, want in ((cg["conformal"][idx], tr.conformal_value), (cg["sc"][idx], tr.sc),
                          (cg["lap_f"][idx], tr.lap_f), (cg["grad2"][idx], tr.grad_f_norm ** 2)):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_conformal_grid_dimension_gate(wavy2, grid16):
    with pytest.raises(DimensionTooLow):
        conformal_grid(grid_fields(wavy2, grid16), 1.0)


def test_curvature_grid_matches_pointwise(wavy2):
    grid = TorusGrid((8, 8))
    sc = curvature_grid(wavy2, grid)
    pts = grid.points()
    for idx in (0, 17, 40):
        assert abs(sc[idx] - christoffel_at(wavy2, pts[idx]).sc[0]) < 1e-12


@pytest.mark.parametrize("make,sizes,seed", [
    (lambda: perturbed_clifford(2, seed=5), (16, 16), 0),
    (lambda: perturbed_clifford(3, seed=1), (8, 8, 8), 3),
    (lambda: clifford(1), (64,), 0),
], ids=["n2", "n3", "circle"])
def test_analysis_grid_matches_the_separate_passes(make, sizes, seed):
    # One third-order pass gives, bit for bit, what the four separate passes
    # gave: second-order fields, the Christoffel Sc in 512-point chunks, the
    # K range in 256-point chunks and the rank check.
    grid = TorusGrid(sizes)
    imm = make()
    result = analysis_grid(imm, grid, seed)
    fields = pointwise._evaluate_fields(imm, grid)
    for name in _FIELD_NAMES:
        assert np.array_equal(getattr(result.fields, name), getattr(fields, name)), name
    sc = np.concatenate([_christoffel(imm, thetas).sc for _, thetas in grid.iter_points(512)])
    assert np.array_equal(result.sc, sc)
    fresh = make()          # an immersion with an empty grid cache
    k_min, k_max = grid_K_estimates(fresh, grid, seed)
    assert np.array_equal(result.k_min, k_min) and np.array_equal(result.k_max, k_max)
    assert result.min_singular_value == immersion_rank_check(fresh, grid)


def test_analysis_grid_does_not_depend_on_earlier_passes():
    # For n >= 5 the second-order passes round d2 differently from the
    # third-order pass; analysis_grid returns its own bits whether or not
    # grid_fields and grid_K_estimates ran first on the same immersion.
    grid = TorusGrid((4,) * 5)
    first = ball_immersion(5, 11, seed=3)
    alone = analysis_grid(first, grid, 1)
    imm = dataclasses.replace(first)      # the same series, with an empty grid cache
    grid_fields(imm, grid)
    grid_K_estimates(imm, grid, 1)
    after = analysis_grid(imm, grid, 1)
    for name in _FIELD_NAMES:
        assert np.array_equal(getattr(after.fields, name), getattr(alone.fields, name)), name
    for got, want in ((after.sc, alone.sc), (after.k_min, alone.k_min), (after.k_max, alone.k_max)):
        assert np.array_equal(got, want)


def _overflowing_circle():
    """A circle of radius 1e154 plus a half-size second harmonic: |f'|^2
    overflows to inf at 22 of 64 points and stays finite at the rest."""
    A = 1e154
    return FourierImmersion(Signature(1, 2), (FourierTerm((1,), (A, 0), (0, A)),
                                              FourierTerm((2,), (0.5 * A, 0), (0, 0))))


def _smallest_singular_value(metrics):
    """sqrt(max(0, min lambda_min)) from eigvalsh at every metric."""
    low = np.linalg.eigvalsh(np.concatenate(metrics))[:, 0].min()
    return float(np.sqrt(max(0.0, low)))


@pytest.mark.parametrize("make,sizes,analyzed,solved_below", [
    (lambda: perturbed_clifford(3, seed=1), (16, 16, 16), True, 0.25),
    (lambda: subtorus_immersion(builtin_design("d4")), (6, 6, 6, 6), True, None),
    (pinched_torus, (64, 64), False, None),
    (_overflowing_circle, (64,), True, None),
], ids=["wavy3", "d4", "pinched", "non-finite"])
def test_bracketed_min_singular_value_is_every_points_minimum(make, sizes, analyzed, solved_below):
    # eigvalsh runs only where the bracket leaves lambda_min(g) a candidate
    # (on wavy3 at under solved_below of the points), yet the minimum is
    # eigvalsh's over every point, bit for bit, in the analysis pass (from
    # third-order jets, which raise DegenerateMetric on the pinched torus) and
    # in the rank check (from first-order jets); both are NaN instead where
    # any metric is not finite, and read NaN there, never inf.
    imm, grid = make(), TorusGrid(sizes)
    # the overflowing circle's jets, and _metric_eigenvalues in a grid pass's mode
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first = [jets_at(imm, thetas, order=1)[1] for _, thetas in grid.iter_points(512)]
        metrics = [_metric(d1) for d1 in first]
        paths = [_christoffel(imm, thetas) for _, thetas in grid.iter_points(512)] if analyzed else []
        bracketed = [_metric_eigenvalues(path.g, path.L) for path in paths]
    finite = all(np.isfinite(g).all() for g in metrics)
    rank = immersion_rank_check(imm, grid)
    assert rank == _smallest_singular_value(metrics) if finite else math.isnan(rank)
    if analyzed:
        analysis = analysis_grid(imm, grid, 0).min_singular_value
        assert analysis == _smallest_singular_value([path.g for path in paths]) if finite else math.isnan(analysis)
    solved = 0
    for path, values in zip(paths, bracketed):
        g_finite = np.isfinite(path.g).all(axis=(1, 2))
        assert np.array_equal(np.isnan(values), ~g_finite)
        run = np.isfinite(values)
        assert np.array_equal(values[run], np.linalg.eigvalsh(path.g[run])[:, 0])
        solved += int(run.sum())
    if solved_below is not None:
        assert solved < solved_below * grid.npoints


def test_grid_cache_holds_one_entry_per_writer():
    # verify's fields, its spectral verdict, ball maximum, zh maximum and
    # K gate and analyze's pass each keep their own key.  verify evaluates the grid's
    # fields first, with the gate's K range in the same pass; the doubled
    # grid's pass runs only where the grid does not resolve them, as on this
    # perturbed torus (a frequency 2 is not below 8/4).
    imm = dataclasses.replace(perturbed_clifford(2, seed=9))     # with an empty grid cache
    grid = TorusGrid((8, 8))
    run_checks(imm, grid, seed=2)
    analysis_grid(imm, grid, 2)
    assert set(pointwise._grid_cache[imm]) == {
        ("fields", (8, 8)), ("resolves", (8, 8)), ("fields", (16, 16)), ("ball", (8, 8)),
        ("zh", (8, 8)), ("K_max", (8, 8), 2), ("analysis", (8, 8), 2)}
    assert pointwise._grid_cache[imm][("resolves", (8, 8))] is False
    assert pointwise._grid_cache[imm][("fields", (8, 8))].k_seed == 2
    assert pointwise._grid_cache[imm][("fields", (16, 16))].k_seed is None
    # Clifford(2)'s constant fields are resolved: no doubled-grid pass
    resolved = dataclasses.replace(clifford(2))
    run_checks(resolved, grid, seed=2)
    assert set(pointwise._grid_cache[resolved]) == {
        ("fields", (8, 8)), ("resolves", (8, 8)), ("ball", (8, 8)), ("zh", (8, 8)),
        ("K_max", (8, 8), 2)}


def test_analysis_grid_memoized_read_only():
    imm = perturbed_clifford(2, seed=9)
    grid = TorusGrid((8, 8))
    result = analysis_grid(imm, grid, 2)
    assert analysis_grid(imm, grid, 2) is result
    assert np.array_equal(curvature_grid(imm, grid), result.sc)     # Sc does not depend on the seed
    for values in (*(getattr(result.fields, name) for name in _FIELD_NAMES),
                   result.sc, result.k_min, result.k_max):
        assert not values.flags.writeable


def test_analysis_grid_fields_n5_within_roundoff():
    # For n >= 5 the jet GEMM's d2 columns depend on its shape, so the
    # third-order pass and grid_fields agree to roundoff rather than bitwise.
    imm = ball_immersion(5, 11, seed=3)
    grid = TorusGrid((4,) * 5)
    result = analysis_grid(imm, grid, 0)
    fields = pointwise._evaluate_fields(imm, grid)
    for name in _FIELD_NAMES:
        got, want = getattr(result.fields, name), getattr(fields, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
