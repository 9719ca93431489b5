import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricurv.errors import NonOrthogonal
from toricurv.immersion import (
    FourierImmersion,
    FourierTerm,
    Signature,
    _jet_basis,
    evaluate_jet,
    immersion_rank_check,
    jets_at,
    transform,
)
from toricurv.intrinsic import analysis_grid
from toricurv.pointwise import invariants_at
from toricurv.quadrature import TorusGrid

from conftest import random_orthogonal, random_points, reference_jet_basis


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gathered_jet_basis_is_the_term_by_term_one(n):
    # Each gathered entry is a coefficient times a signed frequency product,
    # the one product the term-by-term construction negates, so every bit
    # agrees, the signs of zero entries included: frequencies with zero and
    # negative components give products of either zero sign, and zero
    # coefficients of either sign meet products of either sign.
    rng = np.random.Generator(np.random.Philox(key=np.uint64(n)))
    T, q = 6, n + 2
    K = rng.integers(-3, 4, size=(T, n)).astype(float)
    K[0], K[1, 0] = 0.0, 0.0
    A, B = rng.standard_normal((2, T, q))
    A[2], B[3, :2], A[4, 0] = 0.0, -0.0, -0.0
    for order in range(4):
        for scale in (1.0, 0.37):
            got, want = _jet_basis(K, A, B, order, scale), reference_jet_basis(K, A, B, order, scale)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def single_term(k, a_index, n=2, q=4):
    a = np.zeros(q)
    a[a_index] = 1.0
    return FourierImmersion(Signature(n, q), (FourierTerm(k, a, np.zeros(q)),))


def test_clifford_value_at_origin(clifford2):
    jet = evaluate_jet(clifford2, [0.0, 0.0], order=0)
    expected = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(jet.value, expected, atol=1e-15)
    assert jet.d1 is None


def test_single_cosine_second_derivative():
    # For one cosine term, the pure second derivative is -k_1^2 times the value.
    imm = single_term((1, 0), a_index=0)
    for theta in ([math.pi / 2, 0.0], [0.3, 1.1]):
        jet = evaluate_jet(imm, theta, order=2)
        np.testing.assert_allclose(jet.d2[0][0], -1.0 * jet.value, atol=1e-15)
        np.testing.assert_allclose(jet.d2[0][1], 0.0, atol=1e-15)


def test_d1_matches_finite_differences(random25):
    # Independent oracle: central differences of the order-0 values.
    h = 1e-5
    pts = random_points(2, 20, seed=71)
    for theta in pts:
        jet = evaluate_jet(random25, theta, order=1)
        for i in range(2):
            step = np.zeros(2)
            step[i] = h
            fd = (evaluate_jet(random25, theta + step, 0).value
                  - evaluate_jet(random25, theta - step, 0).value) / (2 * h)
            np.testing.assert_allclose(jet.d1[i], fd, atol=1e-6)


def test_d2_matches_finite_differences_of_d1(random25):
    h = 1e-5
    theta = np.array([0.7, 2.9])
    jet = evaluate_jet(random25, theta, order=2)
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        fd = (evaluate_jet(random25, theta + step, 1).d1
              - evaluate_jet(random25, theta - step, 1).d1) / (2 * h)
        np.testing.assert_allclose(jet.d2[i], fd, atol=1e-5)


def test_d3_matches_finite_differences_of_d2(random25):
    h = 1e-4
    theta = np.array([1.2, 0.4])
    jet = evaluate_jet(random25, theta, order=3)
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        fd = (evaluate_jet(random25, theta + step, 2).d2
              - evaluate_jet(random25, theta - step, 2).d2) / (2 * h)
        np.testing.assert_allclose(jet.d3[i], fd, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    kvals=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3),
    theta=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
    seed=st.integers(0, 2**16),
)
def test_jet_symmetry_is_exact(kvals, theta, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    terms = tuple(FourierTerm(k, rng.standard_normal(3), rng.standard_normal(3)) for k in kvals)
    imm = FourierImmersion(Signature(2, 3), terms)
    jet = evaluate_jet(imm, theta, order=3)
    assert np.array_equal(jet.d2, jet.d2.transpose(1, 0, 2))
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(jet.d3, jet.d3.transpose(*perm, 3))


def test_periodicity(random25):
    theta = np.array([0.9, 5.1])
    base = evaluate_jet(random25, theta, 0).value
    for i in range(2):
        shift = np.zeros(2)
        shift[i] = 2 * math.pi
        np.testing.assert_allclose(evaluate_jet(random25, theta + shift, 0).value, base, atol=1e-12)


def test_transform_identity_is_noop(clifford2):
    same = transform(clifford2, np.eye(4), np.zeros(4), 1.0)
    theta = [0.3, 1.9]
    np.testing.assert_allclose(evaluate_jet(same, theta, 0).value,
                               evaluate_jet(clifford2, theta, 0).value, atol=1e-15)


def test_transform_halving_shrinks_image(clifford2):
    half = transform(clifford2, np.eye(4), None, 0.5)
    pts = TorusGrid((32, 32)).points()
    norms = np.linalg.norm(jets_at(half, pts, 0)[0], axis=1)
    assert abs(norms.max() - 0.5) < 1e-12


def test_transform_rotation_preserves_zh(clifford2):
    Q = random_orthogonal(4, seed=9)
    rotated = transform(clifford2, Q, np.zeros(4), 1.0)
    for theta in random_points(2, 10, seed=33):
        a = invariants_at(evaluate_jet(clifford2, theta, 2))
        b = invariants_at(evaluate_jet(rotated, theta, 2))
        assert abs(a.zh - b.zh) < 1e-10


def test_transform_jets_are_transformed_jets(random25):
    Q = random_orthogonal(5, seed=4)
    c = np.array([0.1, -0.2, 0.0, 0.3, 0.05])
    lam = 0.7
    moved = transform(random25, Q, c, lam)
    theta = [1.0, 2.0]
    j0 = evaluate_jet(random25, theta, 2)
    j1 = evaluate_jet(moved, theta, 2)
    np.testing.assert_allclose(j1.value, lam * Q @ j0.value + c, atol=1e-14)
    np.testing.assert_allclose(j1.d1, lam * j0.d1 @ Q.T, atol=1e-14)
    np.testing.assert_allclose(j1.d2, lam * j0.d2 @ Q.T, atol=1e-14)


def test_transform_composition(random25):
    Q1, Q2 = random_orthogonal(5, 11), random_orthogonal(5, 12)
    c1 = np.linspace(-0.2, 0.2, 5)
    c2 = np.linspace(0.1, -0.1, 5)
    lam1, lam2 = 0.6, 1.7
    twice = transform(transform(random25, Q1, c1, lam1), Q2, c2, lam2)
    once = transform(random25, Q2 @ Q1, Q2 @ (lam2 * c1) + c2, lam2 * lam1)
    for theta in random_points(2, 8, seed=21):
        np.testing.assert_allclose(evaluate_jet(twice, theta, 0).value,
                                   evaluate_jet(once, theta, 0).value, atol=1e-12)


def test_transform_rejects_non_orthogonal(clifford2):
    Q = np.eye(4)
    Q[0, 1] = 1e-6
    with pytest.raises(NonOrthogonal):
        transform(clifford2, Q)


def test_rank_check_clifford(clifford2, grid16):
    assert abs(immersion_rank_check(clifford2, grid16) - 1 / math.sqrt(2)) < 1e-12


def test_rank_check_zero_immersion(grid16):
    zero = FourierImmersion(Signature(2, 4), ())
    assert immersion_rank_check(zero, grid16) == 0.0


def test_rank_check_hexagonal(hexagonal, grid16):
    assert abs(immersion_rank_check(hexagonal, grid16) - math.sqrt(1 / 3)) < 1e-12


def _circle_with_second_harmonic(radius, same_plane):
    """A circle of the given radius plus a half-size second harmonic, in the
    circle's own plane (q = 2) or in the other two axes of R^4."""
    R, h = radius, radius / 2
    if same_plane:
        terms = (FourierTerm((1,), (R, 0), (0, R)), FourierTerm((2,), (h, 0), (0, h)))
    else:
        terms = (FourierTerm((1,), (R, 0, 0, 0), (0, R, 0, 0)),
                 FourierTerm((2,), (0, 0, h, 0), (0, 0, 0, h)))
    return FourierImmersion(Signature(1, len(terms[0].a)), terms)


@pytest.mark.parametrize("radius,same_plane", [(1e170, False), (1e154, False), (1e170, True)],
                         ids=["other-axes-1e170", "other-axes-1e154", "same-plane-1e170"])
def test_rank_check_fails_closed_on_overflow(radius, same_plane, monkeypatch):
    # |f'|^2 overflows at every point, or at all but a few: the rank check and
    # analyze's pass both return NaN, neither inf (read as full rank) nor the
    # minimum over the points that stayed finite, hand eigvalsh no metric that
    # is not finite, and raise no overflow warning (the suite turns
    # RuntimeWarning into an error).
    eigvalsh = np.linalg.eigvalsh

    def finite_only(g):
        assert np.isfinite(g).all()
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    imm = _circle_with_second_harmonic(radius, same_plane)
    assert math.isnan(immersion_rank_check(imm, TorusGrid((64,))))
    assert math.isnan(analysis_grid(imm, TorusGrid((64,)), 0).min_singular_value)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 3)
    with pytest.raises(ValueError):
        Signature(2, 2)
