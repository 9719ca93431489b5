import math
from fractions import Fraction

import numpy as np
import pytest

from toricurv.designs import (
    FrameMatrix,
    builtin_design,
    clifford,
    format_frame_matrix,
    parse_frame_matrix,
    subtorus_immersion,
    validate_design,
)
from toricurv.errors import ParseError, RankDeficient, UnknownDesign
from toricurv.immersion import evaluate_jet, jets_at
from toricurv.intrinsic import _christoffel
from toricurv.pointwise import _chunk_core, _full_form, invariants_at
from toricurv.quadrature import TorusGrid

from conftest import random_points


# ---------------------------------------------------------------- constructors

def test_clifford_on_unit_sphere(clifford2):
    pts = TorusGrid((32, 32)).points()
    norms = np.linalg.norm(jets_at(clifford2, pts, 0)[0], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14


def test_clifford_m1_is_unit_circle():
    iv = invariants_at(evaluate_jet(clifford(1), [0.9], 2))
    assert abs(iv.zh - 1.0) < 1e-12
    assert abs(iv.r - 1.0) < 1e-14


def test_identity_frame_reproduces_clifford(clifford3):
    via_frame = subtorus_immersion(FrameMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    for theta in random_points(3, 5, seed=44):
        np.testing.assert_allclose(
            evaluate_jet(via_frame, theta, 0).value,
            evaluate_jet(clifford3, theta, 0).value, atol=1e-15)


def test_subtorus_metric_is_constant_gram(hexagonal):
    for g in _christoffel(hexagonal, random_points(2, 6, seed=45)).g:
        np.testing.assert_allclose(g, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-14)


def test_rank_deficient_frame_rejected():
    with pytest.raises(RankDeficient):
        subtorus_immersion(FrameMatrix(((1, 0), (2, 0))))
    with pytest.raises(RankDeficient):
        validate_design(FrameMatrix(((1, 1), (2, 2), (3, 3))))


def test_rank2_nonconstant_design_is_valid_immersion():
    B = FrameMatrix(((1, 0), (2, 0), (0, 1)))
    report = validate_design(B)
    assert not report.is_constant_curvature
    assert report.K2 is None and report.K is None
    assert not report.is_optimal
    imm = subtorus_immersion(B)
    iv = invariants_at(evaluate_jet(imm, [0.5, 1.5], 2))
    assert iv.K_max - iv.K_min > 0.1


# ---------------------------------------------------------------- certificates

def test_certificate_hexagonal():
    rep = validate_design(builtin_design("hex2"))
    assert rep.is_constant_curvature
    assert rep.c == Fraction(1, 2)
    assert rep.K2 == Fraction(3, 2)
    assert rep.is_optimal
    assert set(rep.row_weights) == {Fraction(2, 3)}


def test_certificate_d4():
    rep = validate_design(builtin_design("d4"))
    assert rep.m == 12 and rep.n == 4
    assert rep.is_constant_curvature
    assert rep.K2 == Fraction(2)
    assert rep.is_optimal
    assert set(rep.row_weights) == {Fraction(1, 3)}


def test_certificate_axdiag3():
    rep = validate_design(builtin_design("axdiag3"))
    assert rep.m == 28 and rep.n == 3
    assert rep.is_constant_curvature
    assert rep.K2 == Fraction(7, 3)
    assert not rep.is_optimal
    assert set(rep.row_weights) == {Fraction(1, 12), Fraction(1, 4)}


def test_certificate_circle1():
    rep = validate_design(builtin_design("circle1"))
    assert rep.is_constant_curvature and rep.is_optimal
    assert rep.K2 == Fraction(1)


def test_exact_lower_bound_for_constant_designs():
    for name in ("circle1", "hex2", "d4", "axdiag3"):
        rep = validate_design(builtin_design(name))
        assert rep.K2 >= Fraction(3 * rep.n, rep.n + 2)


def test_optimality_iff_equal_row_weights():
    for name in ("circle1", "hex2", "d4", "axdiag3"):
        rep = validate_design(builtin_design(name))
        assert rep.is_optimal == (len(set(rep.row_weights)) == 1)
        assert rep.is_optimal == (rep.K2 == Fraction(3 * rep.n, rep.n + 2))


# ---------------------------------------------------------------- certificate vs numerics

@pytest.mark.parametrize("name", ["circle1", "hex2", "d4", "axdiag3"])
def test_certificate_matches_numerics(name):
    rep = validate_design(builtin_design(name))
    imm = subtorus_immersion(builtin_design(name))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(99)))
    theta = rng.uniform(0, 2 * math.pi, imm.n)
    S = _full_form(_chunk_core(imm, theta[None])[2])[0]
    dirs = rng.standard_normal((256, imm.n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    vals = np.einsum("da,db,abq->dq", dirs, dirs, S, optimize=True)
    K = np.sqrt(np.einsum("dq,dq->d", vals, vals))
    assert K.max() - K.min() < 1e-10
    assert abs(K.mean() - rep.K) < 1e-10


@pytest.mark.parametrize("name", ["hex2", "d4", "axdiag3"])
def test_subtorus_flatness(name):
    imm = subtorus_immersion(builtin_design(name))
    theta = np.linspace(0.3, 2.1, imm.n)
    mj = _christoffel(imm, theta[None])
    assert np.max(np.abs(mj.dg[0])) < 1e-12
    assert abs(mj.sc[0]) < 1e-9


# ---------------------------------------------------------------- catalog and files

def test_unknown_design():
    with pytest.raises(UnknownDesign):
        builtin_design("nope")


def test_builtin_shapes():
    assert builtin_design("circle1").rows == ((1,),)
    assert builtin_design("hex2").rows == ((1, 0), (0, 1), (1, 1))
    assert builtin_design("d4").m == 12
    assert builtin_design("axdiag3").m == 28


def test_matrix_file_roundtrip():
    B = builtin_design("hex2")
    text = format_frame_matrix(B)
    assert parse_frame_matrix(text).rows == B.rows


def test_matrix_file_comments_and_blanks():
    text = "# hexagonal\n\n1 0\n0 1   # second row\n1 1\n"
    assert parse_frame_matrix(text).rows == ((1, 0), (0, 1), (1, 1))


def test_matrix_file_errors():
    with pytest.raises(ParseError):
        parse_frame_matrix("1 a\n")
    with pytest.raises(ParseError):
        parse_frame_matrix("1 0\n1\n")
    with pytest.raises(ParseError):
        parse_frame_matrix("# only comments\n")


# ---------------------------------------------------------------- certificate invariance and oracle

def _unimodular(n: int, rng) -> np.ndarray:
    """A product of eight elementary shears E_ij(+-1): an integer matrix of determinant 1."""
    U = np.eye(n, dtype=np.int64)
    for _ in range(8):
        i, j = rng.choice(n, size=2, replace=False)
        U[:, j] += int(rng.choice([-1, 1])) * U[:, i]
    return U


@pytest.mark.parametrize("name", ["hex2", "d4", "axdiag3"])
def test_certificate_invariant_under_reparametrization(name):
    # phi -> U phi with U unimodular is the same subtorus, so only the Gram
    # matrix may change, and it must become U'GU.
    B = builtin_design(name)
    base = validate_design(B)
    G = np.array(base.gram)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    for _ in range(5):
        U = _unimodular(B.n, rng)
        rep = validate_design(FrameMatrix(tuple(map(tuple, (np.array(B.rows) @ U).tolist()))))
        assert np.array_equal(np.array(rep.gram), U.T @ G @ U)
        assert {**vars(rep), "gram": None} == {**vars(base), "gram": None}


def test_certificate_matches_quartic_ratio_oracle():
    # Constancy means sum_j (b_j . v)^4 / (v'Gv)^2 is the same in every direction;
    # in floating point the ratio's spread is either roundoff or of order 0.1.
    frames = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    directions = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    verdicts = []
    while len(verdicts) < 385:
        n = int(frames.integers(2, 5))
        B = frames.integers(-2, 3, size=(int(frames.integers(n, 9)), n))
        if np.linalg.matrix_rank(B) < n:
            continue
        V = directions.standard_normal((2000, n))
        ratio = np.sum((V @ B.T) ** 4, axis=1) / np.einsum("di,di->d", V @ B.T, V @ B.T) ** 2
        spread = (ratio.max() - ratio.min()) / ratio.mean()
        constant = validate_design(FrameMatrix(tuple(map(tuple, B.tolist())))).is_constant_curvature
        assert constant == (spread < 1e-9), (B.tolist(), spread)
        verdicts.append(constant)
    assert 0 < sum(verdicts) < len(verdicts)
