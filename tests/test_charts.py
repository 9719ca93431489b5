"""Chart invariance: every check reads the immersed torus, not its chart.

g(theta) = f(A theta + 2 pi s / N) is the same torus as f for an integer
matrix A of determinant +-1 and whole grid steps s.  A and the shift map the
N^n grid, and its doubling, onto themselves, so every check must give g the
status it gives f, with margins equal to roundoff.
"""

import functools
import math

import numpy as np
import pytest

from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.fixtures import ball_immersion, perturbed_clifford
from toricurv.immersion import FourierImmersion, FourierTerm
from toricurv.quadrature import TorusGrid
from toricurv.verify import run_checks

from test_designs import _unimodular

FIXTURES = {
    "clifford3": (lambda: clifford(3), 8),
    "wavy3": (lambda: perturbed_clifford(3, seed=1), 8),
    "ball377": (lambda: ball_immersion(3, 7, seed=7), 8),
    "wavy2": (lambda: perturbed_clifford(2, seed=5), 16),
    "d4": (lambda: subtorus_immersion(builtin_design("d4")), 6),
    "wavy5": (lambda: perturbed_clifford(5, seed=2), 4),
}
CHARTS = ("permutation", "shears", "translation")


def in_chart(imm: FourierImmersion, A: np.ndarray, steps: np.ndarray, N: int) -> FourierImmersion:
    """theta -> imm(A theta + 2 pi steps / N) as a series: each term's
    frequency k becomes A'k, and its phase k . c moves into a and b."""
    c = 2.0 * math.pi * steps / N
    terms = []
    for t in imm.terms:
        phase = float(np.dot(t.k, c))
        cos, sin = math.cos(phase), math.sin(phase)
        terms.append(FourierTerm(tuple((A.T @ np.array(t.k)).tolist()),
                                 cos * t.a + sin * t.b, cos * t.b - sin * t.a))
    return FourierImmersion(imm.signature, tuple(terms), imm.scale, imm.translate)


def chart(name: str, n: int, N: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(A, steps) of a seeded chart: a cyclic axis permutation with a sign
    flip, a product of unimodular shears, or a translation by whole grid
    steps."""
    eye, still = np.eye(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    if name == "permutation":
        A = np.roll(eye, int(rng.integers(1, n)), axis=0)
        A[:, int(rng.integers(n))] *= -1
        return A, still
    if name == "shears":
        return _unimodular(n, rng), still
    return eye, rng.integers(1, N, size=n)


@functools.lru_cache(maxsize=None)
def reports(fixture: str, name: str | None) -> list[dict]:
    make, N = FIXTURES[fixture]
    imm = make()
    if name is not None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(list(FIXTURES).index(fixture))))
        imm = in_chart(imm, *chart(name, imm.n, N, rng), N)
    return run_checks(imm, TorusGrid((N,) * imm.n))


@pytest.mark.parametrize("name", CHARTS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_checks_do_not_depend_on_the_chart(fixture, name):
    base, moved = reports(fixture, None), reports(fixture, name)
    assert [(r["name"], r["status"]) for r in moved] == [(r["name"], r["status"]) for r in base]
    for r, s in zip(base, moved):
        if r["margin"] is None:
            assert s["margin"] is None
        else:
            assert abs(s["margin"] - r["margin"]) <= 1e-9 * max(1.0, abs(r["margin"])), r["name"]
