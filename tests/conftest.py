import numpy as np
import pytest

from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.fixtures import perturbed_clifford, random_immersion
from toricurv.quadrature import TorusGrid


@pytest.fixture(scope="session")
def clifford2():
    return clifford(2)


@pytest.fixture(scope="session")
def clifford3():
    return clifford(3)


@pytest.fixture(scope="session")
def clifford4():
    return clifford(4)


@pytest.fixture(scope="session")
def hexagonal():
    return subtorus_immersion(builtin_design("hex2"))


@pytest.fixture(scope="session")
def d4():
    return subtorus_immersion(builtin_design("d4"))


@pytest.fixture(scope="session")
def axdiag3():
    return subtorus_immersion(builtin_design("axdiag3"))


@pytest.fixture(scope="session")
def wavy2():
    """Perturbed Clifford 2-torus, strictly inside the unit ball."""
    return perturbed_clifford(2, seed=5)


@pytest.fixture(scope="session")
def random25():
    """General-position random immersion T^2 -> R^5 (not ball-normalized)."""
    return random_immersion(2, 5, seed=3, terms=8, fmax=2)


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid((16, 16))


def random_orthogonal(q: int, seed: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from a seeded QR factorization."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    Q, R = np.linalg.qr(rng.standard_normal((q, q)))
    return Q * np.sign(np.diag(R))


def random_points(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.uniform(0.0, 2.0 * np.pi, size=(count, n))


def reference_second_form(jet, E=None):
    """II at one point by the per-point construction, independent of the
    package's batched kernel: S_ij = P_N(sum_ab W_ia W_jb d2f_ab) for the
    frame e_i = sum_a W_ia df_a.  Without E the frame is the inverse-Cholesky
    one (W = L); an explicit orthonormal tangent frame E gives W by solving
    g W' = df E'.  Returns (S, E)."""
    g = jet.d1 @ jet.d1.T
    if E is None:
        W = np.linalg.inv(np.linalg.cholesky(g))
        E = W @ jet.d1
    else:
        W = np.linalg.solve(g, jet.d1 @ E.T).T
    raw = np.einsum("ia,jb,abq->ijq", W, W, jet.d2)
    S = raw - np.einsum("ijk,kq->ijq", np.einsum("ijq,kq->ijk", raw, E), E)
    return 0.5 * (S + S.transpose(1, 0, 2)), E
