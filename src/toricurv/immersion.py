"""Trigonometric immersions of the n-torus and their exact derivative jets.

An immersion is a finite Fourier series

    f(theta) = scale * sum_t [ a_t * cos(k_t . theta) + b_t * sin(k_t . theta) ] + translate

with integer frequency vectors k_t and ambient coefficient vectors a_t, b_t.
Every derivative up to order 3 is evaluated analytically from the series, so
downstream identity checks are limited only by floating-point roundoff and
never by differencing error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonOrthogonal


@dataclass(frozen=True)
class Signature:
    """Dimensions of an immersed torus: intrinsic n, ambient q > n."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"intrinsic dimension must satisfy n >= 1, got {self.n}")
        if self.q <= self.n:
            raise ValueError(f"ambient dimension q={self.q} must exceed n={self.n}")


def _frozen_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {v.shape[0]}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class FourierTerm:
    """One series term: contributes a*cos(k.theta) + b*sin(k.theta)."""

    k: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(c) for c in self.k))
        a = _frozen_vector(self.a, name="a")
        b = _frozen_vector(self.b, len(a), name="b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class FourierImmersion:
    """A torus map given by a trigonometric series with a scale and a shift.

    The evaluated map is ``f(theta) = scale * series(theta) + translate``;
    it is 2*pi-periodic in each coordinate of theta.  Scale and translation
    are stored apart from the coefficients so that placing a fixture inside
    a ball never perturbs the exact series.
    """

    signature: Signature
    terms: tuple[FourierTerm, ...]
    scale: float = 1.0
    translate: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        n, q = self.signature.n, self.signature.q
        for i, t in enumerate(self.terms):
            if len(t.k) != n:
                raise ValueError(f"terms[{i}].k must have length n={n}, got {len(t.k)}")
            if t.a.shape[0] != q:
                raise ValueError(f"terms[{i}] coefficients must have length q={q}, got {t.a.shape[0]}")
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))
        tr = np.zeros(q) if self.translate is None else np.array(self.translate, dtype=float)
        object.__setattr__(self, "translate", _frozen_vector(tr, q, name="translate"))

    @property
    def n(self) -> int:
        return self.signature.n

    @property
    def q(self) -> int:
        return self.signature.q

    # Stacked coefficient matrices; cached because jets are evaluated in bulk.
    @cached_property
    def _kmat(self) -> np.ndarray:  # (T, n)
        return np.array([t.k for t in self.terms], dtype=float).reshape(-1, self.n)

    @cached_property
    def _amat(self) -> np.ndarray:  # (T, q)
        return np.array([t.a for t in self.terms], dtype=float).reshape(-1, self.q)

    @cached_property
    def _bmat(self) -> np.ndarray:  # (T, q)
        return np.array([t.b for t in self.terms], dtype=float).reshape(-1, self.q)

    # Per-order derivative bases: row t of _basis(order)[0/1] holds the
    # (frequency-product x coefficient) tensor of term t, flattened, so a jet
    # evaluation is one matrix product per trigonometric factor.
    def _basis(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        cache = self.__dict__.setdefault("_basis_cache", {})
        if order not in cache:
            K, A, B = self._kmat, self._amat, self._bmat
            T = K.shape[0]
            n, q = self.n, self.q
            width = n ** order * q
            if T == 0:
                cache[order] = (np.zeros((0, width)), np.zeros((0, width)))
            else:
                kprod = np.ones((T, 1))
                for _ in range(order):
                    kprod = (kprod[:, :, None] * K[:, None, :]).reshape(T, -1)
                cache[order] = (
                    (kprod[:, :, None] * A[:, None, :]).reshape(T, width),
                    (kprod[:, :, None] * B[:, None, :]).reshape(T, width),
                )
        return cache[order]


@dataclass(frozen=True, eq=False)
class Jet:
    """Value and analytic partial derivatives of an immersion at one point.

    ``d2`` is symmetric in its first two indices and ``d3`` is fully
    symmetric in its first three, bit-exactly, because both come from the
    same per-term products of frequencies.
    """

    order: int
    value: np.ndarray                 # (q,)
    d1: np.ndarray | None = None      # (n, q)
    d2: np.ndarray | None = None      # (n, n, q)
    d3: np.ndarray | None = None      # (n, n, n, q)
    theta: np.ndarray | None = None   # (n,) the point, named in errors


def jets_at(imm: FourierImmersion, thetas: np.ndarray, order: int):
    """Evaluate value and derivatives at a batch of parameter points.

    Parameters
    ----------
    thetas : (P, n) array of parameter points.
    order : 0..3; higher derivatives are returned as None beyond it.

    Returns
    -------
    (value, d1, d2, d3) with shapes (P,q), (P,n,q), (P,n,n,q), (P,n,n,n,q).
    Callers are responsible for chunking large batches.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"jet order must be in 0..3, got {order}")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, q = imm.n, imm.q
    if thetas.shape[1] != n:
        raise ValueError(f"theta must have {n} components, got {thetas.shape[1]}")
    P = thetas.shape[0]
    lam = imm.scale

    phases = thetas @ imm._kmat.T              # (P, T)
    c, s = np.cos(phases), np.sin(phases)
    a0, b0 = imm._basis(0)
    value = lam * (c @ a0 + s @ b0) + imm.translate

    # Each derivative order d/dphase cycles (cos, sin) -> (-sin, cos).
    d1 = d2 = d3 = None
    if order >= 1:
        a1, b1 = imm._basis(1)
        d1 = (lam * (-(s @ a1) + c @ b1)).reshape(P, n, q)
    if order >= 2:
        a2, b2 = imm._basis(2)
        d2 = (lam * (-(c @ a2) - s @ b2)).reshape(P, n, n, q)
    if order >= 3:
        a3, b3 = imm._basis(3)
        d3 = (lam * (s @ a3 - c @ b3)).reshape(P, n, n, n, q)
    return value, d1, d2, d3


def evaluate_jet(imm: FourierImmersion, theta, order: int = 3) -> Jet:
    """Exact jet of the immersion at a single parameter point."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    value, d1, d2, d3 = jets_at(imm, theta, order)
    return Jet(
        order=order,
        value=value[0],
        d1=None if d1 is None else d1[0],
        d2=None if d2 is None else d2[0],
        d3=None if d3 is None else d3[0],
        theta=theta[0],
    )


def transform(imm: FourierImmersion, Q: np.ndarray, c=None, lam: float = 1.0) -> FourierImmersion:
    """Ambient similarity x -> lam * Q x + c applied to the whole immersion.

    Q must be orthogonal within 1e-12 in Frobenius norm; the transform is
    pushed into the coefficients, the scale, and the translation, so jets of
    the result are the transformed jets of the input.
    """
    q = imm.q
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (q, q):
        raise ValueError(f"Q must be {q}x{q}, got {Q.shape}")
    defect = float(np.linalg.norm(Q.T @ Q - np.eye(q)))
    if defect > 1e-12:
        raise NonOrthogonal(f"Q'Q deviates from identity by {defect:.3e} (> 1e-12)")
    if not (lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    c = np.zeros(q) if c is None else np.asarray(c, dtype=float)
    new_terms = tuple(FourierTerm(t.k, Q @ t.a, Q @ t.b) for t in imm.terms)
    return FourierImmersion(
        signature=imm.signature,
        terms=new_terms,
        scale=lam * imm.scale,
        translate=lam * (Q @ imm.translate) + c,
    )


def immersion_rank_check(imm: FourierImmersion, grid, chunk: int = 4096) -> float:
    """Smallest singular value of the differential over a parameter grid.

    `grid` is anything with an ``iter_points(chunk)`` method (a TorusGrid) or
    a plain (P, n) array of points.  The caller decides what threshold makes
    the map count as an immersion; a constant map returns exactly 0.
    """
    if hasattr(grid, "iter_points"):
        batches = grid.iter_points(chunk)
    else:
        pts = np.atleast_2d(np.asarray(grid, dtype=float))
        batches = ((i, pts[i:i + chunk]) for i in range(0, pts.shape[0], chunk))
    smallest = np.inf
    for _, thetas in batches:
        _, d1, _, _ = jets_at(imm, thetas, order=1)
        sv = np.linalg.svd(d1, compute_uv=False)   # (P, n)
        smallest = min(smallest, float(sv.min()))
    return smallest
