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
from .forked import grid_pass


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

    def _basis(self, order: int) -> np.ndarray:
        """_jet_basis of this series up to order, cached per order."""
        cache = self.__dict__.setdefault("_basis_cache", {})
        if order not in cache:
            cache[order] = _jet_basis(self._kmat, self._amat, self._bmat, order, self.scale)
        return cache[order]


def _basis_table(K: np.ndarray, q: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """What _jet_basis gathers for frequencies K (T, n) in R^q up to order:
    the signed frequency products and the coefficient slot of every basis
    entry, both (2T, q(1 + n + ... + n^order)).

    Column block o holds the order-o entries, the frequency product times a
    coefficient per term, with the cos rows over the sin rows and the
    derivative signs folded into the products; a slot indexes the flat
    coefficients of a (T, 2, q) array of the terms' [a, b]."""
    T, n = K.shape
    slot = np.arange(2 * T * q).reshape(T, 2, 1, q)
    kprod = np.ones((T, 1, 1))
    cos_blocks, sin_blocks = [], []
    for o in range(order + 1):
        shape = (T, n ** o, q)
        # d/dphase maps a*cos + b*sin to b*cos - a*sin: the (sign, a or b) of the cos and sin rows
        signs = (((1.0, 0), (1.0, 1)), ((1.0, 1), (-1.0, 0)),
                 ((-1.0, 0), (-1.0, 1)), ((-1.0, 1), (1.0, 0)))[o]
        for blocks, (sign, ab) in zip((cos_blocks, sin_blocks), signs):
            blocks.append([np.broadcast_to(part, shape).reshape(T, n ** o * q)
                           for part in (sign * kprod, slot[:, ab])])
        kprod = (kprod * K[:, None, :]).reshape(T, n ** (o + 1), 1)
    return tuple(np.block([[block[i] for block in cos_blocks], [block[i] for block in sin_blocks]])
                 for i in (0, 1))


def _gather_basis(table: tuple[np.ndarray, np.ndarray], coef: np.ndarray,
                  scale: float = 1.0) -> np.ndarray:
    """The jet basis of a _basis_table at the flat coefficients coef of a
    (T, 2, q) array [a, b]: one gather and one multiply, and the scale.
    Each entry is +-(product x coefficient), exactly, zeros' signs included."""
    factor, slot = table
    basis = coef.take(slot)
    basis *= factor
    basis *= scale
    return basis


def _jet_basis(K: np.ndarray, A: np.ndarray, B: np.ndarray, order: int,
               scale: float = 1.0) -> np.ndarray:
    """Stacked jet basis of the series sum_t a_t cos(k_t . theta) + b_t sin(k_t . theta)
    with frequencies K (T, n) and coefficients A, B (T, q), times scale, so
    that [cos | sin] @ basis is every jet up to order (split by _split_jets):
    _gather_basis of _basis_table."""
    return _gather_basis(_basis_table(K, A.shape[1], order), np.stack([A, B], axis=1), scale)


def _trig(thetas: np.ndarray, K: np.ndarray) -> np.ndarray:
    """[cos | sin](thetas @ K') for (P, n) points and (T, n) frequencies, (P, 2T)."""
    phases = thetas @ K.T
    T = K.shape[0]
    trig = np.empty((thetas.shape[0], 2 * T))
    np.cos(phases, out=trig[:, :T])
    np.sin(phases, out=trig[:, T:])
    return trig


def _split_jets(out: np.ndarray, n: int, q: int, order: int):
    """(value, d1, d2, d3) views of a (P, q(1 + n + ... + n^order)) product
    [cos | sin] @ _jet_basis(..., order), with None beyond order; value holds
    no translation."""
    P = out.shape[0]
    value = out[:, :q]
    d1 = d2 = d3 = None
    if order >= 1:
        d1 = out[:, q:q * (1 + n)].reshape(P, n, q)
    if order >= 2:
        d2 = out[:, q * (1 + n):q * (1 + n + n * n)].reshape(P, n, n, q)
    if order >= 3:
        d3 = out[:, q * (1 + n + n * n):].reshape(P, n, n, n, q)
    return value, d1, d2, d3


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
    trig = _trig(thetas, imm._kmat)
    value, d1, d2, d3 = _split_jets(trig @ imm._basis(order), n, q, order)   # one GEMM for every order
    return value + imm.translate, d1, d2, d3


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


def immersion_rank_check(imm: FourierImmersion, grid) -> float:
    """Smallest singular value of the differential over the points of a
    TorusGrid, as sqrt(max(lambda_min(g), 0)) from the n x n metric
    g = d1 d1', bracketed by _metric_eigenvalues' Gershgorin bound as in
    analyze's pass.  The caller decides what threshold makes the map count as
    an immersion; a constant map returns exactly 0, and a metric with any
    entry not finite (jets that overflow) returns NaN, not a value read from
    the points that did not overflow.
    """
    def kernel(thetas):
        return _metric_eigenvalues(_metric(jets_at(imm, thetas, order=1)[1]))

    # np.maximum keeps a NaN minimum, where max(0.0, nan) would return 0.0
    return float(np.sqrt(np.maximum(grid_pass(grid, 1, kernel, "rank check").min(), 0.0)))


def _metric(d1: np.ndarray) -> np.ndarray:
    """The metrics g = d1 d1' of a (P, n, q) batch of first derivatives, the
    one metric product of the package.  It multiplies by a contiguous copy of
    d1': given d1's own transpose, numpy's matmul calls syrk and then copies
    a triangle, per point, at about twice the cost."""
    return d1 @ d1.transpose(0, 2, 1).copy()


def _metric_eigenvalues(g: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
    """lambda_min from eigvalsh at each point of a (P, n, n) batch of metrics
    where it can be the batch's minimum, inf elsewhere and NaN where the
    metric is not finite, so the batch's minimum is eigvalsh's at every
    point, bit for bit, or NaN.  A kernel for grid_pass's floating-point mode.

    A lower bound on lambda_min brackets the minimum: the Gershgorin bound
    min_i (g_ii - sum_{j != i} |g_ij|), or, given the inverse factor L of
    g^-1 = L'L, the larger of it and 1/|L|_F^2 (since lambda_max(g^-1) <=
    tr g^-1), less 1e-12 max|g| for roundoff.  eigvalsh runs at the finite
    point of lowest bound, then where the bound is at most that exact value.
    """
    finite = np.isfinite(g).all(axis=(1, 2))
    size = np.abs(g)
    diag = np.einsum("pii->pi", g)
    bound = (2.0 * diag - size.sum(axis=2)).min(axis=1)
    if L is not None:
        bound = np.fmax(bound, 1.0 / np.einsum("pij,pij->p", L, L))
    bound -= 1e-12 * size.max(axis=(1, 2))
    bound[~np.isfinite(bound)] = -np.inf       # no bound, or an overflowed one: always solved
    bound[~finite] = np.inf                    # never solved
    out = np.where(finite, np.inf, np.nan)
    if finite.any():
        lowest = np.argmin(bound)
        solve = bound <= np.linalg.eigvalsh(g[lowest])[0]
        solve[lowest] = True
        out[solve] = np.linalg.eigvalsh(g[solve])[:, 0]
    return out
