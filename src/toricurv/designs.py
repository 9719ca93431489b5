"""Clifford torii and their geodesic subtorii from integer frame matrices.

A frame matrix B (m rows b_j in Z^n, rank n) defines the flat subtorus map

    phi -> (1/sqrt(m)) * (cos(b_j . phi), sin(b_j . phi))_{j=1..m}  in R^{2m}

whose image lies on the unit sphere and whose induced metric is the constant
matrix B'B / m.  The squared normal curvature in a coordinate direction v
with v'Gv = m (G = B'B) is (1/m) * sum_j (b_j . v)^4, so the subtorus has
constant normal curvature exactly when the quartic sum_j (b_j . v)^4 is
proportional to (v'Gv)^2.  That proportionality is a polynomial identity
with integer coefficients, so it is certified here in exact rational
arithmetic; no floating-point test is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError, RankDeficient, UnknownDesign
from .immersion import FourierImmersion, FourierTerm, Signature


@dataclass(frozen=True)
class FrameMatrix:
    """Integer m x n matrix whose rows are the lattice frequencies of a subtorus."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(c) for c in r) for r in self.rows)
        if not rows:
            raise ValueError("frame matrix needs at least one row")
        n = len(rows[0])
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("all rows must have the same positive length")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def rank(self) -> int:
        """Rank over the rationals, by exact fraction elimination."""
        return _row_reduce([[Fraction(c) for c in row] for row in self.rows], self.n)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """G = B'B with exact integer entries."""
        n = self.n
        return tuple(
            tuple(sum(row[i] * row[j] for row in self.rows) for j in range(n))
            for i in range(n)
        )


@dataclass(frozen=True)
class DesignReport:
    """Exact-arithmetic certificate for one frame matrix."""

    m: int
    n: int
    gram: tuple[tuple[int, ...], ...]
    is_constant_curvature: bool
    c: Fraction | None                  # quartic proportionality constant, if constant
    K2: Fraction | None                 # exact K^2 = c * m, if constant
    K: float | None
    is_optimal: bool
    row_weights: tuple[Fraction, ...]   # b_j' G^{-1} b_j

    @property
    def optimal_K2(self) -> Fraction:
        """The sharp lower bound 3n/(n+2) this design is measured against."""
        return Fraction(3 * self.n, self.n + 2)


def _row_reduce(mat: list[list[Fraction]], ncols: int) -> int:
    """Exact Gauss-Jordan elimination of mat, in place, over its first ncols
    columns; returns the rank."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _fraction_inverse(G: tuple[tuple[int, ...], ...]) -> list[list[Fraction]]:
    n = len(G)
    a = [[Fraction(G[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    if _row_reduce(a, n) < n:
        raise RankDeficient("Gram matrix is singular")
    return [row[n:] for row in a]


def _poly_mul(p: dict, q: dict, n: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _linear_power4(b: tuple[int, ...]) -> dict:
    """Expansion of (b . v)^4 over the degree-4 monomial basis, exactly."""
    n = len(b)
    lin = {tuple(int(i == j) for j in range(n)): Fraction(b[i]) for i in range(n) if b[i] != 0}
    if not lin:
        return {}
    sq = _poly_mul(lin, lin, n)
    return _poly_mul(sq, sq, n)


def validate_design(B: FrameMatrix) -> DesignReport:
    """Certify constancy and optimality of the normal curvature, exactly.

    Constancy: sum_j (b_j . v)^4 == c * (v'Gv)^2 coefficient-wise, with
    c = sum_j b_j[0]^4 / G[0][0]^2.  Then K^2 = c*m.  Optimality: all row
    weights b_j' G^{-1} b_j equal (equivalently K^2 == 3n/(n+2)); the two
    formulations are cross-checked against each other.
    """
    n, m = B.n, B.m
    if B.rank() != n:
        raise RankDeficient(f"frame matrix has rank {B.rank()} < n = {n}")
    G = B.gram()
    Ginv = _fraction_inverse(G)
    row_weights = tuple(
        sum(Fraction(row[i]) * Ginv[i][j] * row[j] for i in range(n) for j in range(n))
        for row in B.rows
    )

    quartic: dict[tuple[int, ...], Fraction] = {}
    for row in B.rows:
        for e, c in _linear_power4(row).items():
            quartic[e] = quartic.get(e, Fraction(0)) + c
    quartic = {e: c for e, c in quartic.items() if c != 0}

    quad = {}
    for i in range(n):
        for j in range(n):
            e = tuple((int(i == a) + int(j == a)) for a in range(n))
            quad[e] = quad.get(e, Fraction(0)) + Fraction(G[i][j])
    gram_sq = _poly_mul(quad, quad, n)

    c = Fraction(sum(row[0] ** 4 for row in B.rows), G[0][0] ** 2)
    is_constant = quartic == {e: c * v for e, v in gram_sq.items() if c * v != 0}

    K2 = c * m if is_constant else None
    K = float(np.sqrt(float(K2))) if K2 is not None else None
    weights_equal = len(set(row_weights)) == 1
    optimal_by_K = is_constant and K2 == Fraction(3 * n, n + 2)
    if is_constant and (weights_equal != optimal_by_K):
        raise AssertionError(
            f"certificate inconsistency: equal row weights={weights_equal} "
            f"but K^2 == 3n/(n+2) is {optimal_by_K}"
        )
    if is_constant and K2 < Fraction(3 * n, n + 2):
        raise AssertionError(f"constant design violates the exact lower bound: K^2 = {K2}")
    return DesignReport(
        m=m, n=n, gram=G,
        is_constant_curvature=is_constant,
        c=c if is_constant else None,
        K2=K2, K=K,
        is_optimal=optimal_by_K,
        row_weights=row_weights,
    )


def subtorus_immersion(B: FrameMatrix) -> FourierImmersion:
    """Flat subtorus of the Clifford torus defined by the rows of B."""
    n, m = B.n, B.m
    if B.rank() != n:
        raise RankDeficient(f"frame matrix has rank {B.rank()} < n = {n}")
    q = 2 * m
    terms = []
    for j, row in enumerate(B.rows):
        a = np.zeros(q)
        b = np.zeros(q)
        a[2 * j] = 1.0       # cos component of circle j
        b[2 * j + 1] = 1.0   # sin component of circle j
        terms.append(FourierTerm(k=row, a=a, b=b))
    return FourierImmersion(
        signature=Signature(n=n, q=q),
        terms=tuple(terms),
        scale=1.0 / np.sqrt(m),
    )


def clifford(m: int) -> FourierImmersion:
    """Product of m circles of radius 1/sqrt(m); image on the unit sphere of R^{2m}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    return subtorus_immersion(FrameMatrix(eye))


def _d4_rows() -> tuple[tuple[int, ...], ...]:
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            row = [0, 0, 0, 0]
            row[i] = 1
            row[j] = sign
            rows.append(tuple(row))
    return tuple(rows)


def _axdiag3_rows() -> tuple[tuple[int, ...], ...]:
    rows = [tuple(int(i == j) for j in range(3)) for i in range(3) for _ in range(8)]
    rows += [(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)]
    return tuple(rows)


_BUILTINS = {
    "circle1": ((1,),),
    "hex2": ((1, 0), (0, 1), (1, 1)),
    "d4": _d4_rows(),
    "axdiag3": _axdiag3_rows(),
}


def builtin_design(name: str) -> FrameMatrix:
    """Catalog of certified frame matrices: circle1, hex2, d4, axdiag3."""
    try:
        return FrameMatrix(_BUILTINS[name])
    except KeyError:
        raise UnknownDesign(f"no built-in design named {name!r}; "
                            f"known: {sorted(_BUILTINS)}") from None


def parse_frame_matrix(text: str) -> FrameMatrix:
    """Frame matrix from plain text: one row per line, '#' comments ignored."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            rows.append(tuple(int(tok) for tok in body.split()))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: expected whitespace-separated integers, got {body!r}") from exc
    if not rows:
        raise ParseError("no matrix rows found")
    width = len(rows[0])
    for i, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ParseError(f"line with row {i}: expected {width} entries, got {len(r)}")
    return FrameMatrix(tuple(rows))


def format_frame_matrix(B: FrameMatrix) -> str:
    return "\n".join(" ".join(str(c) for c in row) for row in B.rows) + "\n"
