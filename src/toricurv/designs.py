"""Clifford torii and their geodesic subtorii from integer frame matrices.

A frame matrix B (m rows b_j in Z^n, rank n) defines the flat subtorus map

    phi -> (1/sqrt(m)) * (cos(b_j . phi), sin(b_j . phi))_{j=1..m}  in R^{2m}

whose image lies on the unit sphere and whose induced metric is the constant
matrix B'B / m.  The squared normal curvature in a coordinate direction v
with v'Gv = m (G = B'B) is (1/m) * sum_j (b_j . v)^4, so the subtorus has
constant normal curvature exactly when the quartic sum_j (b_j . v)^4 is
proportional to (v'Gv)^2.  Two quartic forms are equal exactly when their
symmetric coefficient tensors are, so this is the integer identity

    3 G_00^2 sum_r b_ri b_rj b_rk b_rl == s4 (G_ij G_kl + G_ik G_jl + G_il G_jk)

between fourth-moment tensors at every i <= j <= k <= l, with
s4 = sum_r b_r0^4; no floating-point test is involved.
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


def validate_design(B: FrameMatrix) -> DesignReport:
    """Certify constancy and optimality of the normal curvature, exactly.

    Constancy: 3 G_00^2 T_ijkl == s4 (G_ij G_kl + G_ik G_jl + G_il G_jk) at
    every i <= j <= k <= l, in integers, where T_ijkl = sum_r b_ri b_rj b_rk b_rl
    and s4 = T_0000; that is sum_j (b_j . v)^4 == c (v'Gv)^2 with
    c = s4 / G_00^2, and then K^2 = c*m.  Optimality: all row weights
    b_j' G^{-1} b_j equal (equivalently K^2 == 3n/(n+2)); the two
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

    s4 = sum(row[0] ** 4 for row in B.rows)
    is_constant = all(
        3 * G[0][0] ** 2 * sum(row[i] * row[j] * row[k] * row[l] for row in B.rows)
        == s4 * (G[i][j] * G[k][l] + G[i][k] * G[j][l] + G[i][l] * G[j][k])
        for i, j, k, l in itertools.combinations_with_replacement(range(n), 4)
    )
    c = Fraction(s4, G[0][0] ** 2)

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
