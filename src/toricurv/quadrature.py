"""Torus grids and uniform direction sampling on spheres.

Averages over a grid (pointwise.weighted_average) are the equispaced
trapezoidal rule, which is exact for trigonometric polynomials resolved by
the grid and spectrally accurate for smooth periodic integrands.  Direction
sampling normalizes standard normal draws from a counter-based generator, so
a (seed, count, n) triple always produces the same sequence no matter how
the work is chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _philox(seed: int) -> np.random.Generator:
    """Philox generator keyed by the seed modulo 2^64, so every integer seed runs."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed % 2 ** 64)))


def _coordinate(j, N: int) -> np.ndarray:
    """Grid coordinate(s) 2*pi*j/N of integer index(es) j on an axis of N points."""
    return 2.0 * math.pi * np.asarray(j, dtype=float) / N


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid theta_j = 2*pi*(j_1/N_1, ..., j_n/N_n) on the torus."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(N) for N in self.sizes)
        if not sizes:
            raise ValueError("grid needs at least one axis")
        if any(N < 4 for N in sizes):
            raise ValueError(f"all grid sizes must be >= 4, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return math.prod(self.sizes)

    def theta_at(self, flat_index) -> np.ndarray:
        """Parameter point(s) for flat C-order indices."""
        idx = np.unravel_index(np.asarray(flat_index), self.sizes)
        return np.stack([_coordinate(j, N) for j, N in zip(idx, self.sizes)], axis=-1)

    def axes(self) -> list[np.ndarray]:
        """Each axis's coordinates 2*pi*j/N_i, j = 0..N_i - 1, by theta_at's
        arithmetic, so theta_at of a flat index is these values at its
        multi-index."""
        return [_coordinate(np.arange(N), N) for N in self.sizes]

    def iter_points(self, chunk: int = 4096):
        """Yield (start, thetas) batches in flat C order."""
        P = self.npoints
        for start in range(0, P, chunk):
            stop = min(start + chunk, P)
            yield start, self.theta_at(np.arange(start, stop))

    def points(self) -> np.ndarray:
        """All grid points as a (P, n) array (only sensible for small grids)."""
        return self.theta_at(np.arange(self.npoints))

    def doubled(self) -> "TorusGrid":
        return TorusGrid(tuple(2 * N for N in self.sizes))

    @staticmethod
    def default(n: int) -> "TorusGrid":
        """Desk-scale defaults: 64^2, 32^3, 16^4; 512 for a circle, 8^n above."""
        per_axis = {1: 512, 2: 64, 3: 32, 4: 16}.get(n, 8)
        return TorusGrid((per_axis,) * n)


@dataclass(frozen=True)
class SphereSampler:
    """Deterministic uniform sampler of unit directions in R^n."""

    n: int
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def directions(self) -> np.ndarray:
        """(count, n) unit vectors, a pure function of (seed, count, n)."""
        g = _philox(self.seed)
        z = g.standard_normal((self.count, self.n))
        norms = np.linalg.norm(z, axis=1)
        degenerate = norms < 1e-12
        if np.any(degenerate):  # measure-zero event; pin a fixed direction
            z[degenerate] = 0.0
            z[degenerate, 0] = 1.0
            norms = np.linalg.norm(z, axis=1)
        return z / norms[:, None]


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample)."""
    count = vals.shape[0]
    stderr = float(np.std(vals, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return float(np.mean(vals)), stderr


def sphere_average_mc(fn: Callable[[np.ndarray], np.ndarray], sampler: SphereSampler) -> tuple[float, float]:
    """Monte-Carlo sphere average of fn with its standard error.

    fn maps a (count, n) array of unit directions to (count,) values.
    """
    dirs = sampler.directions()
    vals = np.asarray(fn(dirs), dtype=float).reshape(-1)
    if vals.shape[0] != sampler.count:
        raise ValueError(f"fn returned {vals.shape[0]} values for {sampler.count} directions")
    return _mean_stderr(vals)


@dataclass(frozen=True)
class MonomialEntry:
    label: str
    mean: float
    stderr: float

    @property
    def deviation(self) -> float:
        return abs(self.mean - 1.0)

    @property
    def sigmas(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.deviation == 0.0 else math.inf
        return self.deviation / self.stderr


@dataclass(frozen=True)
class MonomialReport:
    n: int
    count: int
    seed: int
    entries: tuple[MonomialEntry, ...]

    @property
    def max_deviation(self) -> float:
        return max(e.deviation for e in self.entries)

    @property
    def worst_sigmas(self) -> float:
        return max(e.sigmas for e in self.entries)


def monomial_selftest(n: int, count: int, seed: int = 0) -> MonomialReport:
    """Check the two quartic monomial averages that normalize to 1 on S^(n-1).

    The scaled monomials n(n+2)/3 * x_i^4 and n(n+2) * x_i^2 x_j^2 have unit
    sphere average; the report carries each estimate with its standard error
    so callers can assert a 5-standard-error band.
    """
    dirs = SphereSampler(n, count, seed).directions()
    scale4 = n * (n + 2) / 3.0
    scale22 = float(n * (n + 2))
    entries = []
    for i in range(n):
        vals = scale4 * dirs[:, i] ** 4
        entries.append(MonomialEntry(f"x{i + 1}^4", *_mean_stderr(vals)))
    for i in range(n):
        for j in range(i + 1, n):
            vals = scale22 * dirs[:, i] ** 2 * dirs[:, j] ** 2
            entries.append(MonomialEntry(f"x{i + 1}^2*x{j + 1}^2", *_mean_stderr(vals)))
    return MonomialReport(n=n, count=count, seed=seed, entries=tuple(entries))
