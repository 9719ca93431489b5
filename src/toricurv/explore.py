"""Numerical probe of the open pointwise bound.

Minimizes (a smoothed version of) the grid supremum of zh over Fourier
coefficients of torus immersions constrained to the unit ball by a quadratic
penalty.  Descent uses derivative-free coordinate pattern search: the
objective's sup structure has subgradient kinks wherever the maximizing grid
point swaps, which makes analytic gradients brittle.  Smoothing is for the
descent only; reported suprema are always the exact grid maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import builtin_design, clifford, subtorus_immersion
from .errors import DegenerateMetric
from .fixtures import canonical_frequencies
from .immersion import FourierImmersion, FourierTerm, Signature, immersion_rank_check
from .pointwise import grid_fields
from .quadrature import TorusGrid

DEGENERATE_PENALTY = 1e9


@dataclass(frozen=True)
class SearchConfig:
    n: int
    q: int
    fmax: int
    grid: TorusGrid
    seed: int = 0
    iterations: int = 500            # objective evaluations per restart
    restarts: int = 4
    penalty_weight: float = 1e3
    smoothing: float = 0.05          # soft-max temperature for sup zh

    def __post_init__(self) -> None:
        if self.q < 2 * self.n:
            raise ValueError(f"q must be at least 2n = {2 * self.n} (the search starts from a "
                             f"Clifford torus), got q={self.q}, n={self.n}")
        if self.fmax < 1:
            raise ValueError("fmax must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (self.penalty_weight >= 0):
            raise ValueError("penalty_weight must be nonnegative")
        if not (self.smoothing > 0):
            raise ValueError("smoothing must be positive")


@dataclass(frozen=True, eq=False)
class SearchResult:
    config: SearchConfig
    best: FourierImmersion
    sup_zh: float                    # exact max of zh over the refined grid
    max_norm: float                  # max |f| over the refined grid
    min_singular_value: float        # rank check on the refined grid
    objective_history: tuple[float, ...]
    counterexample_candidate: bool
    best_restart: int


def _soft_max(values: np.ndarray, temperature: float) -> float:
    top = float(np.max(values))
    return top + temperature * math.log(float(np.mean(np.exp((values - top) / temperature))))


def objective(imm: FourierImmersion, config: SearchConfig) -> float:
    """Smoothed sup of zh plus the ball penalty; large but finite when degenerate."""
    try:
        fields = grid_fields(imm, config.grid)
    except DegenerateMetric:
        return DEGENERATE_PENALTY
    soft = _soft_max(fields.zh, config.smoothing)
    overshoot = max(0.0, float(np.max(fields.r)) - 1.0)
    return soft + config.penalty_weight * overshoot * overshoot


def _initial_immersion(config: SearchConfig) -> FourierImmersion:
    """Certified extremal fixture matching (n, q): the hexagonal subtorus for
    (2, 6), otherwise a Clifford torus padded into the ambient space."""
    n, q = config.n, config.q
    if (n, q) == (2, 6):
        return subtorus_immersion(builtin_design("hex2"))
    base = clifford(n)
    if q == base.q:
        return base
    terms = []
    for t in base.terms:
        a = np.zeros(q)
        b = np.zeros(q)
        a[:base.q] = t.a
        b[:base.q] = t.b
        terms.append(FourierTerm(t.k, a, b))
    return FourierImmersion(Signature(n, q), tuple(terms), scale=base.scale)


def _coefficients(imm: FourierImmersion, freqs: list[tuple[int, ...]], q: int) -> np.ndarray:
    """Coefficient vector over the canonical frequency slots, scale folded in."""
    x = np.zeros((len(freqs), 2, q))
    index = {k: i for i, k in enumerate(freqs)}
    for t in imm.terms:
        k = t.k
        sign = 1.0
        if k not in index:
            k = tuple(-c for c in k)
            sign = -1.0
            if k not in index:
                raise ValueError(f"fixture frequency {t.k} exceeds fmax")
        x[index[k], 0] += imm.scale * t.a
        x[index[k], 1] += sign * imm.scale * t.b
    return x.reshape(-1)


def _immersion_from(x: np.ndarray, freqs: list[tuple[int, ...]], config: SearchConfig) -> FourierImmersion:
    coef = x.reshape(len(freqs), 2, config.q)
    terms = tuple(
        FourierTerm(k=freqs[i], a=coef[i, 0], b=coef[i, 1])
        for i in range(len(freqs))
        if np.any(coef[i] != 0.0)
    )
    return FourierImmersion(Signature(config.n, config.q), terms)


def _pattern_search(x0: np.ndarray, evaluate, budget: int, history: list[float],
                    running_best: float) -> tuple[np.ndarray, float, float]:
    """Coordinate pattern search with expansion on success, halving on a
    stalled sweep.  Appends the global best-so-far after every evaluation."""
    x = x0.copy()
    f = evaluate(x)
    running_best = min(running_best, f)
    history.append(running_best)
    used = 1
    step = 0.1
    dim = x.size
    while used < budget and step > 1e-9:
        improved = False
        for i in range(dim):
            if used >= budget:
                break
            for direction in (+1.0, -1.0):
                if used >= budget:
                    break
                trial = x.copy()
                trial[i] += direction * step
                ft = evaluate(trial)
                used += 1
                accepted = ft < f
                if accepted:
                    x, f = trial, ft
                    improved = True
                running_best = min(running_best, f)
                history.append(running_best)
                if accepted:
                    break
        if improved:
            step = min(step * 1.6, 0.5)
        else:
            step *= 0.5
    return x, f, running_best


def optimize(config: SearchConfig) -> SearchResult:
    """Multi-restart search for immersions with small sup zh inside the ball.

    Deterministic for a fixed config; restarts use sub-seeds derived from
    (seed, restart index), so their outcomes do not depend on scheduling.
    The counterexample flag is set only after re-verification on a grid with
    every size doubled plus a fresh full-rank check.
    """
    freqs = canonical_frequencies(config.n, config.fmax)
    x_init = _coefficients(_initial_immersion(config), freqs, config.q)

    def evaluate(x: np.ndarray) -> float:
        return objective(_immersion_from(x, freqs, config), config)

    history: list[float] = []
    running_best = math.inf
    best_x, best_f, best_restart = None, math.inf, 0
    for restart in range(config.restarts):
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(restart,))
        rng = np.random.Generator(np.random.Philox(seq))
        x0 = x_init + 0.01 * rng.standard_normal(x_init.shape)
        x, f, running_best = _pattern_search(x0, evaluate, config.iterations,
                                             history, running_best)
        if f < best_f:   # strict: ties keep the lowest restart index
            best_x, best_f, best_restart = x, f, restart

    best = _immersion_from(best_x, freqs, config)
    fine = config.grid.doubled()
    fields = grid_fields(best, fine)
    sup_zh = float(np.max(fields.zh))
    max_norm = float(np.max(fields.r))
    sigma_min = immersion_rank_check(best, fine)
    bound = 3.0 * config.n / (config.n + 2)
    candidate = (
        sup_zh < bound - 1e-4
        and max_norm <= 1.0 - 1e-6
        and sigma_min >= 1e-6
    )
    return SearchResult(
        config=config,
        best=best,
        sup_zh=sup_zh,
        max_norm=max_norm,
        min_singular_value=float(sigma_min),
        objective_history=tuple(history),
        counterexample_candidate=bool(candidate),
        best_restart=best_restart,
    )
