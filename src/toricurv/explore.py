"""Numerical probe of the open pointwise bound.

Minimizes (a smoothed version of) the grid supremum of zh over Fourier
coefficients of torus immersions constrained to the unit ball by a quadratic
penalty.  Descent uses derivative-free coordinate pattern search: the
objective's sup structure has subgradient kinks wherever the maximizing grid
point swaps, which makes analytic gradients brittle.  Smoothing is for the
descent only: the best immersion is judged by verify's ball and conjecture
checks, whose refined maxima are the reported suprema.

Trials differ only in their coefficients, so one search shares one table:
the grid points in the chunks grid_fields uses, [cos | sin] of their phases
at the F canonical frequencies, P * 2F doubles for P grid points, and the
jet basis's frequency products and coefficient slots.  A trial is scored
from its coefficient vector through that table and the field kernel: its
jet basis is one gather and one multiply, and no immersion is built and no
cos/sin recomputed.

Restarts are independent: each starts from its own sub-seed and returns its
own best-so-far history.  optimize runs them through forked.fork_map in up
to min(restarts, usable CPUs) processes forked after the table is built, so
the workers inherit it, or in-process where one CPU is usable or no fork
can be made.  Merged in restart order, on one BLAS thread, the result is
the same for any number of processes and when a fork fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import forked, verify
from .designs import builtin_design, clifford, subtorus_immersion
from .errors import DegenerateMetric
from .fixtures import canonical_frequencies
from .immersion import FourierImmersion, FourierTerm, Signature, _basis_table, _gather_basis, _split_jets, _trig
# grid_fields is not called here; perfbench/tests/test_tracer.py still wraps it by this name
from .pointwise import _jet_core, _scalar_invariants, grid_fields  # noqa: F401
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
        # Non-finite values would score every trial NaN and keep no restart.
        if not (math.isfinite(self.penalty_weight) and self.penalty_weight >= 0):
            raise ValueError(f"penalty_weight must be finite and nonnegative, "
                             f"got {self.penalty_weight!r}")
        if not (math.isfinite(self.smoothing) and self.smoothing > 0):
            raise ValueError(f"smoothing must be finite and positive, got {self.smoothing!r}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    config: SearchConfig
    best: FourierImmersion
    sup_zh: float                    # verify._zh_top's refined max of zh
    max_norm: float                  # verify._ball_top's refined max |f|
    objective_history: tuple[float, ...]
    counterexample_candidate: bool   # verify's exit code on ball and conjecture is 3
    best_restart: int


def _soft_max(values: np.ndarray, temperature: float) -> float:
    top = float(np.max(values))
    return top + temperature * math.log(float(np.mean(np.exp((values - top) / temperature))))


class TrialTable(NamedTuple):
    """What every trial of one search shares: the canonical frequency slots,
    the _basis_table of their order-2 jets in R^q, and for each chunk of
    forked._CHUNK grid points (the chunks of every grid pass) its start, its
    points and [cos | sin](theta K') for the (F, n) frequency matrix K,
    P * 2F doubles in all."""

    config: SearchConfig
    freqs: list[tuple[int, ...]]
    basis: tuple[np.ndarray, np.ndarray]
    chunks: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def trial_table(config: SearchConfig) -> TrialTable:
    freqs = canonical_frequencies(config.n, config.fmax)
    K = np.array(freqs, dtype=float).reshape(-1, config.n)
    chunks = tuple((start, thetas, _trig(thetas, K))
                   for start, thetas in config.grid.iter_points(forked._CHUNK))
    return TrialTable(config, freqs, _basis_table(K, config.q, 2), chunks)


def objective(x: np.ndarray, trials: TrialTable) -> float:
    """Smoothed sup of zh plus the ball penalty of the immersion with
    coefficient vector x over trials.freqs; large but finite when degenerate.

    The jet basis is trials.basis gathered at x, which holds the terms'
    [a, b] in frequency-slot order, bit-equal to the _jet_basis of
    _immersion_from(x) when every frequency slot is nonzero; the jets are
    trig @ basis per chunk, and the fields come from the kernel grid_fields
    runs.  No frequency product is recomputed per trial."""
    config = trials.config
    n, q = config.n, config.q
    basis = _gather_basis(trials.basis, x)
    zh = np.empty(config.grid.npoints)
    r = np.empty(config.grid.npoints)
    try:
        for start, thetas, trig in trials.chunks:
            value, d1, d2, _ = _split_jets(trig @ basis, n, q, 2)
            S = _jet_core(d1, d2, thetas)[1]
            stop = start + thetas.shape[0]
            zh[start:stop] = _scalar_invariants(S)[3]
            r[start:stop] = np.linalg.norm(value, axis=1)
    except DegenerateMetric:
        return DEGENERATE_PENALTY
    soft = _soft_max(zh, config.smoothing)
    overshoot = max(0.0, float(np.max(r)) - 1.0)
    return soft + config.penalty_weight * overshoot * overshoot


def _initial_immersion(config: SearchConfig) -> FourierImmersion:
    """Certified extremal fixture for (n, q), as built: the hexagonal subtorus
    for (2, 6), otherwise the Clifford torus in R^2n, whose coefficients
    _coefficients places in the first 2n of the q ambient axes."""
    if (config.n, config.q) == (2, 6):
        return subtorus_immersion(builtin_design("hex2"))
    return clifford(config.n)


def _coefficients(imm: FourierImmersion, freqs: list[tuple[int, ...]], q: int) -> np.ndarray:
    """Coefficient vector over the canonical frequency slots in R^q, q >= imm.q,
    scale folded in, with imm's coefficients on the first imm.q ambient axes
    and zeros after them; every frequency of imm is one of freqs."""
    x = np.zeros((len(freqs), 2, q))
    index = {k: i for i, k in enumerate(freqs)}
    for t in imm.terms:
        x[index[t.k], :, :imm.q] += imm.scale * np.stack([t.a, t.b])
    return x.reshape(-1)


def _immersion_from(x: np.ndarray, freqs: list[tuple[int, ...]], config: SearchConfig) -> FourierImmersion:
    coef = x.reshape(len(freqs), 2, config.q)
    terms = tuple(
        FourierTerm(k=freqs[i], a=coef[i, 0], b=coef[i, 1])
        for i in range(len(freqs))
        if np.any(coef[i] != 0.0)
    )
    return FourierImmersion(Signature(config.n, config.q), terms)


def _pattern_search(x0: np.ndarray, evaluate, budget: int) -> tuple[np.ndarray, float, list[float]]:
    """Coordinate pattern search with expansion on success, halving on a
    stalled sweep.  Returns the final point, its score and the best score so
    far after every evaluation."""
    history: list[float] = []
    running_best = math.inf
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
    return x, f, history


def _start(x_init: np.ndarray, seed: int, restart: int) -> np.ndarray:
    """A restart's starting coefficients: x_init perturbed by draws from the
    sub-seed (seed, restart)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(restart,))
    rng = np.random.Generator(np.random.Philox(seq))
    return x_init + 0.01 * rng.standard_normal(x_init.shape)


def _restart(trials: TrialTable, x_init: np.ndarray, restart: int) -> tuple[np.ndarray, float, list[float]]:
    """One restart of the search over trials from x_init: its final
    coefficients, their score and its own best-so-far history."""
    config = trials.config
    return _pattern_search(_start(x_init, config.seed, restart),
                           lambda x: objective(x, trials), config.iterations)


def optimize(config: SearchConfig) -> SearchResult:
    """Multi-restart search for immersions with small sup zh inside the ball.

    Deterministic for a fixed config; restarts use sub-seeds derived from
    (seed, restart index) and run in up to min(restarts, usable CPUs) forked
    processes (in this process when that is one or no fork can be made), on
    one BLAS thread.  The history is rebuilt in restart order as min(best of
    the earlier restarts, each restart's own best-so-far), which min makes
    exact, so the result is the same for any number of processes and when a
    fork fails.

    The best immersion is judged by verify's ball and conjecture checks on
    the search's grid, as `toricurv verify --checks ball,conjecture` judges
    it: the counterexample flag is set exactly when their exit code is 3
    (ball holds, conjecture fails), and sup_zh and max_norm are the refined
    maxima the two checks read, sup_zh also where ball fails and conjecture
    is skipped.  The checks' field passes certify the metric
    (lambda_min(g) >= 1e-12, or they raise DegenerateMetric).
    """
    trials = trial_table(config)
    x_init = _coefficients(_initial_immersion(config), trials.freqs, config.q)
    outcomes = forked.fork_map(functools.partial(_restart, trials, x_init), range(config.restarts),
                               "explore")

    history: list[float] = []
    running_best = math.inf
    best_x, best_f, best_restart = None, math.inf, 0
    for restart, (x, f, own) in enumerate(outcomes):
        history.extend(min(running_best, h) for h in own)
        running_best = history[-1]
        if f < best_f:   # strict: ties keep the lowest restart index
            best_x, best_f, best_restart = x, f, restart

    best = _immersion_from(best_x, trials.freqs, config)
    reports = verify.run_checks(best, config.grid, checks="ball,conjecture")
    return SearchResult(
        config=config,
        best=best,
        sup_zh=verify._zh_top(best, config.grid).value,
        max_norm=verify._ball_top(best, config.grid).value,
        objective_history=tuple(history),
        counterexample_candidate=verify.exit_code(reports) == 3,
        best_restart=best_restart,
    )
