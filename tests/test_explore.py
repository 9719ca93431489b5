import math

import numpy as np
import pytest

from toricurv import pointwise
from toricurv.explore import (
    DEGENERATE_PENALTY,
    SearchConfig,
    _coefficients,
    _immersion_from,
    _initial_immersion,
    objective,
    optimize,
    trial_table,
)
from toricurv.immersion import FourierImmersion, Signature, transform
from toricurv.pointwise import grid_fields
from toricurv.quadrature import TorusGrid


def config(**kw):
    base = dict(n=2, q=6, fmax=1, grid=TorusGrid((12, 12)), seed=42,
                iterations=40, restarts=2)
    base.update(kw)
    return SearchConfig(**base)


def score_of(imm, cfg):
    """objective of an immersion whose frequencies are canonical slots of cfg."""
    trials = trial_table(cfg)
    return objective(_coefficients(imm, trials.freqs, cfg.q), trials)


def test_objective_softmax_limit(hexagonal):
    # zh is constant 1.5 on the hexagonal torus, so every temperature gives 1.5.
    cfg = config(smoothing=1e-3)
    assert abs(score_of(hexagonal, cfg) - 1.5) < 1e-9


def test_objective_penalty_arithmetic(clifford2):
    grown = transform(clifford2, np.eye(4), None, 1.1)
    cfg_free = config(q=4, penalty_weight=0.0, smoothing=1e-4, grid=TorusGrid((8, 8)))
    cfg_pen = config(q=4, penalty_weight=100.0, smoothing=1e-4, grid=TorusGrid((8, 8)))
    base = score_of(grown, cfg_free)
    with_pen = score_of(grown, cfg_pen)
    overshoot = 1.1 - 1.0
    assert abs(with_pen - base - 100.0 * overshoot**2) < 1e-9


def test_objective_degenerate_is_finite():
    zero = FourierImmersion(Signature(2, 6), ())
    val = score_of(zero, config())
    assert math.isfinite(val)
    assert val >= 1e9


def test_objective_zero_vector_scores_degenerate_penalty():
    trials = trial_table(config())
    assert objective(np.zeros(len(trials.freqs) * 2 * 6), trials) == DEGENERATE_PENALTY


@pytest.mark.parametrize("size", [16, 48])     # one kernel chunk; 2,304 points in three
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_objective_equals_score_of_grid_fields(size, seed):
    cfg = config(grid=TorusGrid((size, size)), penalty_weight=1e3, smoothing=0.05)
    trials = trial_table(cfg)
    x_init = _coefficients(_initial_immersion(cfg), trials.freqs, cfg.q)
    x = x_init + 0.01 * np.random.default_rng(seed).standard_normal(x_init.shape)
    fields = grid_fields(_immersion_from(x, trials.freqs, cfg), cfg.grid)
    top = float(np.max(fields.zh))
    soft = top + cfg.smoothing * math.log(float(np.mean(np.exp((fields.zh - top) / cfg.smoothing))))
    overshoot = max(0.0, float(np.max(fields.r)) - 1.0)
    assert objective(x, trials) == soft + cfg.penalty_weight * overshoot * overshoot


def test_optimize_calls_grid_fields_once(monkeypatch):
    calls = []

    def counted(imm, grid):
        calls.append(grid.sizes)
        return grid_fields(imm, grid)

    monkeypatch.setattr(pointwise, "grid_fields", counted)
    monkeypatch.setattr("toricurv.explore.grid_fields", counted)
    optimize(config())
    assert calls == [(24, 24)]


def test_initial_fixture_selection():
    assert _initial_immersion(config()).q == 6                    # hexagonal
    padded = _initial_immersion(config(n=2, q=7))
    assert padded.q == 7                                          # Clifford, padded
    with pytest.raises(ValueError):
        _initial_immersion(config(n=3, q=4))


@pytest.mark.parametrize("setting", ["smoothing", "penalty_weight"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_search_settings_must_be_finite(setting, value):
    # An infinite temperature or penalty scores every trial NaN, so no
    # restart is kept; the config refuses it before any trial.
    with pytest.raises(ValueError, match=setting):
        config(**{setting: value})


def test_optimize_deterministic():
    a = optimize(config())
    b = optimize(config())
    assert a.objective_history == b.objective_history
    assert a.sup_zh == b.sup_zh
    np.testing.assert_array_equal(
        a.best._amat, b.best._amat)


def test_optimize_history_monotone():
    res = optimize(config(iterations=60))
    h = res.objective_history
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))


def test_optimize_single_iteration_returns_initialization():
    res = optimize(config(iterations=1, restarts=1))
    assert len(res.objective_history) == 1
    # One evaluation: the perturbed hexagonal start, near its zh level.
    assert res.sup_zh > 1.4


def test_optimize_no_false_candidate_in_proven_case():
    res = optimize(config(iterations=80, restarts=2))
    assert not res.counterexample_candidate
    assert res.sup_zh >= 1.5 - 1e-3


def test_optimize_penalty_off_escapes_ball():
    # Without the ball constraint the objective is minimized by inflating the
    # torus: zh scales as 1/lambda^2.
    res = optimize(config(iterations=2500, restarts=1, penalty_weight=0.0,
                          grid=TorusGrid((8, 8))))
    assert res.max_norm > 1.0
    assert res.sup_zh < 1.5
    assert not res.counterexample_candidate   # not inside the ball
