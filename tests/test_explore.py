import errno
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from toricurv import explore, forked, immersion, pointwise
from toricurv.cli import main
from toricurv.explore import (
    DEGENERATE_PENALTY,
    SearchConfig,
    _coefficients,
    _immersion_from,
    _initial_immersion,
    _start,
    objective,
    optimize,
    trial_table,
)
from toricurv.fixtures import canonical_frequencies
from toricurv.immersion import FourierImmersion, Signature, evaluate_jet, transform
from toricurv.pointwise import grid_fields
from toricurv.quadrature import TorusGrid

from conftest import needs_child_list, no_children, signal_mid_run


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


def test_only_the_trial_table_builds_a_jet_basis(monkeypatch):
    # A search's frequency products and coefficient slots are built once, in
    # its trial table; a trial only gathers its coefficients into them.
    built = []
    real = immersion._basis_table

    def counted(K, q, order):
        built.append((K.shape, q, order))
        return real(K, q, order)

    monkeypatch.setattr(immersion, "_basis_table", counted)
    monkeypatch.setattr(explore, "_basis_table", counted)
    cfg = config()
    trials = trial_table(cfg)
    assert built == [((len(trials.freqs), 2), 6, 2)]
    x = _coefficients(_initial_immersion(cfg), trials.freqs, cfg.q)
    for step in range(3):
        objective(x + 0.01 * step, trials)
    assert len(built) == 1


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
    # q = 7 starts from Clifford(2) in R^4, as built; its q = 7 coefficient
    # vector is the R^4 one on the first 4 axes and zero on the other 3, the
    # Clifford torus padded into R^7.
    cfg = config(n=2, q=7)
    start = _initial_immersion(cfg)
    assert start.q == 4
    freqs = canonical_frequencies(2, cfg.fmax)
    x = _coefficients(start, freqs, 7)
    padded = x.reshape(len(freqs), 2, 7)
    assert np.array_equal(padded[:, :, :4].ravel(), _coefficients(start, freqs, 4))
    assert not padded[:, :, 4:].any()
    padded_jet, jet = (evaluate_jet(imm, [0.3, 1.1], 1) for imm in (_immersion_from(x, freqs, cfg), start))
    for got, want in ((padded_jet.value, jet.value), (padded_jet.d1, jet.d1)):
        np.testing.assert_allclose(got[..., :4], want, rtol=0, atol=1e-15)
        assert not got[..., 4:].any()
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


# ---------------------------------------------------------------- restart pool

# A two-worker search that runs for minutes unless it is signalled.
SEARCH = ("import toricurv.forked as f; f.usable_cpus = lambda: 2; from toricurv.cli import main; "
          "main(['explore', '--n', '2', '--q', '6', '--grid', '8', '--iterations', '1000000', "
          "'--restarts', '2'])")

def optimize_on(monkeypatch, cpus, cfg):
    """optimize with the usable CPU count patched to cpus (None: this machine's)."""
    if cpus is not None:
        monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
    return optimize(cfg)


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_optimize_independent_of_worker_count(monkeypatch, restarts):
    # 3 restarts on 2 workers: a count that does not divide the restarts.
    cfg = config(restarts=restarts)
    serial = optimize_on(monkeypatch, 1, cfg)
    for cpus in (None, 2):
        pooled = optimize_on(monkeypatch, cpus, cfg)
        assert pooled.objective_history == serial.objective_history
        assert [t.k for t in pooled.best.terms] == [t.k for t in serial.best.terms]
        np.testing.assert_array_equal(pooled.best._amat, serial.best._amat)
        np.testing.assert_array_equal(pooled.best._bmat, serial.best._bmat)
        assert pooled.best_restart == serial.best_restart
        assert pooled.sup_zh == serial.sup_zh
        assert pooled.max_norm == serial.max_norm
    assert no_children()


# n = 4 at 6^4: each trial's jet GEMM is large enough for OpenBLAS to
# thread it, and its rounding then moves with the thread count.
GEMM_SIZED = dict(n=4, q=8, fmax=2, grid=TorusGrid((6,) * 4), seed=1, iterations=3)


@pytest.fixture(scope="module")
def forked_history():
    """The history of two GEMM-sized restarts, each in a forked worker."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        history = list(optimize_on(monkeypatch, 2, config(**GEMM_SIZED, restarts=2)).objective_history)
    assert len(history) == 6
    return history


def test_in_process_restart_matches_the_forked_one(monkeypatch, forked_history):
    # One restart runs in this process: its history is the forked first
    # restart's, bit for bit.
    alone = optimize_on(monkeypatch, 2, config(**GEMM_SIZED, restarts=1))
    assert list(alone.objective_history) == forked_history[:3]


def test_failed_fork_gives_the_forked_history(monkeypatch, forked_history):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    here = optimize_on(monkeypatch, 2, config(**GEMM_SIZED, restarts=2))
    assert list(here.objective_history) == forked_history


@pytest.mark.parametrize("cpus, in_parent", [(1, True), (2, False)])
def test_restarts_run_in_workers_when_cpus_allow(monkeypatch, cpus, in_parent):
    scored = []

    def counted(x, trials):
        scored.append(os.getpid())      # a forked worker appends to its own copy
        return objective(x, trials)

    monkeypatch.setattr(explore, "objective", counted)
    optimize_on(monkeypatch, cpus, config())
    assert bool(scored) == in_parent


@pytest.mark.parametrize("cpus", [1, 2])
def test_restart_exception_reaches_caller(monkeypatch, cpus):
    cfg = config(restarts=3)
    trials = trial_table(cfg)
    failing_start = _start(_coefficients(_initial_immersion(cfg), trials.freqs, cfg.q), cfg.seed, 1)

    def fails_on_restart_1(x, trials):
        if np.array_equal(x, failing_start):
            raise ArithmeticError("restart 1 failed")
        return objective(x, trials)

    monkeypatch.setattr(explore, "objective", fails_on_restart_1)
    with pytest.raises(ArithmeticError, match="restart 1 failed"):
        optimize_on(monkeypatch, cpus, cfg)
    assert no_children()


def _dies_in_worker(*args):
    """_restart, except that a forked worker running it dies at once."""
    if forked._in_worker:
        os._exit(1)
    raise AssertionError("the restarts ran in the parent process")


def test_dead_worker_exits_2(monkeypatch, capsys):
    # optimize raises WorkerDied, which the CLI reports with exit 2: exit 1
    # is reserved for a proven bound that fails.
    monkeypatch.setattr(explore, "_restart", _dies_in_worker)
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    assert main(["explore", "--n", "2", "--q", "6", "--grid", "8", "--iterations", "5",
                 "--restarts", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: explore: a worker process died")
    assert no_children()


@needs_child_list
def test_killed_search_leaves_no_worker():
    # A search ended by SIGKILL (a deadline, timeout(1)) cannot end its
    # workers; they must still not run on.
    assert signal_mid_run(SEARCH, signal.SIGKILL)[2] == []


@needs_child_list
def test_interrupted_search_ends_its_workers():
    # Ctrl-C kills the workers instead of waiting for their restarts.
    exit_s, code, left = signal_mid_run(SEARCH, signal.SIGINT)
    assert code == -signal.SIGINT and exit_s < 2.0 and left == []


def test_cli_import_loads_no_pool_modules():
    # Workers are forked by os.fork, so no command pays for importing
    # multiprocessing or concurrent.futures.
    code = ("import sys, toricurv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"
