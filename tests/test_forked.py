"""Forked workers: fork_map's contract, and the grid passes split over workers."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from toricurv import forked, intrinsic, pointwise
from toricurv.cli import main
from toricurv.designs import clifford
from toricurv.errors import DegenerateMetric
from toricurv.immersion import FourierImmersion, FourierTerm, Signature
from toricurv.quadrature import TorusGrid

from conftest import needs_child_list, no_children, signal_mid_run

FLOOR = forked._MIN_CHUNKS_PER_WORKER


@pytest.fixture
def workers(monkeypatch):
    """use(cpus): make cpus CPUs usable and let every multi-chunk pass fork;
    returns a list that gets one entry per worker forked since."""
    forks = []
    fork_worker = forked._fork_worker

    def counted(*args):
        forks.append(1)
        return fork_worker(*args)

    def use(cpus):
        monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
        forks.clear()
        return forks

    monkeypatch.setattr(forked, "_MIN_CHUNKS_PER_WORKER", 1)
    monkeypatch.setattr(forked, "_fork_worker", counted)
    return use


# ---------------------------------------------------------------- fork_map

def test_fork_map_keeps_item_order():
    parent, items = os.getpid(), list(range(7))
    for count in (1, 2, 3):
        assert forked.fork_map(lambda x: (x, os.getpid() != parent), items, count, "t") == \
            [(x, count > 1) for x in items]
    assert no_children()


def test_fork_map_hands_out_items_one_at_a_time():
    # While one worker sleeps on item 0, the other takes every later item.
    def pid_after(x):
        time.sleep(0.5 if x == 0 else 0.0)
        return os.getpid()

    pids = forked.fork_map(pid_after, range(6), 2, "t")
    assert pids[0] != os.getpid() and set(pids[1:]) == {pids[1]} != {pids[0]}


def test_fork_map_raises_the_first_failure_in_item_order():
    # Item 2 fails at once, item 1 later; serially item 1 fails first.
    def fails(x):
        if x == 1:
            time.sleep(0.3)
        if x in (1, 2):
            raise ArithmeticError(f"item {x}")
        return x

    with pytest.raises(ArithmeticError, match="item 1"):
        forked.fork_map(fails, range(4), 2, "t")
    assert no_children()


def test_a_failure_stops_the_other_workers():
    # Once item 0 fails, the other worker ends its current item and claims
    # no more; running all 20 others would take 2 s.
    def fails_first(x):
        if x == 0:
            raise ArithmeticError("item 0")
        time.sleep(0.1)

    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="item 0"):
        forked.fork_map(fails_first, range(21), 2, "t")
    assert time.monotonic() - start < 1.0


def test_workers_do_not_fork():
    outer = forked.fork_map(lambda _: (os.getpid(), forked.fork_map(lambda _: os.getpid(), [0, 1], 2, "inner")),
                            [0, 1], 2, "outer")
    for pid, inner in outer:
        assert pid != os.getpid() and inner == [pid, pid]


def test_workers_run_blas_on_one_thread():
    blas = forked._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread count")
    before = blas[0]()
    assert forked.fork_map(lambda _: blas[0](), [0, 1], 2, "t") == [1, 1]
    assert blas[0]() == before


# ---------------------------------------------------------------- grid passes

def test_pass_forks_from_the_floor_up(workers, monkeypatch):
    # Two CPUs: 2 * FLOOR - 1 field chunks stay in this process, 2 * FLOOR fork.
    imm = clifford(2)
    forks = workers(2)
    monkeypatch.setattr(forked, "_MIN_CHUNKS_PER_WORKER", FLOOR)
    pointwise._evaluate_fields(imm, TorusGrid((pointwise._GRID_CHUNK, 2 * FLOOR - 1)))
    assert forks == []
    pointwise._evaluate_fields(imm, TorusGrid((pointwise._GRID_CHUNK, 2 * FLOOR)))
    assert len(forks) == 2


# For each n, one grid per pass (fields, K estimates, analysis) of 5 or 7
# chunks of the pass's size, a count neither 2 nor 3 workers divide, the
# last chunk partial.
SPLIT_GRIDS = {
    2: ((65, 65), (33, 33), (48, 48)),
    3: ((16, 16, 17), (10, 10, 11), (13, 13, 14)),
    4: ((8, 8, 8, 9), (5, 5, 6, 7), (6, 7, 7, 8)),
    5: ((5, 5, 5, 6, 6), (4, 4, 4, 5, 5), (4, 4, 5, 5, 6)),
}


def _uneven(n):
    """Clifford(n) plus two small seeded terms at mixed frequencies: an
    immersion whose invariants vary over the torus, built without the
    fixtures' rank and ball searches over large grids."""
    base = clifford(n)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(n)))
    extra = tuple(FourierTerm(k=k, a=0.05 * rng.standard_normal(base.q), b=0.05 * rng.standard_normal(base.q))
                  for k in ((1,) * n, (1, -1) + (0,) * (n - 2)))
    return FourierImmersion(base.signature, base.terms + extra, scale=base.scale)


@pytest.mark.parametrize("n", sorted(SPLIT_GRIDS))
def test_passes_bit_equal_for_any_worker_count(workers, n):
    imm = _uneven(n)
    grids = [TorusGrid(sizes) for sizes in SPLIT_GRIDS[n]]
    for grid, chunk in zip(grids, (pointwise._GRID_CHUNK, pointwise._K_CHUNK, intrinsic._PASS_CHUNK)):
        chunks = -(-grid.npoints // chunk)
        assert grid.npoints % chunk and chunks % 2 and chunks % 3

    def passes():
        pointwise._grid_cache.pop(imm, None)
        fields = pointwise._evaluate_fields(imm, grids[0])
        return ([getattr(fields, name) for name in pointwise._FIELD_NAMES],
                pointwise.grid_K_estimates(imm, grids[1], 1), intrinsic._analysis_pass(imm, grids[2], 1))

    assert not workers(1)
    serial = passes()
    for cpus in (2, 3):
        forks = workers(cpus)
        split = passes()
        assert len(forks) == 3 * cpus
        for want, got in zip(serial[0] + list(serial[1]), split[0] + list(split[1])):
            assert np.array_equal(want, got)
        fields, sc, (k_min, k_max), sigma = split[2]
        want_fields, want_sc, (want_min, want_max), want_sigma = serial[2]
        for name in pointwise._FIELD_NAMES:
            assert np.array_equal(getattr(fields, name), getattr(want_fields, name))
        for got, want in ((sc, want_sc), (k_min, want_min), (k_max, want_max)):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert sigma == want_sigma
    assert no_children()


def _pinched():
    """f = (cos t0, sin t0, (1 + cos 2 t0) cos t1, (1 + cos 2 t0) sin t1): the
    t1 circle shrinks to a point at t0 = pi/2 and at t0 = 3 pi/2, where the
    metric is degenerate."""
    e = np.eye(4)
    return FourierImmersion(Signature(2, 4), (
        FourierTerm(k=(1, 0), a=e[0], b=e[1]),
        FourierTerm(k=(0, 1), a=e[2], b=e[3]),
        FourierTerm(k=(2, 1), a=0.5 * e[2], b=0.5 * e[3]),
        FourierTerm(k=(2, -1), a=0.5 * e[2], b=-0.5 * e[3]),
    ))


@pytest.mark.parametrize("run", [
    lambda imm, grid: pointwise._evaluate_fields(imm, grid),
    lambda imm, grid: pointwise.grid_K_estimates(imm, grid),
    lambda imm, grid: intrinsic._analysis_pass(imm, grid, 0),
], ids=["fields", "K", "analysis"])
def test_degenerate_point_named_as_in_one_process(workers, run):
    # Both degenerate rows lie in forked ranges (two in different workers
    # when split in two); the first in grid order is named either way.
    grid = TorusGrid((64, 64))
    serial_forks = workers(1)
    with pytest.raises(DegenerateMetric) as serial:
        run(_pinched(), grid)
    assert not serial_forks
    assert "theta=[1.5707963267948966, 0.0]" in str(serial.value)
    for cpus in (2, 3):
        forks = workers(cpus)
        with pytest.raises(DegenerateMetric) as split:
            run(_pinched(), grid)
        assert len(forks) == cpus and str(split.value) == str(serial.value)
    assert no_children()


def _clifford_input(tmp_path):
    path = tmp_path / "clifford.json"
    path.write_text(json.dumps({"type": "clifford", "m": 2}))
    return str(path)


@pytest.mark.parametrize("command, patched", [
    ("verify", (pointwise, "_chunk_core")),
    ("analyze", (intrinsic, "_pass_chunk")),
])
def test_dead_pass_worker_exits_2(workers, monkeypatch, capsys, tmp_path, command, patched):
    # WorkerDied is reported with exit 2 on every command, as on explore.
    kernel = getattr(*patched)

    def dies_in_worker(*args):
        if forked._in_worker:
            os._exit(1)
        return kernel(*args)

    workers(2)
    monkeypatch.setattr(*patched, dies_in_worker)
    argv = [command, _clifford_input(tmp_path), "--grid", "64,64", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "a worker process died" in capsys.readouterr().err
    assert no_children()


def _slow_verify(tmp_path):
    """Code for a verify whose first pass, split over 2 workers, takes 4 s."""
    return ("import time, toricurv.forked as f, toricurv.pointwise as p; "
            "f.usable_cpus = lambda: 2; f._MIN_CHUNKS_PER_WORKER = 1; "
            "core = p._chunk_core; p._chunk_core = lambda imm, t: (time.sleep(0.5), core(imm, t))[1]; "
            f"from toricurv.cli import main; main(['verify', {_clifford_input(tmp_path)!r}, '--grid', '64,64'])")


@needs_child_list
def test_killed_verify_leaves_no_worker(tmp_path):
    assert signal_mid_run(_slow_verify(tmp_path), signal.SIGKILL)[2] == []


@needs_child_list
def test_interrupted_verify_ends_its_workers(tmp_path):
    exit_s, code, left = signal_mid_run(_slow_verify(tmp_path), signal.SIGINT)
    assert code == -signal.SIGINT and exit_s < 2.0 and left == []


def test_one_chunk_verify_runs_in_process(monkeypatch, tmp_path):
    # A grid of one chunk per pass forks nothing and loads no pool module.
    def no_fork(*args):
        raise AssertionError("forked a worker")

    monkeypatch.setattr(forked, "_fork_worker", no_fork)
    path = _clifford_input(tmp_path)
    assert main(["verify", path, "--grid", "8,8"]) == 0
    code = ("import sys; from toricurv.cli import main; "
            f"main(['verify', {path!r}, '--grid', '8,8']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip().splitlines()[-1] == "[]"
