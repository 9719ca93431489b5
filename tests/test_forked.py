"""Forked workers: fork_map's contract, and the grid passes split over workers."""

import ast
import errno
import inspect
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from toricurv import cli, fixtures, forked, intrinsic, pointwise
from toricurv.cli import main
from toricurv.designs import clifford
from toricurv.errors import DegenerateMetric, WorkerDied
from toricurv.formats import save_immersion
from toricurv.immersion import FourierImmersion, FourierTerm, immersion_rank_check
from toricurv.quadrature import TorusGrid

from conftest import needs_child_list, no_children, pinched_torus, signal_mid_run

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

@pytest.fixture
def cpus(monkeypatch):
    """use(count): make count CPUs usable, so that fork_map forks up to count workers."""
    return lambda count: monkeypatch.setattr(forked, "usable_cpus", lambda: count)


def test_fork_map_keeps_item_order(cpus):
    parent, items = os.getpid(), list(range(7))
    for count in (1, 2, 3):
        cpus(count)
        assert forked.fork_map(lambda x: (x, os.getpid() != parent), items, "t") == \
            [(x, count > 1) for x in items]
    assert no_children()


def test_fork_map_hands_out_items_one_at_a_time(cpus):
    # While one worker sleeps on item 0, the other takes every later item.
    def pid_after(x):
        time.sleep(0.5 if x == 0 else 0.0)
        return os.getpid()

    cpus(2)
    pids = forked.fork_map(pid_after, range(6), "t")
    assert pids[0] != os.getpid() and set(pids[1:]) == {pids[1]} != {pids[0]}


def test_fork_map_raises_the_first_failure_in_item_order(cpus):
    # Item 2 fails at once, item 1 later; serially item 1 fails first.
    def fails(x):
        if x == 1:
            time.sleep(0.3)
        if x in (1, 2):
            raise ArithmeticError(f"item {x}")
        return x

    cpus(2)
    with pytest.raises(ArithmeticError, match="item 1"):
        forked.fork_map(fails, range(4), "t")
    assert no_children()


def test_a_failure_stops_the_other_workers(cpus):
    # Once item 0 fails, the other worker ends its current item and claims
    # no more; running all 20 others would take 2 s.
    def fails_first(x):
        if x == 0:
            raise ArithmeticError("item 0")
        time.sleep(0.1)

    cpus(2)
    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="item 0"):
        forked.fork_map(fails_first, range(21), "t")
    assert time.monotonic() - start < 1.0


class _KillsItsWorker:
    """Pickling it SIGKILLs the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_worker_killed_mid_result_raises_worker_died(cpus):
    # The worker writes 200 kB of its pickled results, then dies: the part
    # it wrote is not unpickled.
    def result(x):
        return (bytes(200_000), _KillsItsWorker()) if x == 1 else x

    cpus(2)
    with pytest.raises(WorkerDied, match="^t: a worker process died"):
        forked.fork_map(result, range(4), "t")
    assert no_children()


@needs_child_list
def test_failed_fork_maps_in_process(cpus, monkeypatch):
    # The second fork fails: the first worker is killed, no pipe is left
    # open, and the items run here with the results of a serial map.
    fork, forks = os.fork, []

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    parent = os.getpid()
    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_once)
    cpus(3)
    got = forked.fork_map(lambda x: (x, os.getpid()), range(5), "t")
    assert len(forks) == 2 and got == [(x, parent) for x in range(5)]
    assert no_children() and len(os.listdir("/proc/self/fd")) == fds


def test_workers_do_not_fork(cpus):
    cpus(2)
    outer = forked.fork_map(lambda _: (os.getpid(), forked.fork_map(lambda _: os.getpid(), [0, 1], "inner")),
                            [0, 1], "outer")
    for pid, inner in outer:
        assert pid != os.getpid() and inner == [pid, pid]


def test_workers_run_blas_on_one_thread(cpus, monkeypatch):
    # In the workers, and in this process on one usable CPU or after a failed
    # fork: threaded OpenBLAS rounds a GEMM differently, so no bit may depend
    # on which path ran.  Two threads before the call, where the build allows.
    blas = forked._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread count")
    before, parent = blas[0](), os.getpid()

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def threads(_):
        return blas[0](), os.getpid() == parent

    blas[1](2)
    try:
        threaded = blas[0]()
        cpus(2)
        assert forked.fork_map(threads, [0, 1], "t") == [(1, False)] * 2
        cpus(1)
        assert forked.fork_map(threads, [0, 1], "t") == [(1, True)] * 2
        cpus(2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert forked.fork_map(threads, [0, 1], "t") == [(1, True)] * 2
        assert blas[0]() == threaded
    finally:
        blas[1](before)


def test_only_fork_map_decides_how_forked_work_runs():
    # fork_map alone enters the one-BLAS-thread hold and works out the worker
    # count: every fork_map call, here and in the package, passes (task, items, what).
    holders, calls = set(), []
    for path in [*Path(forked.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name == "_one_blas_thread":
                    holders.add((path.stem, getattr(top, "name", None)))
                elif name == "fork_map":
                    calls.append((path.stem, len(node.args), [k.arg for k in node.keywords]))
    assert holders == {("forked", "fork_map")}
    assert {stem for stem, _, _ in calls} >= {"forked", "cli", "explore", "test_forked"}
    assert all(args == 3 and not keywords for _, args, keywords in calls), calls
    assert list(inspect.signature(forked.fork_map).parameters) == ["task", "items", "what"]


def test_only_grid_pass_and_the_jet_kernels_set_the_floating_point_mode():
    # grid_pass runs every kernel with overflow, invalid and divide warnings
    # off, so a point whose jets overflow reads NaN.  Only the two kernels
    # that also run on sampled points outside a pass (_chunk_core and
    # _christoffel) enter that mode again, the metric factor keeps its own for
    # explore's trials, and the beta fields divide by |f| = 0 at the origin;
    # no grid kernel sets a mode of its own, and nothing sets one for the process.
    modes = {}
    for path in Path(forked.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for part in (top.body if isinstance(top, ast.ClassDef) else [top]):
                owner = getattr(part, "name", None)
                owner = owner if part is top else f"{top.name}.{owner}"
                for node in ast.walk(part):
                    if isinstance(node, ast.Call) and \
                            getattr(node.func, "attr", getattr(node.func, "id", None)) in ("errstate", "seterr"):
                        modes[(path.stem, owner)] = {k.arg: getattr(k.value, "value", None) for k in node.keywords}
    everything = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
    assert modes == {("forked", "grid_pass"): everything, ("pointwise", "_chunk_core"): everything,
                     ("intrinsic", "_christoffel"): everything, ("pointwise", "_metric_factor"): everything,
                     ("pointwise", "GridFields._over_r"): {"invalid": "ignore", "divide": "ignore"}}


# ---------------------------------------------------------------- grid passes

def test_pass_forks_from_the_floor_up(workers, monkeypatch):
    # Two CPUs: 2 * FLOOR - 1 field chunks stay in this process, 2 * FLOOR fork.
    imm = clifford(2)
    forks = workers(2)
    monkeypatch.setattr(forked, "_MIN_CHUNKS_PER_WORKER", FLOOR)
    pointwise._evaluate_fields(imm, TorusGrid((forked._CHUNK, 2 * FLOOR - 1)))
    assert forks == []
    pointwise._evaluate_fields(imm, TorusGrid((forked._CHUNK, 2 * FLOOR)))
    assert len(forks) == 2


# For each n, a grid of 5 chunks, a count neither 2 nor 3 workers divide,
# the last chunk partial.
SPLIT_GRIDS = {2: (48, 48), 3: (13, 13, 14), 4: (6, 7, 7, 8), 5: (4, 4, 5, 5, 6)}


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
    grid = TorusGrid(SPLIT_GRIDS[n])
    chunks = -(-grid.npoints // forked._CHUNK)
    assert grid.npoints % forked._CHUNK and chunks % 2 and chunks % 3

    def passes():
        pointwise._grid_cache.pop(imm, None)
        fields = pointwise._evaluate_fields(imm, grid)
        return ([getattr(fields, name) for name in pointwise._FIELD_NAMES],
                pointwise.grid_K_estimates(imm, grid, 1), intrinsic._analysis_pass(imm, grid, 1),
                immersion_rank_check(imm, grid), fixtures._max_norm(imm, grid))

    assert not workers(1)
    serial = passes()
    for cpus in (2, 3):
        forks = workers(cpus)
        split = passes()
        assert len(forks) == 5 * cpus
        for want, got in zip(serial[0] + list(serial[1]), split[0] + list(split[1])):
            assert np.array_equal(want, got)
        fields, sc, k_min, k_max, sigma = split[2]
        want_fields, want_sc, want_min, want_max, want_sigma = serial[2]
        for name in pointwise._FIELD_NAMES:
            assert np.array_equal(getattr(fields, name), getattr(want_fields, name))
        for got, want in ((sc, want_sc), (k_min, want_min), (k_max, want_max)):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert sigma == want_sigma and split[3:] == serial[3:]
    assert no_children()


def test_only_grid_pass_loops_over_grid_chunks():
    # Every grid pass is a kernel run by grid_pass; explore's trial table
    # holds the same chunks.  No other function in the package walks a grid.
    package = Path(forked.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            callers.update((path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "iter_points")
    assert callers == {("forked", "grid_pass"), ("explore", "trial_table")}


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
        run(pinched_torus(), grid)
    assert not serial_forks
    assert "theta=[1.5707963267948966, 0.0]" in str(serial.value)
    for cpus in (2, 3):
        forks = workers(cpus)
        with pytest.raises(DegenerateMetric) as split:
            run(pinched_torus(), grid)
        assert len(forks) == cpus and str(split.value) == str(serial.value)
    assert no_children()


def _clifford_input(tmp_path):
    path = tmp_path / "clifford.json"
    path.write_text(json.dumps({"type": "clifford", "m": 2}))
    return str(path)


@pytest.mark.parametrize("command, patched", [
    ("verify", (pointwise, "_chunk_core")),
    ("analyze", (intrinsic, "_christoffel")),
    ("analyze", (cli, "_csv_rows")),
])
def test_dead_pass_worker_exits_2(workers, monkeypatch, capsys, tmp_path, command, patched):
    # WorkerDied is reported with exit 2 on every command, as on explore.
    # A worker that dies formatting analyze's CSV leaves the part-written
    # BASE.csv and no temporary file.
    kernel = getattr(*patched)

    def dies_in_worker(*args):
        if forked._in_worker:
            os._exit(1)
        return kernel(*args)

    workers(2)
    monkeypatch.setattr(*patched, dies_in_worker)
    reports = tmp_path / "reports"
    reports.mkdir()
    argv = [command, _clifford_input(tmp_path), "--grid", "64,64", "--out", str(reports / "out")]
    assert main(argv) == 2
    assert "a worker process died" in capsys.readouterr().err
    assert no_children()
    assert [p.name for p in reports.iterdir()] == (["out.csv"] if patched[0] is cli else [])


def test_csv_write_error_in_a_worker_exits_2(workers, monkeypatch, capsys, tmp_path):
    # A worker's write that fails for want of space is reported as the
    # sequential writer reports it.
    rows = cli._csv_rows

    def full_in_worker(*args):
        for count, line in enumerate(rows(*args)):
            if count == 10 and forked._in_worker:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            yield line

    workers(2)
    monkeypatch.setattr(cli, "_csv_rows", full_in_worker)
    reports = tmp_path / "reports"
    reports.mkdir()
    argv = ["analyze", _clifford_input(tmp_path), "--grid", "64,64", "--out", str(reports / "out")]
    assert main(argv) == 2
    assert "--out: cannot write" in capsys.readouterr().err
    assert no_children()
    assert [p.name for p in reports.iterdir()] == ["out.csv"]


def _through_origin(tmp_path):
    """The circle of radius 1 through the origin, where beta is NaN."""
    path = tmp_path / "through0.json"
    path.write_text(json.dumps({"type": "fourier", "n": 1, "q": 2,
                                "terms": [{"k": [1], "a": [1, 0], "b": [0, 1]}],
                                "translate": [-1, 0]}))
    return path


def _uneven_input(tmp_path, n):
    path = tmp_path / f"uneven{n}.json"
    save_immersion(_uneven(n), path)
    return path


@pytest.fixture
def polish_once(monkeypatch):
    """Run analyze's best-found K polish once per pass column: it runs in
    this process whatever the worker count, and is most of a small run."""
    polish, done = pointwise._best_found_K, {}

    def once(imm, grid, values, seed, highest):
        key = (values.tobytes(), seed, highest)
        if key not in done:
            done[key] = polish(imm, grid, values, seed, highest=highest)
        return done[key]

    monkeypatch.setattr(pointwise, "_best_found_K", once)


# Grids of 5 chunks, the last partial: 2 and 3 workers start blocks mid-row.
CSV_GRIDS = {1: (2500,), 2: SPLIT_GRIDS[2], 3: SPLIT_GRIDS[3]}


@pytest.mark.parametrize("n", sorted(CSV_GRIDS))
def test_analyze_bytes_equal_for_any_worker_count(workers, polish_once, monkeypatch, tmp_path, n):
    path = _through_origin(tmp_path) if n == 1 else _uneven_input(tmp_path, n)
    marks = tmp_path / "marks"
    marks.mkdir()
    rows = cli._csv_rows

    def marked(axes, table, start, stop):
        if forked._in_worker:
            (marks / str(start)).touch()
        return rows(axes, table, start, stop)

    monkeypatch.setattr(cli, "_csv_rows", marked)
    grid = ",".join(map(str, CSV_GRIDS[n]))
    reports = {}
    for cpus in (1, 2, 3):
        workers(cpus)
        base = tmp_path / f"w{cpus}"
        assert main(["analyze", str(path), "--grid", grid, "--seed", "3", "--out", str(base)]) == 0
        reports[cpus] = [base.with_suffix(suffix).read_bytes() for suffix in (".csv", ".json")]
        assert reports[cpus] == reports[1]
        if cpus == 1:
            assert not list(marks.iterdir())
    assert {p.name for p in marks.iterdir()} == {"0", "512", "1024", "1536"}
    if n == 1:
        assert reports[1][0].split(b"\r\n")[1].endswith(b",nan")
    assert no_children()


def test_csv_without_temporary_files_is_written_here(polish_once, monkeypatch, tmp_path):
    # Where no temporary file can be made, the rows are formatted in this
    # process, to the bytes that two workers write.  The analysis pass runs
    # once for both.
    path = tmp_path / "clifford3.json"
    path.write_text(json.dumps({"type": "clifford", "m": 3}))
    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    analysis, passes, rows, here = intrinsic.analysis_grid, [], cli._csv_rows, []

    def analysis_once(*args):
        if not passes:
            passes.append(analysis(*args))
        return passes[0]

    def counted(axes, table, start, stop):
        here.append((start, stop, forked._in_worker))
        return rows(axes, table, start, stop)

    def no_temporary_file(*args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS))

    monkeypatch.setattr(intrinsic, "analysis_grid", analysis_once)
    monkeypatch.setattr(cli, "_csv_rows", counted)
    assert main(["analyze", str(path), "--out", str(tmp_path / "forked")]) == 0
    assert here == []
    monkeypatch.setattr(tempfile, "TemporaryFile", no_temporary_file)
    assert main(["analyze", str(path), "--out", str(tmp_path / "here")]) == 0
    assert here == [(0, 32 ** 3, False)]
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"here{suffix}").read_bytes() == (tmp_path / f"forked{suffix}").read_bytes()


def test_small_analyze_forks_nothing(monkeypatch, tmp_path):
    # 8^3 is one chunk: the pass and the CSV stay in this process.
    def no_fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    path = _uneven_input(tmp_path, 3)
    assert main(["analyze", str(path), "--grid", "8", "--out", str(tmp_path / "rep")]) == 0


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


def test_repeated_pass_reuses_the_heap():
    # A second field pass of the d4 design at 12^4 in one process faults in
    # little more than its 1 MB output mapping (about 250 pages): the chunk
    # temporaries reuse the memory the first pass freed.  Where the allocator
    # hands that memory back, the second pass takes about 50k faults.
    code = ("import resource, toricurv.forked as f, toricurv.pointwise as p; "
            "from toricurv.designs import builtin_design, subtorus_immersion; "
            "from toricurv.quadrature import TorusGrid; "
            "f.usable_cpus = lambda: 1; "
            "imm, grid = subtorus_immersion(builtin_design('d4')), TorusGrid((12,) * 4); "
            "p._evaluate_fields(imm, grid); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "p._evaluate_fields(imm, grid); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert int(out.stdout) < 5000


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
