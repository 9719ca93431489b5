"""Forked workers: explore's restarts, the chunked grid passes and
analyze's CSV writer.

fork_map maps a callable over a list of items in forked worker processes
and returns the results in item order.  Fork copies the callable into the
workers instead of pickling it, so it may be any callable, a closure over
large arrays included.  The workers claim item indices one at a time from
a pipe, so a slow item holds up only its own worker, and each worker's
results come back pickled through a pipe of its own.  The exception of the
first failing item is re-raised here as itself, and a worker that exits
without all of its results raises WorkerDied.  On any exception here,
KeyboardInterrupt included, the workers still running are killed, not
waited for; on Linux a worker also dies with its parent, so no worker
outlives the call.  Where a fork fails (no process or memory left), the
workers already forked are killed and the items run in this process.
fork_map alone sets the worker count, and it runs every item on one
OpenBLAS thread, in workers and here alike, so no result bit depends on
the worker count or on a fork: OpenBLAS rounds a GEMM differently on more
threads, and workers that each keep its threads contend for the CPUs.

grid_pass runs a kernel over every chunk of _CHUNK grid points, the one
chunk loop of the package, in contiguous runs of whole chunks, one per
worker, so every chunk holds the same points as in one process and its bits
do not change.  It owns the kernels' floating-point mode, numpy's overflow,
invalid and divide warnings off, so a point whose jets overflow reads NaN
(_chunk_core and _christoffel take that mode outside a pass too).  runs is
the one rule for that split, and analyze's CSV writer formats its rows in
the same runs, one per worker.  The runs write into one shared anonymous
mapping made before the fork.  The first pass sets glibc's allocator to
keep freed memory, so that each chunk reuses the heap the last one freed.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import pickle
import signal

import numpy as np

from .errors import WorkerDied

# Points per chunk of every grid pass.  The analysis pass's Sc rounds
# differently at other batch sizes (256 points move it by up to 5e-13).
_CHUNK = 512

# A grid pass forks only when every worker gets at least this many chunks.
# Forking two workers and collecting their results costs about 6.5 ms; a
# field chunk costs about 0.6 ms on Clifford(2) and 3.4 ms on the d4 design,
# where the gate's K range adds 0.8 ms, so 16 chunks per worker repay the
# fork on the field pass's cheapest inputs and leave the small grids of most
# calls in-process.
# Only the ball-scale pass, at 0.12 ms a chunk on Clifford(2), loses by it
# (about 6 ms at its 128^2 grid).
_MIN_CHUNKS_PER_WORKER = 16

# True in a forked worker, which maps its items in-process: workers do not fork.
_in_worker = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """(get, set) for the thread count of numpy's OpenBLAS, under any of the
    names its builds export, or None (another BLAS, or none found)."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:               # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
        get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread for the block, where its thread
    count can be set, and restore the count after it."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    threads = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](threads)


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this worker when its parent dies (Linux's
    PR_SET_PDEATHSIG), so that a run ended by a signal leaves no worker;
    elsewhere it does nothing."""
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is None:
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(1, signal.SIGKILL)        # PR_SET_PDEATHSIG
    if os.getppid() != parent:      # the parent died before the call
        os._exit(1)


def _work(task, items: list, claims: int, pipe_fd: int, parent: int):
    """A worker's life after the fork: claim 4-byte item indices from the
    claims pipe until it is empty, run task on each item, and pickle (the
    (index, result) pairs, the first (index, exception) or None) into the
    result pipe.  After an exception it empties the claims pipe, so that the
    other workers stop after their current item.  It exits without
    returning into the caller's frames."""
    global _in_worker
    code = 1
    try:
        _in_worker = True
        _die_with_parent(parent)
        done, failure = [], None
        while failure is None and (claim := os.read(claims, 4)):
            index = int.from_bytes(claim, "little")
            try:
                done.append((index, task(items[index])))
            except Exception as exc:    # the parent re-raises it
                failure = (index, exc)
                while os.read(claims, 4096):
                    pass
        with open(pipe_fd, "wb") as pipe:
            pickle.dump((done, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _fork_worker(task, items: list, claims: int, queue: int, parent: int):
    """Fork a worker that claims items through the claims pipe, whose write
    end queue it closes: (its pid, the read end of its result pipe)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        os.close(queue)
        _work(task, items, claims, write_fd, parent)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(task, items, what: str) -> list:
    """[task(item) for item in items], in order: in min(usable CPUs, items)
    forked processes, which claim the items one at a time, or in this
    process when that is one, the platform cannot fork, this process is
    itself a worker, or a fork fails.  The exception of the first failing
    item is re-raised here as itself; a worker that exits without all of its
    results raises WorkerDied, whose message starts with `what`.  Workers
    still running when this call raises are killed; none outlives it."""
    items = list(items)
    workers = min(usable_cpus(), len(items))
    # One BLAS thread here, which the workers inherit: OpenBLAS stops its
    # threads before a fork, and a worker that set its own count would start
    # a thread that spins for CPU while the workers compute.
    with _one_blas_thread():
        results = None
        if workers >= 2 and not _in_worker and hasattr(os, "fork"):
            results = _map_in_workers(task, items, workers, what)
        return [task(item) for item in items] if results is None else results


def _map_in_workers(task, items: list, workers: int, what: str) -> list | None:
    """fork_map in `workers` forked workers, or None once a fork fails and
    the workers forked before it are killed."""
    parent = os.getpid()
    children = []       # (pid, result pipe) of each worker not yet reaped
    claims_fd, queue_fd = os.pipe()
    with open(claims_fd, "rb", buffering=0) as claims, open(queue_fd, "wb", buffering=0) as queue:
        try:
            try:
                for _ in range(workers):
                    children.append(_fork_worker(task, items, claims_fd, queue_fd, parent))
            except OSError:     # EAGAIN or ENOMEM; the finally kills those forked
                return None
            claims.close()
            try:
                for index in range(len(items)):
                    queue.write(index.to_bytes(4, "little"))
            except BrokenPipeError:     # no worker is left; its result pipe says why
                pass
            queue.close()
            results, failures = {}, []
            while children:
                pid, pipe = children[0]
                with pipe:
                    payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if status or not payload:   # a killed worker may have written part of its results
                    raise WorkerDied(f"{what}: a worker process died "
                                     f"(exit status {os.waitstatus_to_exitcode(status)})")
                done, failure = pickle.loads(payload)
                results.update(done)
                if failure is not None:
                    failures.append(failure)
            if failures:
                raise min(failures, key=lambda failure: failure[0])[1]
            return [results[index] for index in range(len(items))]
        finally:
            for pid, pipe in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()


@functools.cache
def _keep_freed_memory() -> None:
    """Where glibc's mallopt exists, have it serve blocks up to 32 MB from
    the heap and trim the heap only above 1 GB free, so that each chunk
    reuses the memory the last one freed: handed back, it was faulted in
    again per chunk (850k page faults instead of 40k on verify of d4)."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD


def runs(npoints: int) -> list[tuple[int, int]]:
    """The (start, stop) runs of whole _CHUNK-point chunks, contiguous in
    flat order, into which a pass over npoints grid points splits, one per
    forked worker: as many runs as there are usable CPUs, but fewer where
    that leaves a worker under _MIN_CHUNKS_PER_WORKER chunks, and one run,
    for this process, when that leaves one worker or numpy's BLAS cannot be
    held to one thread per worker."""
    chunks = -(-npoints // _CHUNK)
    workers = min(usable_cpus(), chunks // _MIN_CHUNKS_PER_WORKER)
    if workers < 2 or _blas_threads() is None:
        workers = 1
    bounds = [min(npoints, _CHUNK * (i * chunks // workers)) for i in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def grid_pass(grid, rows: int, kernel, what: str) -> np.ndarray:
    """The read-only (rows, grid.npoints) array whose columns at each chunk of
    _CHUNK grid points, in flat order, are kernel(thetas) of its points:
    each of runs(grid.npoints) in a forked worker of its own."""
    _keep_freed_memory()
    P = grid.npoints
    # one shared anonymous mapping for any worker count, made before the
    # fork, so that the workers' writes land in this process's array
    out = np.frombuffer(mmap.mmap(-1, rows * P * 8), dtype=float).reshape(rows, P)

    def run(span):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start, thetas in grid.iter_points(_CHUNK, *span):
                out[:, start:start + thetas.shape[0]] = kernel(thetas)

    fork_map(run, runs(P), what)
    out.flags.writeable = False
    return out
