"""Forked workers: explore's restarts and the chunked grid passes.

fork_map maps a callable over a list of items in forked worker processes
and returns the results in item order.  Fork copies the callable into the
workers instead of pickling it, so it may be any callable, a closure over
large arrays included.  The workers claim item indices one at a time from
a pipe, so a slow item holds up only its own worker, and each worker's
results come back pickled through a pipe of its own.  The exception of the
first failing item is re-raised here as itself, and a worker that exits
without its results raises WorkerDied.  On any exception here,
KeyboardInterrupt included, the workers still running are killed, not
waited for; on Linux a worker also dies with its parent, so no worker
outlives the call.

grid_pass splits a grid's chunks into contiguous runs of whole chunks, one
per worker, so every chunk holds the same points as in one process and its
bits do not change.  The runs write their columns into one shared anonymous
mapping made before the fork.  The workers run BLAS on one thread: forked
workers that each keep OpenBLAS's own threads contend for the CPUs, and ran
verify on the d4 design slower than one process.
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

# A grid pass forks only when every worker gets at least this many chunks.
# Forking the workers and collecting their results costs a few ms; a chunk
# costs about 1 ms at the cheapest (the n = 2 field pass, 1024 points) and
# 3-6 ms on the d4 design, so 16 chunks per worker repay the fork even on
# the cheapest inputs and leave the small grids of most calls in-process.
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
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        os.close(queue)
        _work(task, items, claims, write_fd, parent)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(task, items, workers: int, what: str) -> list:
    """[task(item) for item in items], in order: in min(workers, items)
    forked processes, which claim the items one at a time, or in this
    process when that is one, the platform cannot fork, or this process is
    itself a worker.  The exception of the first failing item is re-raised
    here as itself; a worker that exits without its results raises
    WorkerDied, whose message starts with `what`.  Workers still running
    when this call raises are killed; none outlives it."""
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        return [task(item) for item in items]
    parent = os.getpid()
    children = []       # (pid, result pipe) of each worker not yet reaped
    claims_fd, queue_fd = os.pipe()
    # The workers inherit a BLAS thread count of 1: OpenBLAS stops its
    # threads before a fork, and a worker that set its own count would start
    # a thread that spins for CPU while the workers compute.
    with _one_blas_thread(), open(claims_fd, "rb", buffering=0) as claims, \
            open(queue_fd, "wb", buffering=0) as queue:
        try:
            for _ in range(workers):
                children.append(_fork_worker(task, items, claims_fd, queue_fd, parent))
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
                if not payload:
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


def grid_pass(grid, chunk: int, rows: int, run, what: str):
    """A pass over every point of a grid in chunks of `chunk` points.

    run(out, chunks) runs over a contiguous run of whole chunks, which
    chunks yields as grid.iter_points(chunk) does, and writes the columns of
    their points into out, a (rows, grid.npoints) array.  Returns out and the
    runs' results in grid order.  The chunks are split into as many runs as
    there are usable CPUs, each run in a forked worker, but into fewer where
    that leaves a worker under _MIN_CHUNKS_PER_WORKER chunks; one run covers
    the grid in this process when that leaves one worker or numpy's BLAS
    cannot be held to one thread per worker."""
    P = grid.npoints
    chunks = -(-P // chunk)
    workers = min(usable_cpus(), chunks // _MIN_CHUNKS_PER_WORKER)
    if workers < 2 or _blas_threads() is None:
        workers = 1
    # one shared anonymous mapping for any worker count, made before the
    # fork, so that the workers' writes land in this process's array
    out = np.frombuffer(mmap.mmap(-1, rows * P * 8), dtype=float).reshape(rows, P)
    bounds = [min(P, chunk * (i * chunks // workers)) for i in range(workers + 1)]
    # BLAS results can depend on its thread count (threaded OpenBLAS rounds
    # the third-order jets' GEMM differently for n >= 4), so the pass runs on
    # one BLAS thread in this process too, and no bit depends on the workers
    with _one_blas_thread():
        results = fork_map(lambda span: run(out, grid.iter_points(chunk, *span)),
                           zip(bounds, bounds[1:]), workers, what)
    return out, results
