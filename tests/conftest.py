import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from toricurv import forked, pointwise
from toricurv.designs import builtin_design, clifford, subtorus_immersion
from toricurv.fixtures import perturbed_clifford, random_immersion
from toricurv.immersion import FourierImmersion, FourierTerm, Signature
from toricurv.quadrature import TorusGrid


@pytest.fixture(scope="session")
def clifford2():
    return clifford(2)


@pytest.fixture(scope="session")
def clifford3():
    return clifford(3)


@pytest.fixture(scope="session")
def clifford4():
    return clifford(4)


@pytest.fixture(scope="session")
def hexagonal():
    return subtorus_immersion(builtin_design("hex2"))


@pytest.fixture(scope="session")
def d4():
    return subtorus_immersion(builtin_design("d4"))


@pytest.fixture(scope="session")
def axdiag3():
    return subtorus_immersion(builtin_design("axdiag3"))


@pytest.fixture(scope="session")
def wavy2():
    """Perturbed Clifford 2-torus, strictly inside the unit ball."""
    return perturbed_clifford(2, seed=5)


@pytest.fixture(scope="session")
def random25():
    """General-position random immersion T^2 -> R^5 (not ball-normalized)."""
    return random_immersion(2, 5, seed=3, terms=8, fmax=2)


@pytest.fixture(scope="session")
def grid16():
    return TorusGrid((16, 16))


def random_orthogonal(q: int, seed: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from a seeded QR factorization."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    Q, R = np.linalg.qr(rng.standard_normal((q, q)))
    return Q * np.sign(np.diag(R))


def random_points(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.uniform(0.0, 2.0 * np.pi, size=(count, n))


def pinched_torus():
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


def overflowing_torus(huge_frequency: bool) -> dict:
    """A finite input whose jets overflow, as a JSON object: Clifford(2) at
    scale 0.7 in R^4 plus, with huge_frequency, a term of frequency
    (10**160, 1) and amplitude 1e-3, whose metric overflows at all but a few
    points while |f| stays below 1; without it, with a first coefficient of
    1e160, so that |f| overflows too."""
    first = {"k": [1, 0], "a": [1, 0, 0, 0], "b": [0, 1, 0, 0]}
    terms = [first, {"k": [0, 1], "a": [0, 0, 1, 0], "b": [0, 0, 0, 1]}]
    if huge_frequency:
        terms.append({"k": [10 ** 160, 1], "a": [0, 0, 0.001, 0], "b": [0, 0, 0, 0]})
    else:
        first["a"] = [1e160, 0, 0, 0]
    return {"type": "fourier", "n": 2, "q": 4, "scale": 0.7, "terms": terms}


def reference_jet_basis(K, A, B, order, scale=1.0):
    """The jet basis built term by term, as frequency products times
    coefficients per order: the construction the package's gathered basis
    replaces, kept as its bit-for-bit reference."""
    (T, n), q = K.shape, A.shape[1]
    kprod = np.ones((T, 1))
    cos_rows, sin_rows = [], []
    for o in range(order + 1):
        ka = (kprod[:, :, None] * A[:, None, :]).reshape(T, n ** o * q)
        kb = (kprod[:, :, None] * B[:, None, :]).reshape(T, n ** o * q)
        c_coef, s_coef = ((ka, kb), (kb, -ka), (-ka, -kb), (-kb, ka))[o]
        cos_rows.append(c_coef)
        sin_rows.append(s_coef)
        kprod = (kprod[:, :, None] * K[:, None, :]).reshape(T, n ** (o + 1))
    return scale * np.vstack([np.hstack(cos_rows), np.hstack(sin_rows)])


def reference_metric_factor(g, thetas):
    """The metric factor's sweeps as first written, with L started from a
    copy of the identity and every column and row taking every step, empty
    slices included: the bit-for-bit reference of the package's
    _metric_factor, degeneracy rule and all."""
    from toricurv.errors import DegenerateMetric

    P, n, _ = g.shape
    A = g.transpose(1, 2, 0).copy()
    C = np.zeros_like(A)
    L = np.broadcast_to(np.eye(n)[:, :, None], A.shape).copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(n):
            C[j, j] = np.sqrt(A[j, j])
            C[j + 1:, j] = A[j + 1:, j] / C[j, j]
            A[j + 1:, j + 1:] -= C[j + 1:, None, j] * C[None, j + 1:, j]
        for i in range(n):
            L[i, :i + 1] /= C[i, i]
            L[i + 1:, :i + 1] -= C[i + 1:, None, i] * L[None, i, :i + 1]
        pivot_ok = (np.einsum("iip->ip", A) > 0).all(axis=0)
        certified = pivot_ok.all() and float(np.vdot(L, L)) <= 1e12 and np.isfinite(g).all()
    sqrt_det = np.prod(np.einsum("iip->ip", C), axis=0)
    if not certified:
        eigs = np.full(P, np.nan)
        finite = np.isfinite(g).all(axis=(1, 2))
        eigs[finite] = np.linalg.eigvalsh(g[finite])[:, 0]
        bad = np.flatnonzero(finite & ((eigs < 1e-12) | ~pivot_ok))
        if bad.size:
            i = int(bad[0])
            where = "" if thetas is None else f" at theta={thetas[i].tolist()}"
            why = "< 1e-12" if eigs[i] < 1e-12 else "and a pivot <= 0"
            raise DegenerateMetric(f"metric eigenvalue {eigs[i]:.3e} {why}{where}")
        L[:, :, ~finite] = sqrt_det[~finite] = np.nan
    return np.ascontiguousarray(L.transpose(2, 0, 1)), sqrt_det


def reference_second_form(jet, E=None):
    """II at one point by the per-point construction, independent of the
    package's batched kernel: S_ij = P_N(sum_ab W_ia W_jb d2f_ab) for the
    frame e_i = sum_a W_ia df_a.  Without E the frame is the inverse-Cholesky
    one (W = L); an explicit orthonormal tangent frame E gives W by solving
    g W' = df E'.  Returns (S, E)."""
    g = jet.d1 @ jet.d1.T
    if E is None:
        W = np.linalg.inv(np.linalg.cholesky(g))
        E = W @ jet.d1
    else:
        W = np.linalg.solve(g, jet.d1 @ E.T).T
    raw = np.einsum("ia,jb,abq->ijq", W, W, jet.d2)
    S = raw - np.einsum("ijk,kq->ijq", np.einsum("ijq,kq->ijk", raw, E), E)
    return 0.5 * (S + S.transpose(1, 0, 2)), E


def reference_k2_sweep(D, S):
    """K(u)^2 = |II(u, u)|^2 for every row u of D at every point of a
    (P, n, n, q) batch of full second forms, as a (P, len(D)) array: the
    direction sweep contracted over all (i, j), independent of the package's
    pair layout."""
    vals = np.einsum("da,db,pabq->pdq", D, D, S, optimize=True)
    return np.einsum("pdq,pdq->pd", vals, vals)


def reference_k2_range(S):
    """(min, max) of K(u)^2 = |II(u, u)|^2 over a dense direction scan,
    independent of the package's extremizer: 2^16 half-circle angles for
    n = 2 (u and -u give the same K), 20,000 Philox directions otherwise."""
    n = S.shape[0]
    if n == 2:
        t = np.linspace(0.0, np.pi, 2 ** 16, endpoint=False)
        D = np.stack([np.cos(t), np.sin(t)], axis=1)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(20_000)))
        D = rng.standard_normal((20_000, n))
        D /= np.linalg.norm(D, axis=1)[:, None]
    v = np.einsum("da,db,abq->dq", D, D, S, optimize=True)
    K2 = np.einsum("dq,dq->d", v, v)
    return float(K2.min()), float(K2.max())


def reference_K_pass(imm, grid, seed):
    """_K_range at seed at every point of a grid, as read-only arrays, from a
    grid_pass of its own that takes no fields: the reference that a swept
    field pass's K range must equal bit for bit."""
    return tuple(forked.grid_pass(grid, 2, lambda thetas: pointwise._K_range(
        pointwise._chunk_core(imm, thetas)[2], seed), "K reference"))


def load_perfbench(name: str):
    """A module of perfbench/, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- processes

needs_child_list = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="lists a process's children through Linux's /proc")


def no_children() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _alive(pid) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def signal_mid_run(code: str, signum: int, workers: int = 2):
    """Run `python -c code`, send signum to that process alone once it has
    `workers` children, and return (seconds from the signal until it exited,
    its return code, the children still alive 2 s after it exited).  Python
    raises KeyboardInterrupt on SIGINT even where the caller ignores it."""
    code = "import signal; signal.signal(signal.SIGINT, signal.default_int_handler); " + code
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    pids = []
    try:
        end = time.monotonic() + 60
        while len(pids) < workers and proc.poll() is None and time.monotonic() < end:
            time.sleep(0.02)
            pids = children.read_text().split()
        assert len(pids) == workers and proc.poll() is None    # signalled mid-run
        sent = time.monotonic()
        proc.send_signal(signum)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        exit_s = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    end = time.monotonic() + 2
    while any(_alive(pid) for pid in pids) and time.monotonic() < end:
        time.sleep(0.02)
    left = [pid for pid in pids if _alive(pid)]
    for pid in left:
        os.kill(int(pid), signal.SIGKILL)
    return exit_s, proc.returncode, left
