"""Seeded workload inputs, built without importing toricurv.

The benchmark's inputs must not move when the package changes, so every
input here is produced by numpy alone from the benchmark seed:

- ``d4.json``: the d4 frame design (all e_i +- e_j rows of Z^4) in the
  ``gromov`` shorthand, with its rows in a seeded order and seeded signs.
  Reordering rows permutes circle planes and negating a row reflects one,
  so every seed gives an isometric copy of the same equality fixture.
- ``wavy3.json``: Clifford(3) in R^6 plus a seeded perturbation of
  amplitude 0.05 over frequencies with |k|_inf <= 2, scaled so that its
  largest norm on the 32^3 grid is 0.999.

Files are written with fixed key order and separators, so the same seed
always gives the same bytes.

Usage: python3 perfbench/inputs.py SEED DIRECTORY NAME...
writes the named inputs and prints {name: [path, sha256]} as JSON.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

PERTURB_AMPLITUDE = 0.05
PERTURB_FMAX = 2
PERTURB_TERMS = 4
BALL_MARGIN = 0.999
WAVY_GRID = 32

_STREAMS = {"d4": 1, "wavy3": 2}


def _rng(seed: int, stream: str) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.Philox(seq))


def _dump(obj, path: Path) -> str:
    data = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def d4_rows(seed: int) -> list[list[int]]:
    """The 12 rows e_i +- e_j of the d4 design, seeded order and signs."""
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            row = [0, 0, 0, 0]
            row[i] = 1
            row[j] = sign
            rows.append(row)
    rng = _rng(seed, "d4")
    signs = rng.choice([-1, 1], size=len(rows))
    order = rng.permutation(len(rows))
    return [[int(signs[r]) * c for c in rows[r]] for r in order]


def canonical_frequencies(n: int, fmax: int) -> list[tuple[int, ...]]:
    """One frequency per {k, -k} pair with 0 < |k|_inf <= fmax."""
    out = []
    for k in itertools.product(range(-fmax, fmax + 1), repeat=n):
        first = next((c for c in k if c != 0), 0)
        if first > 0:
            out.append(k)
    return out


def _series_max_norm(terms: list[dict], n: int, size: int) -> float:
    """Largest |f| of the unscaled series over the size^n torus grid."""
    axis = 2.0 * math.pi * np.arange(size) / size
    thetas = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)
    K = np.array([t["k"] for t in terms], dtype=float)
    A = np.array([t["a"] for t in terms])
    B = np.array([t["b"] for t in terms])
    phases = thetas @ K.T
    values = np.cos(phases) @ A + np.sin(phases) @ B
    return float(np.max(np.linalg.norm(values, axis=1)))


def wavy3(seed: int) -> dict:
    """Perturbed Clifford 3-torus in R^6 as a 'fourier' immersion object."""
    n, q = 3, 6
    terms = []
    for i in range(n):
        a = [0.0] * q
        b = [0.0] * q
        a[2 * i] = 1.0 / math.sqrt(n)
        b[2 * i + 1] = 1.0 / math.sqrt(n)
        k = [0] * n
        k[i] = 1
        terms.append({"k": k, "a": a, "b": b})
    freqs = canonical_frequencies(n, PERTURB_FMAX)
    rng = _rng(seed, "wavy3")
    chosen = sorted(int(i) for i in rng.choice(len(freqs), size=PERTURB_TERMS, replace=False))
    for idx in chosen:
        k = freqs[idx]
        damp = PERTURB_AMPLITUDE / (1.0 + float(np.dot(k, k)))
        terms.append({"k": list(k),
                      "a": (damp * rng.standard_normal(q)).tolist(),
                      "b": (damp * rng.standard_normal(q)).tolist()})
    scale = BALL_MARGIN / _series_max_norm(terms, n, WAVY_GRID)
    return {"type": "fourier", "n": n, "q": q, "scale": scale, "terms": terms}


def write_inputs(names, seed: int, directory: Path) -> dict:
    """Write the named inputs into ``directory``; return {name: (path, sha256)}."""
    directory.mkdir(parents=True, exist_ok=True)
    builders = {
        "d4": lambda: {"type": "gromov", "B": d4_rows(seed)},
        "wavy3": lambda: wavy3(seed),
    }
    out = {}
    for name in names:
        path = directory / f"{name}.json"
        out[name] = (path, _dump(builders[name](), path))
    return out


if __name__ == "__main__":
    seed, directory, *names = sys.argv[1:]
    files = write_inputs(names, int(seed), Path(directory))
    print(json.dumps({name: [str(path), digest] for name, (path, digest) in files.items()}))
