"""Seeded fixture immersions used by the self-tests and the verification suite."""

from __future__ import annotations

import itertools

import numpy as np

from .designs import clifford
from .immersion import FourierImmersion, FourierTerm, Signature, immersion_rank_check
from .quadrature import TorusGrid, _philox


def canonical_frequencies(n: int, fmax: int) -> list[tuple[int, ...]]:
    """Nonzero integer frequencies with |k|_inf <= fmax, one per {k, -k} pair.

    The representative has its first nonzero component positive, so cos/sin
    coefficient pairs are never redundant.
    """
    out = []
    for k in itertools.product(range(-fmax, fmax + 1), repeat=n):
        first = next((c for c in k if c != 0), 0)
        if first > 0:
            out.append(k)
    return out


def _into_ball(imm: FourierImmersion, margin: float) -> FourierImmersion:
    """imm rescaled so its largest norm on the default grid (doubled for
    n <= 2) is margin."""
    from .pointwise import grid_fields   # local import to avoid a cycle

    n = imm.n
    grid = TorusGrid.default(n).doubled() if n <= 2 else TorusGrid.default(n)
    top = float(np.max(grid_fields(imm, grid).r))
    return FourierImmersion(
        signature=imm.signature, terms=imm.terms,
        scale=imm.scale * margin / top, translate=imm.translate,
    )


def random_immersion(n: int, q: int, seed: int, terms: int = 6, fmax: int = 2,
                     amplitude: float = 1.0) -> FourierImmersion:
    """Random trigonometric immersion in general position (not ball-normalized).

    Retries with derived seeds until the differential has full rank on a
    coarse grid, so the result is always a genuine immersion.
    """
    freqs = canonical_frequencies(n, fmax)
    check_grid = TorusGrid((12,) * n)
    for attempt in range(64):
        rng = _philox(seed * 1_000_003 + attempt)
        chosen = rng.choice(len(freqs), size=min(terms, len(freqs)), replace=False)
        built = []
        for idx in sorted(int(i) for i in chosen):
            k = freqs[idx]
            damp = amplitude / (1.0 + float(np.dot(k, k)))
            built.append(FourierTerm(
                k=k,
                a=damp * rng.standard_normal(q),
                b=damp * rng.standard_normal(q),
            ))
        imm = FourierImmersion(signature=Signature(n=n, q=q), terms=tuple(built))
        if immersion_rank_check(imm, check_grid) > 1e-3 * amplitude:
            return imm
    raise RuntimeError(f"could not build a full-rank random immersion for n={n}, q={q}, seed={seed}")


def ball_immersion(n: int, q: int, seed: int, terms: int = 6, fmax: int = 2,
                   margin: float = 0.999) -> FourierImmersion:
    """Random immersion rescaled so its image lies strictly inside the unit ball."""
    return _into_ball(random_immersion(n, q, seed, terms=terms, fmax=fmax), margin)


def perturbed_clifford(n: int, seed: int, eps: float = 0.05, fmax: int = 2,
                       extra_terms: int = 4, margin: float = 0.999) -> FourierImmersion:
    """Clifford torus plus a small seeded perturbation, rescaled into the ball.

    Stays close to the equality case of the torus bounds while breaking every
    special symmetry, which is what the averaged inequalities are probed with.
    """
    base = clifford(n)
    q = base.q
    freqs = canonical_frequencies(n, fmax)
    rng = _philox(seed * 9_176_911 + 13)
    chosen = rng.choice(len(freqs), size=min(extra_terms, len(freqs)), replace=False)
    terms = [FourierTerm(t.k, base.scale * t.a, base.scale * t.b) for t in base.terms]
    for idx in sorted(int(i) for i in chosen):
        k = freqs[idx]
        damp = eps / (1.0 + float(np.dot(k, k)))
        terms.append(FourierTerm(k=k, a=damp * rng.standard_normal(q),
                                 b=damp * rng.standard_normal(q)))
    return _into_ball(FourierImmersion(signature=base.signature, terms=tuple(terms)), margin)


def round_sphere(radius: float = 1.0) -> FourierImmersion:
    """Round 2-sphere on a torus chart (validation fixture, degenerate at poles).

    f(t, p) = radius * (sin t cos p, sin t sin p, cos t) written as a
    trigonometric polynomial; scalar curvature away from the poles must be
    2/radius^2, which pins the curvature sign convention.
    """
    R = radius
    terms = (
        FourierTerm(k=(1, 1), a=[0.0, -R / 2, 0.0], b=[R / 2, 0.0, 0.0]),
        FourierTerm(k=(1, -1), a=[0.0, R / 2, 0.0], b=[R / 2, 0.0, 0.0]),
        FourierTerm(k=(1, 0), a=[0.0, 0.0, R], b=[0.0, 0.0, 0.0]),
    )
    return FourierImmersion(signature=Signature(n=2, q=3), terms=terms)
