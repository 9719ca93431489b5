"""Reading and writing immersion description files.

The on-disk format is JSON with a "type" discriminator:

    {"type": "fourier", "n": 2, "q": 4, "scale": 1.0, "translate": [0,0,0,0],
     "terms": [{"k": [1,0], "a": [...q floats...], "b": [...q floats...]}]}

    {"type": "clifford", "m": 2}
    {"type": "gromov", "B": [[1,0],[0,1],[1,1]]}

The clifford/gromov forms are expanded through the designs module; both also
accept optional "scale" and "translate" fields applied on top (useful for
placing a fixture strictly inside the ball).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .designs import FrameMatrix, clifford, subtorus_immersion
from .errors import ParseError
from .immersion import FourierImmersion, FourierTerm, Signature


def _require(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise ParseError(f"{where}: missing required field {field!r}")
    value = obj[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ParseError(f"{where}.{field}: expected an integer, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise ParseError(f"{where}.{field}: expected a list, got {type(value).__name__}")
    return value


def _finite(value, where: str) -> float:
    """A JSON number as a finite float: NaN, infinities and literals beyond
    the float range (json reads 1e400 as inf) are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:      # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return x


def _scale(obj: dict, where: str) -> float:
    scale = _finite(obj.get("scale", 1.0), f"{where}.scale")
    if scale <= 0:
        raise ParseError(f"{where}.scale: expected a positive number, got {scale!r}")
    return scale


def _number_list(obj: dict, field: str, length: int, where: str) -> list[float]:
    raw = _require(obj, field, list, where)
    if len(raw) != length:
        raise ParseError(f"{where}.{field}: expected {length} numbers, got {len(raw)}")
    return [_finite(v, f"{where}.{field}[{i}]") for i, v in enumerate(raw)]


def parse_immersion(obj) -> FourierImmersion:
    """Immersion from a decoded JSON object; errors name the offending field."""
    if not isinstance(obj, dict):
        raise ParseError(f"immersion file must hold a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "fourier":
        n = _require(obj, "n", int, "fourier")
        q = _require(obj, "q", int, "fourier")
        try:
            sig = Signature(n=n, q=q)
        except ValueError as exc:
            raise ParseError(f"fourier: {exc}") from None
        scale = _scale(obj, "fourier")
        translate = _number_list(obj, "translate", q, "fourier") if "translate" in obj else None
        terms = []
        for i, t in enumerate(_require(obj, "terms", list, "fourier")):
            where = f"fourier.terms[{i}]"
            if not isinstance(t, dict):
                raise ParseError(f"{where}: expected an object")
            k_raw = _require(t, "k", list, where)
            if len(k_raw) != n or any(isinstance(v, bool) or not isinstance(v, int) for v in k_raw):
                raise ParseError(f"{where}.k: expected {n} integers, got {k_raw!r}")
            a = _number_list(t, "a", q, where)
            b = _number_list(t, "b", q, where)
            terms.append(FourierTerm(k=tuple(k_raw), a=a, b=b))
        return FourierImmersion(signature=sig, terms=tuple(terms),
                                scale=scale, translate=translate)
    if kind == "clifford":
        m = _require(obj, "m", int, "clifford")
        if m < 1:
            raise ParseError(f"clifford.m: must be >= 1, got {m}")
        return _rescaled(clifford(m), obj, where="clifford")
    if kind == "gromov":
        rows = _require(obj, "B", list, "gromov")
        if not rows or not all(isinstance(r, list) for r in rows):
            raise ParseError("gromov.B: expected a non-empty list of integer rows")
        for i, r in enumerate(rows):
            if any(isinstance(v, bool) or not isinstance(v, int) for v in r):
                raise ParseError(f"gromov.B[{i}]: expected integers, got {r!r}")
        try:
            imm = subtorus_immersion(FrameMatrix(tuple(tuple(r) for r in rows)))
        except Exception as exc:
            raise ParseError(f"gromov.B: {exc}") from None
        return _rescaled(imm, obj, where="gromov")
    raise ParseError(f"type: expected 'fourier', 'clifford' or 'gromov', got {kind!r}")


def _rescaled(imm: FourierImmersion, obj: dict, where: str) -> FourierImmersion:
    scale = _scale(obj, where)
    translate = None
    if "translate" in obj:
        translate = _number_list(obj, "translate", imm.q, where)
    if scale == 1.0 and translate is None:
        return imm
    return FourierImmersion(
        signature=imm.signature,
        terms=imm.terms,
        scale=imm.scale * scale,
        translate=None if translate is None else np.asarray(translate, dtype=float),
    )


def immersion_to_obj(imm: FourierImmersion) -> dict:
    """Serialize any immersion in the explicit 'fourier' form (round-trips exactly)."""
    return {
        "type": "fourier",
        "n": imm.n,
        "q": imm.q,
        "scale": imm.scale,
        "translate": imm.translate.tolist(),
        "terms": [
            {"k": list(t.k), "a": t.a.tolist(), "b": t.b.tolist()}
            for t in imm.terms
        ],
    }


def read_input(path) -> tuple[object, str]:
    """Decoded JSON of an input file and the SHA-256 of the bytes decoded."""
    path = Path(path)
    try:
        raw = path.read_bytes()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:     # malformed JSON or text encoding
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def load_immersion(path) -> FourierImmersion:
    return parse_immersion(read_input(path)[0])


def save_immersion(imm: FourierImmersion, path) -> None:
    Path(path).write_text(json.dumps(immersion_to_obj(imm), indent=2, sort_keys=True) + "\n")
