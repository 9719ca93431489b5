import subprocess
import sys

import pytest

import inputs
from conftest import BENCH

NAMES = ("d4", "wavy3")


def _bytes(seed, directory):
    files = inputs.write_inputs(NAMES, seed, directory)
    return {name: path.read_bytes() for name, (path, _) in files.items()}


def test_same_seed_same_bytes(tmp_path):
    assert _bytes(5, tmp_path / "a") == _bytes(5, tmp_path / "b")


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_bytes(tmp_path, name):
    assert _bytes(5, tmp_path / "a")[name] != _bytes(6, tmp_path / "b")[name]


def test_hashes_are_sha256_of_bytes(tmp_path):
    import hashlib

    for path, digest in inputs.write_inputs(NAMES, 3, tmp_path).values():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _up_to_sign(rows):
    """Rows with the first nonzero entry made positive, sorted."""
    return sorted(tuple(c if next(x for x in r if x) > 0 else -c for c in r) for r in rows)


def test_d4_rows_are_a_signed_reordering():
    d4 = sorted(tuple(int(k == i) + s * int(k == j) for k in range(4))
                for i in range(4) for j in range(i + 1, 4) for s in (1, -1))
    for seed in (0, 1, 2):
        assert _up_to_sign(inputs.d4_rows(seed)) == d4


def test_wavy3_scaled_into_ball():
    obj = inputs.wavy3(9)
    top = inputs._series_max_norm(obj["terms"], 3, inputs.WAVY_GRID)
    assert obj["scale"] * top == pytest.approx(inputs.BALL_MARGIN, rel=1e-12)
    assert len(obj["terms"]) == 3 + inputs.PERTURB_TERMS


def test_generator_does_not_import_toricurv():
    code = "import sys, inputs; inputs.wavy3(1); assert 'toricurv' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)
