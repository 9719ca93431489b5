import subprocess
import sys

from conftest import BENCH


def test_parent_does_not_import_numpy():
    # A worker's ru_maxrss includes the peak of the process it was forked
    # from, so the process that spawns workers must stay smaller than any
    # worker: no numpy, whose import and BLAS buffers come near a bare toricurv import.
    code = "import sys, run; assert 'numpy' not in sys.modules, 'run.py imports numpy'"
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True)
