import math
import re
from pathlib import Path


def test_readme_quickstart_runs():
    # The README's python block is the public API's first use: it must run,
    # and invariants_at must give the hexagonal torus's constant invariants.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    iv = namespace["iv"]
    assert abs(iv.zh - 1.5) < 1e-12
    assert abs(iv.K_min - math.sqrt(1.5)) < 1e-12
    assert abs(iv.K_max - math.sqrt(1.5)) < 1e-12
