"""Every script in ``examples/`` runs to completion.

The examples are the only callers outside the tests of SSSP, label
propagation and Algorithm 4's PageRank, so the reachability ratchet keeps
those alive on the examples' word; this makes sure the examples still run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("example", sorted((ROOT / "examples").glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_exits_zero(example):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(example)], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
