"""Every demo script runs to completion from a scratch working directory,
with every warning an error (pytest's own warning filter stays in this process)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpknockoff

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# the miniature sweep takes seconds; it runs with the acceptance suite
SLOW = {"04_fdr_power_sweep"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem, marks=[pytest.mark.slow] if path.stem in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
