"""Smoke test: every demo runs to completion as a script.

`embedding_comparison.py` is the slowest, at a few seconds: it trains every
embedder at the default study size, the autoencoder through `TrainConfig`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import deepmatch

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# the demos import the same deepmatch package the tests import
SRC = str(Path(deepmatch.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "demo", ["twin_recovery", "propensity_workflow", "gradient_audit", "embedding_comparison"]
)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
