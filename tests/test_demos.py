"""Each demo runs to completion against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import innscore

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # some demos write files to the working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
