"""Each demo, and README's library tour, runs to completion against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import innscore

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, cwd):
    # some demos write files to the working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(innscore.__file__)))
    done = subprocess.run([sys.executable, str(script)], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


@pytest.mark.slow
def test_readme_library_tour_runs(tmp_path):
    """The python block under README's `## Library tour` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "score_models" in tour
    script = tmp_path / "library_tour.py"
    script.write_text(tour + "\n", encoding="utf-8")
    _run(script, tmp_path)
