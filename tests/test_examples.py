"""Smoke tests: every example script runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_complete():
    assert len(EXAMPLES) >= 3  # the deliverable floor; we ship six
    assert "quickstart.py" in EXAMPLES


# test_import_footprint.py::test_figure4_runs_without_scipy already runs
# goodput_study.py and pins its stdout.  Under its -O the only statement
# compiled out of that path is cube_shape's assert, which the
# cube_shape and balanced_block_shape tests run.
SMOKED = [script for script in EXAMPLES if script != "goodput_study.py"]


@pytest.mark.parametrize("script", SMOKED)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} printed nothing"
