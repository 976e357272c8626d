"""The scripts under ``scripts/`` that print a report run to exit 0."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["bound_scan.py", "sampler_demo.py",
                                  "worked_example.py"])
def test_script_runs_clean(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
