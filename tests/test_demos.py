"""The narrative demos run to completion from a clean directory."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contamruns

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name,expected", [("01_closed_forms.py", "13/27"),
                                           ("02_limit_theorems.py",
                                            "H(0.5) at N=3000000: -0.450601819"),
                                           ("03_experiments.py", "identical output: True")])
def test_demo_runs(name, expected, tmp_path):
    # the demos import the same contamruns as the tests: src/ or the installed package
    env = {**os.environ, "PYTHONPATH": str(Path(contamruns.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
