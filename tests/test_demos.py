"""Every demo script runs to completion and prints something."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # a numpy overflow or invalid-value warning fails the demo, as in the suite
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", path], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip()
