"""Every demo script runs to completion and prints what it printed when
its stdout was pinned."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py")))
# a numpy overflow, invalid-value or deprecation warning fails a demo, as in
# the suite
DEMO_RUN = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    res = subprocess.run(DEMO_RUN + [path], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.strip()


# SHA-256 of each demo's stdout, recorded with Python 3.11 and numpy 2.4.6 like
# the other pins: a change that moves one printed digit of any demo fails here
DEMO_STDOUT_SHA256 = {
    "01_debt_recursion.py": "bc1519bad5c1b0c466d41ee3fbf90ed6fdddb375b5b9d5c733fe1d18a6597881",
    "02_compression_toolkit.py": "9b61924bc3a30a22f267f298a458246041282338a2292b0d26355556878dc7f2",
    "03_investment_bounds.py": "0ef3b26c619c244aa8b2aebf050c92d09b62a2203285288a5fade6a82dbc08dc",
    "04_premium_closure.py": "d81bfb4bedea99afff9e53fe22b6af40cc235eed2f47ef47667217d706fbf5be",
    "05_transition.py": "c77841c9c361cbd1430dc74651f966735aec0957c6843a7e46ac7f3f8ccc1416",
    "06_inference_bands.py": "87872e2b623ee44ce03d3c3bb705be73b5a20504b168686eb6123bf35ac45871",
    "07_monte_carlo.py": "80b8eb9e2de97238215073b5723a4e83dd798d2a0e3a663947310527c11ae3db",
}


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_stdout_pinned(path, tmp_path):
    res = subprocess.run(DEMO_RUN + [path], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[os.path.basename(path)]
