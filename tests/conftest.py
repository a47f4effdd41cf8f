"""Test-session setup shared by every test module.

Some tests start `python -m debtregime` in a temporary working directory.  A
relative `PYTHONPATH=src` does not resolve there, so the absolute source path
goes first in the environment the child processes inherit.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
