"""The package needs nothing beyond the standard library at run time:
importing it must not pull in an array library."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_repro_loads_no_numpy():
    code = ("import repro, sys; "
            "assert 'numpy' not in sys.modules, 'import repro loaded numpy'")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
