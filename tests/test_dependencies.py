"""The library runs on numpy alone: scipy is a test-only dependency."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["quadbloch", "quadbloch.cli"])
def test_import_does_not_load_scipy(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
