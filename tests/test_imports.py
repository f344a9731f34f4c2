"""Every far2 submodule imports cleanly as the first one a program loads.

second_order and secular import each other at module level (min_eig
inverts through secular.ShiftedFactorization, and the secular solves call
min_eig), so a change to the order in which the package loads its modules
could leave one of them half-initialized. Each import runs in a fresh
interpreter, since the test session has loaded the package already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "far2").glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_first(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"import far2.{module}"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
