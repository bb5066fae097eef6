"""What importing the package loads.

Every emulation, scenario and benchmark process imports these modules, so a
heavy dependency pulled in at import time is paid by all of them.  numpy is
loaded only by ``LinearSVM`` (the fraud-detection model) when one is built;
networkx is not used by ``src/`` at all.  Checked in a fresh interpreter,
since this test process may already have loaded either.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PROBE = """
import sys
import repro.apps, repro.core.emulation, repro.experiments, repro.scenarios
print(sorted(name for name in ("numpy", "networkx") if name in sys.modules))
"""


#: ``repro`` and each of its subpackages.
PACKAGES = ["repro"] + [
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
]


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_package_import_loads_neither_numpy_nor_networkx():
    result = run_fresh(PROBE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_each_package_imports_first_in_a_fresh_interpreter(package):
    """Every package is importable on its own: an import cycle shows only
    in a process where nothing else was imported first."""
    result = run_fresh(f"import {package}")
    assert result.returncode == 0, result.stderr
