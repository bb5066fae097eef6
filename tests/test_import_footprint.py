"""What importing the package loads.

Every emulation, scenario and benchmark process imports these modules, so a
heavy dependency pulled in at import time is paid by all of them.  numpy is
loaded only by ``LinearSVM`` (the fraud-detection model) when one is built;
networkx is not used by ``src/`` at all.  Checked in a fresh interpreter,
since this test process may already have loaded either.
"""

import os
import subprocess
import sys

PROBE = """
import sys
import repro.apps, repro.core.emulation, repro.experiments, repro.scenarios
print(sorted(name for name in ("numpy", "networkx") if name in sys.modules))
"""


def test_package_import_loads_neither_numpy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
