"""Importing the package loads neither scipy nor networkx.

scipy serves only Figure 4's exact OCS curve, so `analytic_ocs_goodput`
imports it when called; networkx is no dependency at all.  The check
runs in a fresh interpreter, because the test process has already
imported whatever the rest of the suite needed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The package, the CLI, and the modules the benchmark harness drives.
ENTRY_MODULES = ("repro", "repro.__main__", "repro.fleet.simulator",
                 "repro.fleet.obs.export", "repro.fleet.trace",
                 "repro.network.simcollectives")

PROBE = f"""
import importlib, sys
for module in {ENTRY_MODULES!r}:
    importlib.import_module(module)
print(sorted(name for name in ("scipy", "networkx") if name in sys.modules))
from repro.core.availability import analytic_ocs_goodput
print(repr(analytic_ocs_goodput(1024, 0.995)))
"""


def test_entry_modules_leave_scipy_and_networkx_unloaded():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded, goodput = result.stdout.splitlines()
    assert loaded == "[]"
    # Figure 4's exact curve is unchanged by the deferred import.
    assert float(goodput) == 0.751473733190102
