"""Start-up guard: importing the package and its CLI loads no SciPy module.

SciPy's ``optimize`` import alone used to cost more than half a second at
every process start.  The closed-form solves now use
:mod:`repro.core.rootfind`, and SciPy is imported lazily by the one NPB
host kernel that needs it.  This check counts modules, not seconds, so it
is deterministic on any machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = (
    "import sys, repro, repro.cli; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
)


def test_import_repro_cli_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]", done.stdout
