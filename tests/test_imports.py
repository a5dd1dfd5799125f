"""The package's import graph stays free of heavy libraries it no
longer needs.

scipy (one ``milp`` call) and networkx (CFG queries) each dominated
start-up time and memory until they were replaced in pure Python; a
stray top-level import would bring either back without failing
anything else.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

DROPPED = ("scipy", "networkx")


def test_package_imports_neither_scipy_nor_networkx():
    code = (
        "import sys\n"
        "import repro.cli, repro.core, repro.serve\n"
        f"print(','.join(m for m in {DROPPED!r} if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == ""
