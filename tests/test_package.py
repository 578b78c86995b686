"""Import footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import eulerhill


def test_import_loads_no_scipy_subpackage_but_special():
    # scipy.signal or scipy.linalg would add seconds and tens of MB to
    # every import; the private _lib/config modules come with scipy itself
    src = str(Path(eulerhill.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, eulerhill; print('\\n'.join(m for m in sys.modules if m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    extra = sorted({m.split(".")[1] for m in out.split()} - {"special", "version"})
    assert [m for m in extra if not m.startswith("_")] == []
