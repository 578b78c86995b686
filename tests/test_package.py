"""Import footprint of the package."""

import os
import subprocess
import sys
import types
from pathlib import Path

import eulerhill


def test_import_loads_no_scipy_subpackage_but_special():
    # scipy.signal or scipy.linalg would add seconds and tens of MB to
    # every import; the private _lib/config modules come with scipy itself
    src = str(Path(eulerhill.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, eulerhill; "
            "print('\\n'.join(m for m in sys.modules if m.startswith(('scipy.', 'eulerhill.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    extra = sorted({m.split(".")[1] for m in out if m.startswith("scipy.")} - {"special", "version"})
    assert [m for m in extra if not m.startswith("_")] == []
    assert "eulerhill.checks" not in out  # only verify and the tests need it


def test_evans_attribute_is_the_module():
    import eulerhill.evans

    assert isinstance(eulerhill.evans, types.ModuleType)
    assert eulerhill.evans is sys.modules["eulerhill.evans"]
