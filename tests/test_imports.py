"""scipy is a test-only dependency: importing the CLI loads no scipy
module."""

import subprocess
import sys
from pathlib import Path

import spalmtl


def test_cli_import_loads_no_scipy():
    src = str(Path(spalmtl.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spalmtl.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
