"""The program runs on numpy alone: importing it loads no scipy module.

scipy stays a test dependency (tests/test_special.py checks the package's
own special functions against it).  The import runs in a fresh interpreter,
since this test session itself has scipy loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

PROBE = ("import json, sys; import rootsep, rootsep.cli; "
         "print(json.dumps(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.'))))")


def test_importing_the_program_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=SRC, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
