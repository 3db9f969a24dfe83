"""The benchmark's own self-test passes.

``perfbench/selftest.py`` runs every workload at its smallest size and
checks that no timed op fails and that every declared metric is printed, so
a change that breaks a benchmark op fails here too.  It takes about 16 s on
a 2-vCPU machine.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
