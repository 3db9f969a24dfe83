"""The scripts under ``scripts/`` start and run to the end.

``run_scenarios.py`` without ``--mc`` computes the moments of its nine
scenarios through ``fpt_moments``; ``run_mle_study.py`` is only asked for its
usage, since a study takes minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_run_scenarios():
    done = run_script("run_scenarios.py")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.strip().splitlines()
    assert rows[0].split()[:3] == ["scenario", "mean", "var"]
    assert len(rows) == 10
    assert rows[2].split()[:4] == ["up", "x0=100", "U=1e4", "13.3483"]  # the published mean


def test_run_mle_study_help():
    done = run_script("run_mle_study.py", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: run_mle_study.py")
