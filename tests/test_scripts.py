"""The scripts under ``scripts/`` start and run to the end.

``run_scenarios.py`` without ``--mc`` computes the moments of its nine
scenarios through ``fpt_moments``; ``run_mle_study.py`` is only asked for its
usage, since a study takes minutes.  ``profile_likelihood.py`` times a few
points on a small sample, and ``profile_simulator.py`` two chunks of a few
paths; ``stage_timer.py``, which both time the library's calls with, is
checked on a clock that only the timed functions move.  ``sweep_box.py``
runs the first 200 draws of its box.
``check_console_script.sh``, the console-script check of both CI jobs, runs
against a ``logifpt`` shim that calls the checkout's ``logifpt.cli``.
"""

import csv
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from logifpt import errors
from scripts.stage_timer import stage_timer
from tests.test_cli import EXIT_CODES

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


def test_profile_likelihood():
    done = run_script("profile_likelihood.py", "--points", "3", "--paths", "50")
    assert done.returncode == 0, done.stderr
    stages = [line.split()[0] for line in done.stdout.strip().splitlines()[1:]]
    assert stages == ["derive", "rows", "l-sums", "quotient", "c_j/b_k", "order", "approx",
                      "density", "sum", "whole"]


def test_profile_simulator():
    done = run_script("profile_simulator.py", "--paths", "37", "--chunks", "2")
    assert done.returncode == 0, done.stderr
    stages = [line.split()[0] for line in done.stdout.strip().splitlines()[1:]]
    assert stages == ["draws", "noise", "steps", "scan", "chunk"]


def test_stage_timer_charges_self_time_and_puts_originals_back(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])

    def tick(seconds):
        clock[0] += seconds

    class Work:
        def outer(self):
            tick(3.0)
            self.inner()
            tick(2.0)

        def inner(self):
            tick(5.0)

    lib = types.SimpleNamespace(leaf=lambda: tick(7.0))
    targets = [("outer", Work, "outer"), ("inner", Work, "inner"), ("inner", lib, "leaf")]
    originals = [vars(owner)[name] for _, owner, name in targets]

    def unchanged():
        return all(vars(owner)[name] is fn
                   for (_, owner, name), fn in zip(targets, originals))

    with stage_timer(targets) as (seconds, calls):
        assert not unchanged()
        Work().outer()
        Work().inner()
        lib.leaf()
    assert seconds == {"outer": 5.0, "inner": 17.0}  # inner's 5 s inside outer is its own
    assert calls == {"outer": 1, "inner": 3}
    assert unchanged()

    with pytest.raises(ZeroDivisionError):
        with stage_timer(targets) as (seconds, calls):
            Work().outer()
            1 / 0
    assert (seconds, calls) == ({"outer": 5.0, "inner": 5.0}, {"outer": 1, "inner": 1})
    assert unchanged()

    with pytest.raises(KeyError, match="gone"):
        with stage_timer(targets + [("gone", Work, "gone")]):
            pass
    assert unchanged()


def test_sweep_box_fails_only_with_documented_exit_codes(tmp_path):
    """Every draw of the box ends in a density or in a package error with its
    documented exit code; any other exception fails the script.  The counts
    are printed, not asserted."""
    out = tmp_path / "sweep.csv"
    done = run_script("sweep_box.py", "--draws", "200", "--csv", str(out))
    assert done.returncode == 0, done.stderr
    print(done.stdout)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["draw"]) for r in rows] == list(range(200))
    for r in rows:
        if r["outcome"] == "ok":
            assert (r["stage"], r["exit_code"]) == ("density", "0"), r
        else:
            assert int(r["exit_code"]) == EXIT_CODES[getattr(errors, r["outcome"])], r


def test_check_console_script(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "logifpt"
    shim.write_text('#!/bin/sh\nexec python -m logifpt.cli "$@"\n')
    shim.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(["bash", str(ROOT / "scripts" / "check_console_script.sh")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    [workdir] = [p for p in tmp_path.iterdir() if p.name != "bin"]
    assert {"m.csv.json", "md.csv.json", "s.csv.kde.csv", "d.csv.json", "fit.json",
            "seeded1.csv", "seeded2.csv"} <= {p.name for p in workdir.iterdir()}
