#!/usr/bin/env python3
"""Fast self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

It checks three things and exits non-zero on the first that fails:
1. every workload, run at its smallest size (``--smoke``, one cycle) in its
   own process, untraced and traced, prints every metric BENCHMARK.json
   names with the unit given there, no output check found a wrong answer,
   no timed op failed, and ``table`` reports its known-defect probes;
2. the output checks really run on real outputs: each is fed the output of
   one real op, which must pass, and then a corrupted copy, which must fail;
3. in a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import invoke  # noqa: E402

WORK = ROOT / ".perfbench"


def check_metrics(spec) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in ("table", "simulate", "mle"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"{name} trace={trace}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert result["failed"] == 0, details["failures"]
            probed = len(wl.DENSITY_RAISES) if name == "table" else 0
            assert len(details["known_defects"]) == probed, details["known_defects"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: {sorted(set(got) ^ set(want))}"
            print(f"ok   {name} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} ops failed")


def _rewrite(path, edit):
    """A corruption that edits the lines of an output file."""
    def corrupt(stdout):
        lines = Path(path).read_text().splitlines()
        edit(lines)
        Path(path).write_text("\n".join(lines) + "\n")
        return stdout
    return corrupt


def _set_field(index, column, value):
    def edit(lines):
        cells = lines[index].split(",")
        cells[column] = value
        lines[index] = ",".join(cells)
    return edit


def _edit_json(path, **changes):
    """A corruption that overwrites keys of a JSON output file."""
    def corrupt(stdout):
        doc = json.loads(Path(path).read_text())
        doc.update(changes)
        Path(path).write_text(json.dumps(doc))
        return stdout
    return corrupt


def _shift_mean(stdout):
    doc = json.loads(stdout.strip().splitlines()[-1])
    doc["mean"] += 10 * (doc["var"] / doc["n"]) ** 0.5
    return json.dumps(doc)


def check_checks() -> None:
    from logifpt import cli

    up_1e4 = wl.SCENARIOS[1]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = {name: cls(7, str(Path(tmp) / name), smoke=True)
                for name, cls in wl.WORKLOADS.items()}
        mean_ref = wl.setup_gate()
        for w in work.values():
            rep = Path(w.workdir) / "setup"
            rep.mkdir()
            w.prepare(str(rep), 0)
            w.mean_ref = mean_ref
        table = work["table"]
        moments = table._op("moments", up_1e4, up_1e4[3])
        density = table._op("density", up_1e4, up_1e4[3])
        simulation = work["simulate"].cycle(0)[0]
        fit = work["mle"].cycle(0)[0]
        sample = simulation.argv[simulation.argv.index("--out") + 1]
        fit_out = fit.argv[fit.argv.index("--out") + 1]
        cases = [
            (moments, _rewrite(table.out("moments.csv"), _set_field(1, 1, "-1.0"))),
            (density, _rewrite(table.out("density.csv"), _set_field(200, 1, "-1e-3"))),
            (density, _rewrite(table.out("density.csv"), _set_field(200, 1, "inf"))),
            (simulation, _rewrite(sample + ".kde.csv", _set_field(5, 1, "nan"))),
            (simulation, _rewrite(sample, lambda lines: lines.pop())),
            (simulation, _shift_mean),
            (fit, _edit_json(fit_out, converged=False)),
            (fit, _edit_json(fit_out, estimates={"sigma": 9.0, "r": 0.7})),
        ]
        for op, corrupt in cases:
            failure, stdout = invoke(cli, op)
            assert failure is None, f"{op.label}: {failure}"
            op.check(stdout)
            try:
                op.check(corrupt(stdout))
            except wl.CheckFailed as exc:
                print(f"ok   {op.label}: corrupted output caught ({exc})")
            else:
                raise AssertionError(f"{op.label}: corrupted output passed its check")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(spec["command"] + ["--workload", "table", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    WORK.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_checks()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
