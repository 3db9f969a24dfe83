#!/usr/bin/env python3
"""logifpt benchmark: closed-loop CLI workloads, plus a traced per-layer run.

Run from the root of a logifpt checkout; the package is imported from its
``src/`` directory:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py``; BENCHMARK.json says why each was chosen):
``table``, ``simulate`` and ``mle``.  One client in one process sends each
op only after the previous one has finished (closed loop).  An op is one
in-process ``logifpt.cli.main(argv)`` call, timed from argument parsing to
written files; its output is checked after the clock stops.  The loop runs
whole cycles (18 requests for ``table``, one op otherwise) until --seconds
have passed.

Times are reported in reference seconds (``refclock.py``): each op, import
and set-up is scaled by the speed of the machine measured while it ran, so
that a shared host's drifting speed cancels.  The details line keeps the
raw seconds too.

--trace 0 reports the end-to-end metrics:
  setup_s      import time plus the median of three set-ups, each making the
               input files, running the correctness gate and a warm-up op
  ops_per_s    successful ops per second of op time, the median over cycles
  op_p50_s     median op latency over every attempted op
  op_p90_s     90th percentile of the same; the details line gives how many
               ops lie beyond it (fewer than ten on simulate and mle)
  peak_rss_mb  peak resident set of this process (one workload per process)
--trace 1 runs each op input twice, untraced and traced, in alternating
order, and reports the per-layer metrics of ``spans.py`` from the traced
copies, with the tracing overhead measured between the two.

An op fails on an exception, a non-zero exit code or a failed output check.
Ops that fail through a known program defect are left out of the timed loop;
each run sends them once after set-up, untimed, and the details line reports
what each did under ``known_defects``.
The last line of stdout is the result: ``correct`` (no output check found a
wrong answer), ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the environment and the run's details; both, and the spans of a traced
run, are also written under ``.perfbench/``.  Exit codes: 0 done, 2 no
logifpt source in this checkout, 3 the set-up gate or a warm-up op failed.
"""

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table", "simulate", "mle", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs and one set-up, for the self-test")
    return ap.parse_args(argv)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "cpu": cpu, "omp_num_threads": os.environ["OMP_NUM_THREADS"]}


def invoke(cli, op):
    """Call cli.main(op.argv); return (failure or None, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception as exc:  # the loop goes on; the op counts as failed
        return f"{type(exc).__name__}: {exc}"[:160], out.getvalue()
    return (f"exit {rc}" if rc else None), out.getvalue()


def check(op, failure, stdout):
    """Run the op's output check unless it already failed; return (failure, wrong)."""
    if failure:
        return failure, False
    try:
        op.check(stdout)
    except Exception as exc:  # a missing or unreadable output is wrong too
        return f"check: {exc}", True
    return None, False


def run_op(cli, op, clock):
    """Time one op, then check it; return (its Block, failure or None, wrong)."""
    with clock.block() as block:
        failure, stdout = invoke(cli, op)
    return (block, *check(op, failure, stdout))


def set_up(cli, workload, reps, rundir, clock):
    """Run the set-up ``reps`` times; return the Block of each."""
    from workloads import setup_gate

    blocks = []
    for rep in range(reps):
        with clock.block() as block:
            rep_dir = rundir / f"setup-{rep}"
            rep_dir.mkdir()
            workload.prepare(str(rep_dir), rep)
            workload.mean_ref = setup_gate()
            for op in workload.warmup():
                failure, _ = check(op, *invoke(cli, op))
                if failure:
                    raise RuntimeError(f"warm-up {op.label} failed: {failure}")
        blocks.append(block)
    return blocks


def measure(args):
    if not (SRC / "logifpt" / "cli.py").is_file():
        print(f"error: no logifpt source under {SRC}", file=sys.stderr)
        return 2
    clock = ReferenceClock()
    sys.path.insert(0, str(SRC))
    with clock.block() as imported:
        import numpy as np
        from logifpt import cli
    if Path(cli.__file__).resolve().parent != (SRC / "logifpt").resolve():
        print(f"error: imported logifpt from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS, GateFailed

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = WORK / f"run-{tag}-{os.getpid()}"
    rundir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(rundir), args.smoke)
        try:
            setups = set_up(cli, workload, 1 if args.smoke else SETUP_REPS, rundir, clock)
        except (GateFailed, RuntimeError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 3
        known_defects = {}
        for op in workload.known_defects():
            failure, _ = check(op, *invoke(cli, op))
            known_defects[op.label] = failure or "ok: no longer fails"
        tracer = Tracer(clock.now) if args.trace else None
        records = []        # (label, Block, failure, wrong, traced, cycle)
        inputs = cycles = 0
        loop_start = time.perf_counter()
        while True:
            for op in workload.cycle(cycles):
                order = (False, True) if inputs % 2 else (True, False)
                for traced in order if tracer else (False,):
                    with tracer if traced else contextlib.nullcontext():
                        if traced:
                            tracer.op = inputs
                        records.append((op.label, *run_op(cli, op, clock), traced, cycles))
                inputs += 1
            cycles += 1
            if time.perf_counter() - loop_start >= args.seconds:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    plain = [r for r in records if not r[4]]
    times = np.array([r[1].seconds for r in plain])
    raw = np.array([r[1].raw_s for r in plain])
    ok = sum(1 for r in records if r[2] is None)
    failures = {}
    by_label = {}
    per_cycle = np.zeros((cycles, 2))      # untraced op seconds, successes
    for label, block, failure, _, _, cycle in plain:
        by_label.setdefault(label, []).append(block.seconds)
        per_cycle[cycle] += (block.seconds, failure is None)
    for label, _, failure, *_ in records:
        if failure:
            failures.setdefault(label, {}).setdefault(failure, 0)
            failures[label][failure] += 1
    if tracer:
        traced = [r[1] for r in records if r[4]]
        metrics = tracer.metrics([b.scale for b in traced], sum(b.seconds for b in traced),
                                 float(times.sum()))
        units = per_layer_units()
        tracer.write(WORK / f"spans-{tag}.jsonl")
    else:
        metrics = {
            "setup_s": imported.seconds + statistics.median(b.seconds for b in setups),
            "ops_per_s": float(np.median(per_cycle[:, 1] / per_cycle[:, 0])),
            "op_p50_s": float(np.percentile(times, 50)),
            "op_p90_s": float(np.percentile(times, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": environment(),
        "cycles": cycles, "ops": len(plain),
        "ops_beyond_p90": int((times > np.percentile(times, 90)).sum()),
        "failures": failures, "known_defects": known_defects,
        "median_s_by_op": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "raw": {"import_s": imported.raw_s, "setup_s": [b.raw_s for b in setups],
                "op_p50_s": float(np.percentile(raw, 50)),
                "op_p90_s": float(np.percentile(raw, 90)),
                "median_scale": float(np.median([r[1].scale for r in records]))},
    }
    result = {
        "correct": not any(r[3] for r in records),
        "attempted": len(records),
        "failed": len(records) - ok,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump({"details": details, "result": result,
                   "ops": [{"label": r[0], "raw_s": r[1].raw_s, "scale": r[1].scale,
                            "probes": r[1].probes, "failure": r[2], "traced": r[4],
                            "cycle": r[5]} for r in records]}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in ("table", "simulate", "mle"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        details = json.loads(lines[-2])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failures={details['failures']}")
        for label, outcome in details["known_defects"].items():
            print(f"  known defect {label}: {outcome}")
        for key, m in result["metrics"].items():
            print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
