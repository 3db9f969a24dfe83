"""The benchmark's three workloads: their inputs, operations and output checks.

Every operation is one argv list for ``logifpt.cli.main``.  Inputs are made
from the workload seed alone, and the program is given nothing but the
generated config, threshold and sample files.  All workloads use the
fisheries parameters r=0.71, K=8.05e7, q=3.3e-6, E=104540, sigma=0.2.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2)

# The nine rows of scripts/run_scenarios.py plus down_deep:
# (name, x0, direction, threshold).
SCENARIOS = (
    ("up_150", 100.0, "up", 150.0),
    ("up_1e4", 100.0, "up", 1e4),
    ("up_1e5", 100.0, "up", 1e5),
    ("up_110", 100.0, "up", 110.0),
    ("up_large", 2.01e7, "up", 3.91e7),
    ("up_mid", 2.01e7, "up", 2.51e7),
    ("up_high", 4.0e7, "up", 6e7),
    ("down_mid", 3.91e7, "down", 2.8e7),
    ("down_high", 6.0e7, "down", 3.91e7),
    ("down_deep", 3.91e7, "down", 2.01e7),
)

# Scenarios whose density request raises TypeError out of cli.main: the
# sidecar's clip_applied is a numpy.bool_, which json.dump rejects.  On
# down_high it always does; on up_mid it does from the unjittered threshold
# upwards.  The timed loop sends these two only moments requests, so no timed
# op fails; each run still sends both density requests once, untimed, and
# reports what they did (``Workload.known_defects``).
DENSITY_RAISES = ("up_mid", "down_high")

# Published fisheries upcrossing values from x0=100: (mean, variance, kappa4).
PUBLISHED = {1e4: (13.35, 4.49, 7.60), 1e5: (20.03, 6.73, 11.42)}
GATE_TOL = 0.01

DENSITY_GRID = "0:40:0.05"
DENSITY_POINTS = 801
SIM_PATHS = 2048
SIM_PATHS_SMOKE = 256
MLE_N = 500
MLE_INIT = "sigma=0.23,r=0.639"


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class GateFailed(Exception):
    """The program does not reproduce the published values; nothing is timed."""


@dataclass
class Op:
    label: str            # "<kind>:<case>", used to report failures
    argv: list
    check: Callable       # check(stdout_text) raises CheckFailed


def setup_gate() -> float:
    """Check the unjittered fisheries upcrossing against the published table.

    Returns the analytic mean crossing time at U=1e4, which the simulate
    checks compare against.
    """
    from logifpt import Direction, FptProblem, ModelParams, derive_params, fpt_cumulants

    d = derive_params(ModelParams(**FISHERIES, x0=100.0))
    means = {}
    for threshold, want in PUBLISHED.items():
        c = fpt_cumulants(d, FptProblem(Direction.UP, threshold), 4).cumulants_float
        got = (c[0], c[1], c[3])
        if any(not abs(g - w) <= GATE_TOL for g, w in zip(got, want)):
            raise GateFailed(f"U={threshold:g}: (mean, var, k4) = {got}, published {want}")
        means[threshold] = c[0]
    return means[1e4]


def _write_json(path, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def write_config(dirpath, x0: float) -> str:
    return _write_json(os.path.join(dirpath, f"config-{x0:g}.json"), {**FISHERIES, "x0": x0})


# ---------------------------------------------------------------- checks

def _fail_unless(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def check_moments(out_path) -> None:
    """Finite positive mean and variance in the moments table."""
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    _fail_unless(len(rows) >= 2, f"{len(rows)} rows in the moments table")
    mean = float(rows[0]["moment"])
    var = float(rows[1]["cumulant"])
    _fail_unless(math.isfinite(mean) and mean > 0, f"mean {mean!r}")
    _fail_unless(math.isfinite(var) and var > 0, f"variance {var!r}")


def check_density(out_path, points: int = DENSITY_POINTS) -> None:
    """Finite non-negative density on the whole grid.

    The single exception is t = 0 when the matched Gamma shape is below one
    (sidecar alpha < 0): the density then truly diverges at the origin and
    the program writes +inf there.
    """
    data = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=2)
    _fail_unless(data.shape == (points, 2), f"density table shape {data.shape}")
    t, f = data[:, 0], data[:, 1]
    _fail_unless(not np.isnan(f).any() and not (f < 0).any(), "NaN or negative density")
    infinite = ~np.isfinite(f)
    _fail_unless(not infinite[t > 0].any(), "infinite density at t > 0")
    if infinite.any():
        with open(str(out_path) + ".json") as fh:
            alpha = json.load(fh)["alpha"]
        _fail_unless(alpha < 0, f"infinite density at t = 0 with alpha = {alpha}")


def check_simulation(stdout: str, out_path, paths: int, mean_ref: float,
                     kde_points: int = DENSITY_POINTS) -> None:
    """Every path accounted for; sample mean within 5 standard errors."""
    summary = json.loads(stdout.strip().splitlines()[-1])
    n, censored = summary["n"], summary["censored"]
    _fail_unless(n + censored == paths, f"n + censored = {n + censored}, paths = {paths}")
    se = math.sqrt(summary["var"] / n)
    _fail_unless(abs(summary["mean"] - mean_ref) <= 5 * se,
                 f"sample mean {summary['mean']} vs analytic {mean_ref} (se {se})")
    with open(out_path) as fh:
        rows = sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1
    _fail_unless(rows == n, f"{rows} times in the sample file, summary says {n}")
    dens = np.loadtxt(str(out_path) + ".kde.csv", delimiter=",", skiprows=1, ndmin=2)
    _fail_unless(dens.shape == (kde_points, 2), f"kde table shape {dens.shape}")
    _fail_unless(np.isfinite(dens[:, 1]).all() and (dens[:, 1] >= 0).all(),
                 "non-finite or negative kde")


def check_fit(out_path) -> None:
    """Converged, with every estimate inside its default bounds."""
    from logifpt.inference import DEFAULT_BOUNDS

    with open(out_path) as fh:
        fit = json.load(fh)
    _fail_unless(fit["converged"] is True, "fit did not converge")
    for name, value in fit["estimates"].items():
        lo, hi = DEFAULT_BOUNDS[name]
        _fail_unless(lo <= value <= hi, f"{name} = {value} outside [{lo}, {hi}]")


# ---------------------------------------------------------------- workloads

class Workload:
    """Inputs for one run; ``cycle`` yields the ops the loop times.

    ``prepare`` is called once per set-up repetition, each time in a fresh
    directory, and is part of the timed set-up.
    """

    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.mean_ref = None

    def out(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def prepare(self, rep_dir: str, rep: int) -> None:
        raise NotImplementedError

    def warmup(self) -> list:
        raise NotImplementedError

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def known_defects(self) -> list:
        """Ops that fail through a known program defect; run untimed, once."""
        return []


class Table(Workload):
    """moments --order 4 and density --nmax 10 over ten scenarios.

    Each cycle is a seeded permutation of 18 (scenario, request) pairs:
    moments on all ten scenarios and density on all but DENSITY_RAISES.  The
    loop runs whole cycles, so every run sees the same mix.  Each
    threshold's log-distance log(threshold/x0) is scaled by a seeded factor
    in [0.9, 1.1]: no request repeats exactly and none crosses x0.
    """

    name = "table"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.rng = np.random.default_rng(seed)
        self.configs = {}

    def prepare(self, rep_dir, rep):
        self.configs = {x0: write_config(rep_dir, x0) for x0 in {s[1] for s in SCENARIOS}}

    def _op(self, kind, scenario, threshold):
        name, x0, direction, _ = scenario
        argv = [kind, self.configs[x0], "--direction", direction,
                "--threshold", repr(float(threshold))]
        out = self.out(f"{kind}.csv")
        if kind == "moments":
            argv += ["--order", "4", "--out", out]
            return Op(f"moments:{name}", argv, lambda _stdout: check_moments(out))
        argv += ["--nmax", "10", "--grid", DENSITY_GRID, "--out", out]
        return Op(f"density:{name}", argv, lambda _stdout: check_density(out))

    def warmup(self):
        up_1e4 = SCENARIOS[1]
        return [self._op("moments", up_1e4, up_1e4[3]), self._op("density", up_1e4, up_1e4[3])]

    def cycle(self, index):
        requests = [(kind, s) for s in SCENARIOS for kind in ("moments", "density")
                    if kind == "moments" or s[0] not in DENSITY_RAISES]
        ops = []
        for k in self.rng.permutation(len(requests)):
            kind, scenario = requests[k]
            _, x0, _, threshold = scenario
            factor = self.rng.uniform(0.9, 1.1)
            jittered = x0 * math.exp(factor * math.log(threshold / x0))
            ops.append(self._op(kind, scenario, jittered))
        return ops

    def known_defects(self):
        return [self._op("density", s, s[3]) for s in SCENARIOS if s[0] in DENSITY_RAISES]


class Simulate(Workload):
    """One upcrossing simulation per op, seed = workload seed + op index."""

    name = "simulate"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.paths = SIM_PATHS_SMOKE if smoke else SIM_PATHS
        self.config = None

    def prepare(self, rep_dir, rep):
        self.config = write_config(rep_dir, 100.0)

    def _op(self, label, threshold, paths, horizon, seed, check):
        out = self.out("sample.csv")
        argv = ["simulate", self.config, "--direction", "up", "--threshold", threshold,
                "--paths", str(paths), "--dt", "1e-3", "--horizon", horizon,
                "--kde-grid", DENSITY_GRID, "--seed", str(seed), "--out", out]
        return Op(label, argv, (lambda stdout: check_simulation(
            stdout, out, paths, self.mean_ref)) if check else (lambda _stdout: None))

    def warmup(self):
        # A short, cheap run through the same code paths; its mean is not checked.
        return [self._op("simulate:warmup", "150", 64, "20", self.seed, check=False)]

    def cycle(self, index):
        return [self._op("simulate:up_1e4", "1e4", self.paths, "60", self.seed + index,
                         check=True)]


class Mle(Workload):
    """(sigma, r) fits on N=500 sample files made in set-up.

    Sample j is simulated at the truth with the seed drawn from
    SeedSequence((seed, j)); each set-up repetition makes its share of the
    pool and op i fits sample i mod pool size.
    """

    name = "mle"
    per_rep = 4

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        if smoke:
            self.per_rep = 1
        self.fixed = None
        self.samples = []

    def prepare(self, rep_dir, rep):
        from logifpt import (Direction, FptProblem, ModelParams, SimConfig, derive_params,
                             sample_fpt, write_samples_csv)

        self.fixed = _write_json(os.path.join(rep_dir, "fixed.json"), {
            "x0": 100.0, "U": 1e4, "K": FISHERIES["K"], "q": FISHERIES["q"],
            "E": FISHERIES["E"], "direction": "up"})
        d = derive_params(ModelParams(**FISHERIES, x0=100.0))
        for j in range(rep * self.per_rep, (rep + 1) * self.per_rep):
            seed = int(np.random.SeedSequence((self.seed, j)).generate_state(1)[0])
            sample = sample_fpt(d, SimConfig(problem=FptProblem(Direction.UP, 1e4),
                                             paths=MLE_N, dt=1e-3, horizon=60.0, seed=seed))
            path = os.path.join(rep_dir, f"sample-{j}.csv")
            write_samples_csv(sample, path)
            self.samples.append(path)

    def _op(self, label, sample, max_iter, check):
        out = self.out("fit.json")
        argv = ["mle", "--samples", sample, "--estimate", "sigma,r", "--init", MLE_INIT,
                "--fixed", self.fixed, "--max-iter", str(max_iter), "--out", out]
        return Op(label, argv, (lambda _stdout: check_fit(out)) if check
                  else (lambda _stdout: None))

    def warmup(self):
        # Two simplex iterations: every layer runs, at a fraction of a fit's
        # cost; the fit cannot have converged, so it is not checked.
        return [self._op("mle:warmup", self.samples[-1], 2, check=False)]

    def cycle(self, index):
        j = index % len(self.samples)
        return [self._op(f"mle:sample-{j}", self.samples[j], 250, check=True)]


WORKLOADS = {w.name: w for w in (Table, Simulate, Mle)}
