"""Positivity-preserving simulation of the harvested logistic diffusion.

Each time step composes the two exact sub-flows of the generator: the
logistic drift is advanced by its closed-form solution

    x* = K1 x e^(r1 dt) / (K1 + x (e^(r1 dt) - 1)),

and the multiplicative noise by the driftless geometric-Brownian update

    x+ = x* exp(-sigma^2 dt / 2 + sigma sqrt(dt) z),    z ~ N(0, 1).

Both factors are strictly positive, so simulated states never touch zero.

Reproducibility contract: path p draws its normals from a dedicated
counter-based stream keyed by (seed, p) (Philox 4x64), one draw per time
step, so the sample is bit-identical for a given (seed, config) regardless
of how paths are batched internally.  Batches are merged associatively
(crossing times concatenated, then sorted), keeping the result independent
of scheduling.

Memory is bounded whatever the number of paths and steps.  ``sample_fpt``
runs each chunk of _CHUNK = 512 steps time-major, in one buffer of
512 x min(paths, _BATCH = 4096) doubles, at most 16 MiB, allocated once per
call: row j holds step j of every path, first as its noise factor, then as
its state.  The normals reach the buffer's columns through a path-major
staging block of _STAGE = 16 paths x 512 steps (64 KiB), and the crossing
scan compares _SCAN = 16 rows at a time in a bool mask of at most
16 x 4096 (64 KiB).  Besides these, it holds about 1 KB of generator state
per path of the current batch, and the crossing times.  ``kde`` evaluates
the grid in blocks of _KDE_BLOCK doubles (512 KiB) per temporary, whatever
the grid size; a block holds at least one grid point, so a sample larger
than _KDE_BLOCK takes one row of n doubles instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpf

from .analytics import MomentSet
from .errors import EmptySample, InvalidParams
from .model import (DerivedParams, Direction, FptProblem, ModelParams, _json_number,
                    validate_problem)

_MASK64 = (1 << 64) - 1
_BATCH = 4096
_CHUNK = 512
# paths per staging block of normals, and rows per crossing-scan mask
_STAGE = 16
_SCAN = 16
# doubles in each kde temporary: grid points per block times sample size
_KDE_BLOCK = 1 << 16

CSV_MAGIC = "# logifpt fpt-sample v1"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run's settings; ``to_dict`` is its sample file's config line."""

    problem: FptProblem
    paths: int
    dt: float
    horizon: float
    seed: int

    def __post_init__(self):
        if self.paths < 1:
            raise InvalidParams(f"paths must be >= 1, got {self.paths}")
        if not 0 < self.dt < math.inf:
            raise InvalidParams(f"dt must be finite and > 0, got {self.dt}")
        if not self.dt < self.horizon < math.inf:
            raise InvalidParams(f"horizon must be finite and exceed dt, got {self.horizon}")

    @property
    def steps(self) -> int:
        """Steps per path: ceil(horizon / dt), where a quotient within 4 ulps
        of a whole number counts as that number, so that the rounding of
        horizon / dt (0.07 / 0.01 = 7.000000000000001) adds no step."""
        ratio = self.horizon / self.dt
        whole = round(ratio)
        return whole if abs(ratio - whole) <= 4 * math.ulp(ratio) else math.ceil(ratio)

    @property
    def censor_time(self) -> float:
        """Where a path that has not crossed stops and is censored: steps * dt."""
        return self.steps * self.dt

    def to_dict(self) -> dict:
        return {
            "direction": self.problem.direction.value,
            "threshold": self.problem.threshold,
            "paths": self.paths,
            "dt": self.dt,
            "horizon": self.horizon,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d) -> "SimConfig":
        """Inverse of ``to_dict``; other keys (older files' interpolate_crossing) are
        ignored.  Anything else, a paths or seed that is not an integer
        included, raises InvalidParams."""
        try:
            threshold, dt, horizon = (_json_number(d[k], f"sim config {k}")
                                      for k in ("threshold", "dt", "horizon"))
            problem = FptProblem(Direction(d["direction"]), threshold)
            paths, seed = d["paths"], d["seed"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"bad sim config {d!r}: {exc}") from exc
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (paths, seed)):
            raise InvalidParams(f"sim config paths and seed must be integers, got {paths!r}, "
                                f"{seed!r}")
        return cls(problem=problem, paths=paths, dt=dt, horizon=horizon, seed=seed)


@dataclass
class FptSample:
    """Crossing times from one simulation run (sorted ascending).

    Censored paths (no crossing before the horizon) are counted, never
    imputed; consumers must not treat them as observed crossings.
    """

    times: np.ndarray
    censored: int
    config: SimConfig
    model: ModelParams | None = None

    @property
    def n(self) -> int:
        return len(self.times)

    def summary(self) -> dict:
        t = self.times
        if len(t) == 0:
            return {"n": 0, "censored": self.censored}
        mean = float(np.mean(t))
        var = float(np.var(t, ddof=1)) if len(t) > 1 else 0.0
        sd = math.sqrt(var)
        skew = float(np.mean((t - mean) ** 3) / sd ** 3) if sd > 0 else 0.0
        return {"n": len(t), "censored": self.censored, "mean": mean,
                "var": var, "skew": skew}


def step_constants(d: DerivedParams, dt: float) -> tuple:
    """Float constants (K1, e^(r1 dt), e^(r1 dt) - 1, -sigma^2 dt / 2,
    sigma sqrt(dt)) of a splitting step of size dt."""
    K1 = float(d.K1)
    sigma = float(d.params.sigma)
    grow = math.exp(float(d.r1) * dt)
    return K1, grow, grow - 1.0, -0.5 * sigma * sigma * dt, sigma * math.sqrt(dt)


def _noise_factor(z, drift_corr, vol) -> None:
    """The normals z become the noise sub-flow's factors
    exp(-sigma^2 dt / 2 + sigma sqrt(dt) z), in place."""
    np.exp(np.add(drift_corr, np.multiply(vol, z, out=z), out=z), out=z)


def _path_generators(seed: int, ids) -> list:
    return [np.random.Generator(np.random.Philox(key=np.array([seed & _MASK64, p],
                                                              dtype=np.uint64)))
            for p in ids]


def _draw_normals(gens, z, stage) -> None:
    """Generator p's next len(z) normals into column p of z (steps x paths).

    Each path draws into a row of the path-major staging block, which goes
    into z one block of len(stage) columns at a time.
    """
    block = stage[:, :len(z)]
    for p in range(0, len(gens), len(block)):
        rows = block[:len(gens) - p]
        for g, row in zip(gens[p:p + len(rows)], rows):
            g.standard_normal(out=row)
        z[:, p:p + len(rows)] = rows.T


def _step_rows(states, x, drift_consts, drift, tmp) -> None:
    """Row j of states, the noise factors of step j, becomes the state after
    it: the drift sub-flow x* (see the module docstring) of row j - 1 (of x
    for row 0) times the factor.  drift_consts are (K1, e^(r1 dt),
    e^(r1 dt) - 1); drift and tmp are temporaries shaped like x."""
    K1, grow, gm1 = drift_consts
    prev = x
    for row in states:
        np.add(K1, np.multiply(prev, gm1, out=tmp), out=tmp)
        np.multiply(np.multiply(K1, prev, out=drift), grow, out=drift)
        np.divide(drift, tmp, out=drift)
        np.multiply(drift, row, out=row)
        prev = row


def _first_crossings(states, past, threshold, mask) -> np.ndarray:
    """Each column's first row whose state is past the threshold, or
    len(states) where there is none; the rows are compared len(mask) at a
    time in mask."""
    span, n = states.shape
    first = np.full(n, span)
    for r in range(0, span, len(mask)):
        m = mask[:min(len(mask), span - r), :n]
        past(states[r:r + len(m)], threshold, out=m)
        new = np.flatnonzero(m.any(axis=0) & (first == span))
        if len(new):
            first[new] = r + m[:, new].argmax(axis=0)
    return first


def sample_fpt(d: DerivedParams, cfg: SimConfig) -> FptSample:
    """Simulate cfg.paths trajectories and collect first-crossing times.

    The crossing time is linearly interpolated between the grid values that
    bracket the threshold, which removes most of the O(dt) bias of recording
    the first grid point past it.  Raises WrongSide when x0 lies past the
    threshold; at x0 == threshold every time is 0.

    A chunk runs time-major in one buffer of _CHUNK rows by _BATCH columns,
    allocated once, whose top-left corner the chunk's surviving paths fill:
    the normals go in through a staging block of _STAGE paths x _CHUNK
    steps, become noise factors in place, and each step writes its state
    over its own row.  One scan per chunk then finds the crossings,
    _SCAN rows at a time in a bool mask of _SCAN x _BATCH.
    """
    if validate_problem(d, cfg.problem):
        return FptSample(times=np.zeros(cfg.paths), censored=0, config=cfg,
                         model=d.params)
    threshold = cfg.problem.threshold
    past = np.greater if cfg.problem.direction is Direction.UP else np.less
    dt = cfg.dt
    K1, grow, gm1, drift_corr, vol = step_constants(d, dt)
    max_steps = cfg.steps
    all_times = []
    censored = 0
    width = min(cfg.paths, _BATCH)
    buf = np.empty((min(_CHUNK, max_steps), width))
    stage = np.empty((min(_STAGE, width), len(buf)))
    mask = np.empty((min(_SCAN, len(buf)), width), dtype=bool)
    drift, tmp = np.empty(width), np.empty(width)
    for start in range(0, cfg.paths, _BATCH):
        gens = _path_generators(cfg.seed, range(start, min(start + _BATCH, cfg.paths)))
        x = np.full(len(gens), float(d.params.x0))
        base = 0
        while len(x) and base < max_steps:
            n, span = len(x), min(_CHUNK, max_steps - base)
            states = buf[:span, :n]
            _draw_normals(gens, states, stage)
            _noise_factor(states, drift_corr, vol)
            _step_rows(states, x, (K1, grow, gm1), drift[:n], tmp[:n])
            first = _first_crossings(states, past, threshold, mask)
            crossed = np.flatnonzero(first < span)
            if len(crossed):
                jc = first[crossed]
                x_after = states[jc, crossed]
                x_before = x[crossed]
                later = jc > 0
                x_before[later] = states[jc[later] - 1, crossed[later]]
                frac = (threshold - x_before) / (x_after - x_before)
                all_times.append((base + jc.astype(float)) * dt + dt * frac)
            keep = first == span
            x = states[-1, keep]
            gens = [g for g, k in zip(gens, keep) if k]
            base += span
        censored += len(x)
    times = np.sort(np.concatenate(all_times)) if all_times else np.empty(0)
    return FptSample(times=times, censored=censored, config=cfg, model=d.params)


def empirical_moments(s: FptSample, order: int) -> MomentSet:
    """Raw sample moments of the observed crossing times.

    Censored paths are excluded (their count is carried by the sample);
    values are stored as double-precision entries of a MomentSet.
    """
    if s.n == 0:
        raise EmptySample("no crossing times observed")
    moments = tuple(mpf(float(np.mean(s.times ** k))) for k in range(1, order + 1))
    return MomentSet(moments=moments, precision=53)


def silverman_bandwidth(times: np.ndarray) -> float:
    """0.9 min(sd, IQR/1.34) n^(-1/5); falls back to sd when IQR degenerates."""
    n = len(times)
    if n < 2:
        raise EmptySample("bandwidth needs at least two observations")
    sd = float(np.std(times, ddof=1))
    q75, q25 = np.percentile(times, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread == 0:
        raise EmptySample("degenerate sample: zero spread")
    return 0.9 * spread * n ** (-0.2)


def kde(s: FptSample, grid) -> np.ndarray:
    """Gaussian kernel density of the crossing times on the given grid.

    The bandwidth is Silverman's rule.  Mass leaking below t = 0 is
    reflected back, so the estimate integrates to one on the half line.
    The grid runs in blocks of _KDE_BLOCK // n points (at least one), and
    each point's kernel sum reduces one row over all n times, so the
    block size does not change a bit of the result.
    """
    if s.n == 0:
        raise EmptySample("no crossing times observed")
    grid = np.asarray(grid, dtype=float)
    h = silverman_bandwidth(s.times)
    times = s.times
    norm = 1.0 / (s.n * h * math.sqrt(2 * math.pi))
    out = np.empty_like(grid)
    step = max(1, _KDE_BLOCK // len(times))
    for i in range(0, len(grid), step):
        g = grid[i:i + step, None]
        direct = np.exp(-0.5 * ((g - times[None, :]) / h) ** 2)
        mirror = np.exp(-0.5 * ((g + times[None, :]) / h) ** 2)
        out[i:i + step] = norm * (direct + mirror).sum(axis=1)
    out[grid < 0] = 0.0
    return out


def write_samples_csv(s: FptSample, path) -> None:
    """One crossing time per row; header lines echo the full configuration."""
    meta = {"model": s.model.to_dict() if s.model else None,
            "sim": s.config.to_dict()}
    with open(path, "w") as fh:
        fh.write(CSV_MAGIC + "\n")
        fh.write(f"# config: {json.dumps(meta, sort_keys=True)}\n")
        fh.write(f"# censored: {s.censored}\n")
        fh.write("time\n")
        for t in s.times:
            fh.write(repr(float(t)) + "\n")


def read_samples_csv(path) -> FptSample:
    """Inverse of :func:`write_samples_csv`; a file it could not have
    written raises InvalidParams naming the file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4 or lines[0] != CSV_MAGIC:
        raise InvalidParams(f"{path} is not a crossing-time sample file")
    try:  # a bad number or config line; JSONDecodeError is a ValueError
        meta = json.loads(lines[1].removeprefix("# config: "))
        censored = int(lines[2].removeprefix("# censored: "))
        times = np.array([float(x) for x in lines[4:] if x], dtype=float)
    except ValueError as exc:
        raise InvalidParams(f"{path}: malformed sample file: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("model"), (dict, type(None))):
        raise InvalidParams(f"{path}: malformed config line")
    if lines[3] != "time":
        raise InvalidParams(f"{path}: malformed sample file header")
    config = SimConfig.from_dict(meta.get("sim"))
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise InvalidParams(f"{path}: crossing times must be finite and >= 0")
    if censored < 0 or len(times) + censored > config.paths:
        raise InvalidParams(f"{path}: {len(times)} crossing times and {censored} censored "
                            f"paths do not fit in {config.paths} paths")
    model = ModelParams.from_dict(meta["model"]) if meta.get("model") else None
    return FptSample(times=times, censored=censored, config=config, model=model)
