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
draws each chunk of _CHUNK = 512 steps into one normal buffer of
min(paths, _BATCH = 4096) x 512 doubles, at most 16 MiB, allocated once per
call; besides it, it holds about 1 KB of generator state per path of the
current batch, and the crossing times.  ``kde`` evaluates the grid in
blocks of _KDE_BLOCK doubles (512 KiB) per temporary, whatever the grid
size; a block holds at least one grid point, so a sample larger than
_KDE_BLOCK takes one row of n doubles instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpf

from .analytics import MomentSet
from .errors import EmptySample, InvalidParams
from .model import DerivedParams, Direction, FptProblem, ModelParams, validate_problem

_MASK64 = (1 << 64) - 1
_BATCH = 4096
_CHUNK = 512
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
        """Steps per path: ceil(horizon / dt)."""
        return math.ceil(self.horizon / self.dt)

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
            problem = FptProblem(Direction(d["direction"]), float(d["threshold"]))
            paths, seed, dt, horizon = d["paths"], d["seed"], float(d["dt"]), float(d["horizon"])
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
    sigma sqrt(dt)) of a splitting step of size dt, for lie_trotter_step."""
    K1 = float(d.K1)
    sigma = float(d.params.sigma)
    grow = math.exp(float(d.r1) * dt)
    return K1, grow, grow - 1.0, -0.5 * sigma * sigma * dt, sigma * math.sqrt(dt)


def lie_trotter_step(x, z, K1, grow, gm1, drift_corr, vol):
    """One splitting step from state x with standard-normal draw z.

    The constants come from :func:`step_constants`.  Works elementwise on
    numpy arrays; always returns a positive state.
    """
    return (K1 * x * grow / (K1 + x * gm1)) * np.exp(drift_corr + vol * z)


def _path_generators(seed: int, ids) -> list:
    return [np.random.Generator(np.random.Philox(key=np.array([seed & _MASK64, p],
                                                              dtype=np.uint64)))
            for p in ids]


def sample_fpt(d: DerivedParams, cfg: SimConfig) -> FptSample:
    """Simulate cfg.paths trajectories and collect first-crossing times.

    The crossing time is linearly interpolated between the grid values that
    bracket the threshold, which removes most of the O(dt) bias of recording
    the first grid point past it.  Raises WrongSide when x0 lies past the
    threshold; at x0 == threshold every time is 0.

    Each chunk's normals go into the rows of one buffer, allocated once;
    the surviving paths of a chunk fill its top-left corner.
    """
    if validate_problem(d, cfg.problem):
        return FptSample(times=np.zeros(cfg.paths), censored=0, config=cfg,
                         model=d.params)
    threshold = cfg.problem.threshold
    up = cfg.problem.direction is Direction.UP
    dt = cfg.dt
    consts = step_constants(d, dt)
    max_steps = cfg.steps
    all_times = []
    censored = 0
    buf = np.empty((min(cfg.paths, _BATCH), min(_CHUNK, max_steps)))
    for start in range(0, cfg.paths, _BATCH):
        ids = range(start, min(start + _BATCH, cfg.paths))
        gens = _path_generators(cfg.seed, ids)
        x = np.full(len(gens), float(d.params.x0))
        base = 0
        while len(x) and base < max_steps:
            span = min(_CHUNK, max_steps - base)
            z = buf[:len(x), :span]
            for g, row in zip(gens, z):
                g.standard_normal(out=row)
            crossed_at = np.full(len(x), -1, dtype=np.int64)
            x_before = np.empty(len(x))
            x_after = np.empty(len(x))
            cur = x
            for j in range(span):
                nxt = lie_trotter_step(cur, z[:, j], *consts)
                hit = nxt > threshold if up else nxt < threshold
                newly = (crossed_at < 0) & hit
                if newly.any():
                    crossed_at[newly] = j
                    x_before[newly] = cur[newly]
                    x_after[newly] = nxt[newly]
                cur = nxt
            done = crossed_at >= 0
            if done.any():
                jc = crossed_at[done].astype(float)
                frac = (threshold - x_before[done]) / (x_after[done] - x_before[done])
                all_times.append((base + jc) * dt + dt * frac)
            keep = ~done
            x = cur[keep]
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
    return MomentSet(problem=s.config.problem, order=order, moments=moments, precision=53)


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
