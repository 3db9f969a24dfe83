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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpf

from .analytics import MomentMethod, MomentSet
from .errors import EmptySample, InvalidParams
from .model import DerivedParams, Direction, FptProblem, ModelParams

_MASK64 = (1 << 64) - 1
_BATCH = 4096
_CHUNK = 512
_STATIONARY_STREAM = _MASK64  # path ids are always < paths << 2^64 - 1

CSV_MAGIC = "# logifpt fpt-sample v1"


@dataclass(frozen=True)
class SimConfig:
    problem: FptProblem
    paths: int
    dt: float
    horizon: float
    seed: int
    interpolate_crossing: bool = True

    def __post_init__(self):
        if self.paths < 1:
            raise InvalidParams(f"paths must be >= 1, got {self.paths}")
        if not self.dt > 0:
            raise InvalidParams(f"dt must be > 0, got {self.dt}")
        if not self.horizon > self.dt:
            raise InvalidParams("horizon must exceed dt")

    def to_dict(self) -> dict:
        return {
            "direction": self.problem.direction.value,
            "threshold": self.problem.threshold,
            "paths": self.paths,
            "dt": self.dt,
            "horizon": self.horizon,
            "seed": self.seed,
            "interpolate_crossing": self.interpolate_crossing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(
            problem=FptProblem(Direction(d["direction"]), float(d["threshold"])),
            paths=int(d["paths"]), dt=float(d["dt"]), horizon=float(d["horizon"]),
            seed=int(d["seed"]),
            interpolate_crossing=bool(d.get("interpolate_crossing", True)),
        )


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

    @property
    def censored_fraction(self) -> float:
        return self.censored / self.config.paths

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

    The crossing is recorded at the first grid point past the threshold or,
    with interpolate_crossing, linearly interpolated between the bracketing
    grid values (removes most of the O(dt) grid bias).
    """
    threshold = cfg.problem.threshold
    up = cfg.problem.direction is Direction.UP
    x0 = d.params.x0
    if threshold == x0:
        return FptSample(times=np.zeros(cfg.paths), censored=0, config=cfg,
                         model=d.params)
    dt = cfg.dt
    consts = step_constants(d, dt)
    max_steps = int(math.ceil(cfg.horizon / dt))
    all_times = []
    censored = 0
    for start in range(0, cfg.paths, _BATCH):
        ids = range(start, min(start + _BATCH, cfg.paths))
        gens = _path_generators(cfg.seed, ids)
        x = np.full(len(gens), float(x0))
        base = 0
        while len(x) and base < max_steps:
            span = min(_CHUNK, max_steps - base)
            z = np.empty((len(x), span))
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
                if cfg.interpolate_crossing:
                    frac = (threshold - x_before[done]) / (x_after[done] - x_before[done])
                    t_cross = (base + jc) * dt + dt * frac
                else:
                    t_cross = (base + jc + 1.0) * dt
                all_times.append(t_cross)
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
    return MomentSet(problem=s.config.problem, order=order, moments=moments,
                     method=MomentMethod.EMPIRICAL, precision=53)


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
    """
    if s.n == 0:
        raise EmptySample("no crossing times observed")
    grid = np.asarray(grid, dtype=float)
    h = silverman_bandwidth(s.times)
    times = s.times
    norm = 1.0 / (s.n * h * math.sqrt(2 * math.pi))
    out = np.empty_like(grid)
    step = max(1, int(2e6 // max(len(times), 1)))
    for i in range(0, len(grid), step):
        g = grid[i:i + step, None]
        direct = np.exp(-0.5 * ((g - times[None, :]) / h) ** 2)
        mirror = np.exp(-0.5 * ((g + times[None, :]) / h) ** 2)
        out[i:i + step] = norm * (direct + mirror).sum(axis=1)
    out[grid < 0] = 0.0
    return out


def stationary_check(d: DerivedParams, paths: int = 128, steps: int = 40000,
                     dt: float = 0.01, seed: int = 0) -> dict:
    """Compare the long-run empirical mean to the stationary Gamma mean.

    The first quarter of the steps is burn-in and is left out of the mean.

    The stationary law of the effective process is taken as Gamma with
    shape rho and rate v, giving mean rho/v (for zero harvesting this is
    the classical shape rho, rate 2r/(K sigma^2) law; the harvested rate is
    the corresponding quantity of the effective parameters).
    """
    target = float(d.rho) / float(d.v)
    consts = step_constants(d, dt)
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed & _MASK64, _STATIONARY_STREAM], dtype=np.uint64)))
    x = np.full(paths, target)
    burn = int(steps * 0.25)
    acc = 0.0
    count = 0
    for j in range(steps):
        z = gen.standard_normal(paths)
        x = lie_trotter_step(x, z, *consts)
        if j >= burn:
            acc += float(x.sum())
            count += paths
    emp = acc / count
    return {
        "empirical_mean": emp,
        "target_mean": target,
        "rel_deviation": abs(emp - target) / target,
        "paths": paths,
        "steps": steps,
        "dt": dt,
    }


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
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4 or lines[0] != CSV_MAGIC:
        raise InvalidParams(f"{path} is not a crossing-time sample file")
    meta = json.loads(lines[1].removeprefix("# config: "))
    censored = int(lines[2].removeprefix("# censored: "))
    if lines[3] != "time":
        raise InvalidParams("malformed sample file header")
    times = np.array([float(x) for x in lines[4:] if x], dtype=float)
    config = SimConfig.from_dict(meta["sim"])
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise InvalidParams(f"{path}: crossing times must be finite and >= 0")
    if censored < 0 or len(times) + censored > config.paths:
        raise InvalidParams(f"{path}: {len(times)} crossing times and {censored} censored "
                            f"paths do not fit in {config.paths} paths")
    model = ModelParams.from_dict(meta["model"]) if meta.get("model") else None
    return FptSample(times=times, censored=censored, config=config, model=model)
