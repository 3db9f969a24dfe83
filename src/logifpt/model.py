"""Model parameters and first-passage problem definition.

The population follows the Ito diffusion

    dX = r X (1 - X/K) dt - q E X dt + sigma X dW,   X(0) = x0 > 0,

which constant-effort harvesting reduces to a plain logistic diffusion with
effective rate ``r1 = r - qE`` and capacity ``K1 = K (1 - qE/r)``.  All
downstream analytics consume the derived quantities collected in
:class:`DerivedParams`; they are computed once in arbitrary precision
(default 256 bits) because the coefficient recursions they feed are prone to
catastrophic cancellation in double precision.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

from mpmath import mp, mpf

from .errors import InvalidHarvest, InvalidParams, NonPersistentRegime, WrongSide

DEFAULT_PRECISION = 256
# every output is written in double precision, so no working precision is lower
MIN_PRECISION = 53

_PARAM_KEYS = ("r", "K", "q", "E", "sigma", "x0")


def _json_number(value, what: str) -> float:
    """A number read from a JSON file, as a float: the one rule for the
    config, ``--fixed``, moments and sample files.  null, booleans, strings,
    lists and objects are input errors, and so is an integer beyond the
    range of a float.  Other real numbers (numpy scalars from the library's
    own callers) pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParams(f"{what} must be a number, got {json.dumps(value, default=repr)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidParams(f"{what} is beyond the range of a float") from exc


class Direction(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ModelParams:
    """Raw model inputs.

    All values must be finite; r, K, sigma, x0 must be strictly positive,
    q and E may be zero.  The non-extinction constraint q*E < r is enforced
    at construction.
    """

    r: float
    K: float
    q: float
    E: float
    sigma: float
    x0: float

    def __post_init__(self):
        for name in _PARAM_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("r", "K", "sigma", "x0"):
            if not getattr(self, name) > 0:
                raise InvalidParams(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("q", "E"):
            if getattr(self, name) < 0:
                raise InvalidParams(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.q * self.E >= self.r:
            raise InvalidHarvest(
                f"harvesting mortality q*E = {self.q * self.E} must stay below r = {self.r}"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        missing = [k for k in _PARAM_KEYS if k not in d]
        if missing:
            raise InvalidParams(f"missing parameter keys: {missing}")
        return cls(**{k: _json_number(d[k], f"parameter {k}") for k in _PARAM_KEYS})

    @classmethod
    def from_json(cls, path) -> "ModelParams":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise InvalidParams("parameter file must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _PARAM_KEYS}


@dataclass(frozen=True)
class FptProblem:
    """A crossing threshold together with the crossing direction."""

    direction: Direction
    threshold: float

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise InvalidParams(f"threshold must be finite and > 0, got {self.threshold!r}")


@dataclass(frozen=True)
class DerivedParams:
    """High-precision derived quantities every analytic formula consumes.

    r1   effective growth rate r - qE
    K1   effective carrying capacity K (1 - qE/r)
    u    dimensionless drift index (1 - 2 r1/sigma^2) / 2, negative here
    v    inverse population scale 2 r1 / (K1 sigma^2)
    a    Laplace-variable scaling 2 / (sigma^2 u^2)
    rho  persistence index 2 r1 / sigma^2 - 1 = -2u, required > 0
    """

    params: ModelParams
    precision: int
    r1: object
    K1: object
    u: object
    v: object
    a: object
    rho: object

    def floats(self) -> dict:
        """Double-precision view of the derived quantities."""
        return {
            "r1": float(self.r1),
            "K1": float(self.K1),
            "u": float(self.u),
            "v": float(self.v),
            "a": float(self.a),
            "rho": float(self.rho),
        }


def derive_params(p: ModelParams, precision: int = DEFAULT_PRECISION) -> DerivedParams:
    """Compute :class:`DerivedParams` at the requested binary precision.

    Raises NonPersistentRegime when the persistence index is <= 0 (the
    regime in which crossing times may be infinite) and InvalidParams when
    ``precision`` is below MIN_PRECISION.  q*E < r holds: ModelParams
    refuses anything else.
    """
    if precision < MIN_PRECISION:
        raise InvalidParams(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
    with mp.workprec(precision):
        r = mpf(p.r)
        sigma2 = mpf(p.sigma) ** 2
        r1 = r - mpf(p.q) * mpf(p.E)
        rho = 2 * r1 / sigma2 - 1
        if not rho > 0:  # before K1 and v, which r1 = 0 would make 0 and 0/0
            raise NonPersistentRegime(
                f"persistence index rho = {float(rho)} is not > 0; increase r1/sigma^2"
            )
        K1 = mpf(p.K) * (1 - mpf(p.q) * mpf(p.E) / r)
        u = (1 - 2 * r1 / sigma2) / 2
        v = 2 * r1 / (K1 * sigma2)
        a = 2 / (sigma2 * u ** 2)
    return DerivedParams(params=p, precision=precision, r1=r1, K1=K1, u=u, v=v, a=a, rho=rho)


def validate_problem(d: DerivedParams, prob: FptProblem) -> bool:
    """Check threshold ordering; return True when the problem is degenerate.

    Degenerate means x0 equals the threshold: the crossing time is zero
    almost surely, all moments vanish and the transform is identically one.
    Raises WrongSide when the ordering contradicts the direction.
    """
    x0 = d.params.x0
    s = prob.threshold
    if x0 == s:
        return True
    if prob.direction is Direction.UP and x0 > s:
        raise WrongSide(f"upcrossing needs x0 < threshold, got x0={x0}, threshold={s}")
    if prob.direction is Direction.DOWN and x0 < s:
        raise WrongSide(f"downcrossing needs threshold < x0, got x0={x0}, threshold={s}")
    return False
