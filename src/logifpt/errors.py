"""Exception hierarchy and warnings shared across the package."""


class LogifptError(Exception):
    """Base class for all package-specific errors; ``exit_code`` is the CLI's
    exit status for it: 1 input, 2 infeasible regime, 3 non-convergence."""

    exit_code = 1


class InvalidParams(LogifptError):
    """Raw model parameters violate their domain constraints."""


class InvalidHarvest(InvalidParams):
    """Harvesting mortality q*E is at least the intrinsic growth rate r."""

    exit_code = 2


class NonPersistentRegime(LogifptError):
    """The persistence index is non-positive; interior thresholds are not
    guaranteed to be reached in finite time and the moment machinery of
    this package does not apply."""

    exit_code = 2


class WrongSide(LogifptError):
    """Threshold lies on the wrong side of the initial state for the
    requested crossing direction."""

    exit_code = 2


class NoConvergence(LogifptError):
    """A convergent coefficient sum failed to satisfy its truncation rule
    within the table bound (``kernels.N_MAX_DEFAULT`` terms)."""

    exit_code = 3


class ZeroVariance(LogifptError):
    """Gamma moment matching needs a strictly positive variance."""


class UnreliableMoments(LogifptError):
    """Moment matching got a variance or a mean that is not > 0 from a series
    set that flags its first or second moment: their error estimates exceed
    ``analytics.FLAG_RTOL``, so the sums cannot give a Gamma reference.  The
    ``density`` command raises it too when a set that flags any order gives
    a density that is NaN, or infinite at t > 0."""

    exit_code = 3


class InsufficientMoments(LogifptError):
    """More moments are required than the supplied MomentSet carries."""


class EmptySample(LogifptError):
    """Operation requires at least one observed crossing time."""


class TransformFailure(LogifptError):
    """The oracle's transform has no valid value at a lam: lam <= -1/a, the
    value is not E[exp(-lam T)], or ``hyp1f1``/``hyperu`` did not converge."""

    exit_code = 3


class NoFeasibleStart(LogifptError):
    """Likelihood optimisation started from an infeasible parameter point."""

    exit_code = 2


class SingularOriginWarning(UserWarning):
    """Moment matching produced a Gamma reference with negative shape offset
    (coefficient of variation above one); the reference density is singular
    at the origin."""


class ExpansionConditionWarning(UserWarning):
    """The matched Gamma rate violates the sufficient convergence condition
    of the orthogonal expansion; the expansion is applied regardless."""
