"""Exception hierarchy and warnings shared across the package."""


class LogifptError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(LogifptError):
    """Raw model parameters violate their domain constraints."""


class InvalidHarvest(InvalidParams):
    """Harvesting mortality q*E is at least the intrinsic growth rate r."""


class NonPersistentRegime(LogifptError):
    """The persistence index is non-positive; interior thresholds are not
    guaranteed to be reached in finite time and the moment machinery of
    this package does not apply."""


class WrongSide(LogifptError):
    """Threshold lies on the wrong side of the initial state for the
    requested crossing direction."""


class ZeroConstantTerm(LogifptError):
    """Series reciprocal/ratio requested for a series with zero constant term."""


class NonPositiveConstantTerm(LogifptError):
    """Series logarithm requested for a series whose constant term is <= 0."""


class NoConvergence(LogifptError):
    """A convergent coefficient sum failed to satisfy its truncation rule
    within the table bound (``kernels.N_MAX_DEFAULT`` terms)."""


class NonConvergent(LogifptError):
    """Requested quantity cannot be produced within the requested accuracy
    (downcrossing asymptotics exhausted)."""


class ZeroVariance(LogifptError):
    """Gamma moment matching needs a strictly positive variance."""


class InsufficientMoments(LogifptError):
    """More moments are required than the supplied MomentSet carries."""


class EmptySample(LogifptError):
    """Operation requires at least one observed crossing time."""


class BadParameterB(LogifptError):
    """Kummer function evaluated at a non-positive integer second parameter."""


class QuadratureFailure(LogifptError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StencilFailure(LogifptError):
    """Finite-difference stencil could not be evaluated, even after
    shrinking the step."""


class NoFeasibleStart(LogifptError):
    """Likelihood optimisation started from an infeasible parameter point."""


class SingularOriginWarning(UserWarning):
    """Moment matching produced a Gamma reference with negative shape offset
    (coefficient of variation above one); the reference density is singular
    at the origin."""


class ExpansionConditionWarning(UserWarning):
    """The matched Gamma rate violates the sufficient convergence condition
    of the orthogonal expansion; the expansion is applied regardless."""
