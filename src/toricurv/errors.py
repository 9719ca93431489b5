"""Exception types shared by all toricurv modules."""


class ToricurvError(Exception):
    """Base class for every error raised by this package."""


class NonOrthogonal(ToricurvError):
    """A matrix expected to be orthogonal is not, beyond tolerance."""


class DegenerateMetric(ToricurvError):
    """The induced metric is singular (or nearly so) at a point."""


class NonFiniteValue(ToricurvError):
    """A computed report value is not a finite number (the input overflows)."""


class OriginPoint(ToricurvError):
    """The evaluation point sits at the origin, so radial angles are undefined."""


class ZeroMeanCurvature(ToricurvError):
    """The mean curvature vector vanishes, so its angle to the position is undefined."""


class DimensionTooLow(ToricurvError):
    """The operation requires intrinsic dimension n >= 3."""


class RankDeficient(ToricurvError):
    """An integer frame matrix does not have full column rank."""


class UnknownDesign(ToricurvError):
    """No built-in frame matrix with the requested name."""


class InapplicableHypothesis(ToricurvError):
    """A check's hypothesis fails, so its conclusion is not evaluated."""


class NotInBall(InapplicableHypothesis):
    """The image of the immersion leaves the closed unit ball."""


class WrongDimension(InapplicableHypothesis):
    """The check applies only to a specific intrinsic dimension."""


class NoNonpositiveScalarPoint(ToricurvError):
    """No grid point with nonpositive scalar curvature was found (reported, not asserted)."""


class ParseError(ToricurvError):
    """An input file does not conform to its documented format."""


class WorkerDied(ToricurvError):
    """A forked worker process (an explore restart's or a grid pass's) died
    before returning its result."""
