"""Exception types shared across the package."""


class HeiscurvesError(Exception):
    """Base class for all package errors."""


class DomainError(HeiscurvesError):
    """Point lies outside the chart of the metric (conformal factor <= 0)."""


class BasePointMismatch(HeiscurvesError):
    """Vectors given at different base points where a single point is required."""


class DegeneratePlane(HeiscurvesError):
    """Sectional curvature requested for a (numerically) degenerate 2-plane."""


class UnsupportedManifold(HeiscurvesError):
    """Operation defined only on the Heisenberg group (m, l) = (0, 1)."""


class NonUnitSpeed(HeiscurvesError):
    """Curve samples violate the unit-speed contract."""


class NonMonotone(HeiscurvesError):
    """Sampled arclength values are not strictly increasing and uniform."""


class MalformedSampleFile(HeiscurvesError):
    """Curve sample file with a bad header, row or number, or too few rows."""


class NonFiniteVelocity(MalformedSampleFile, NonUnitSpeed):
    """Curve sample file with a ``nan`` or ``inf`` velocity component: a
    malformed file, and a velocity that cannot have unit length."""


class TooFewSamples(HeiscurvesError):
    """Not enough samples for the requested finite-difference stencil depth."""


class GeodesicFrameUndefined(HeiscurvesError):
    """Frenet frame requested where the geodesic curvature is below the floor."""


class IntegrationFailure(HeiscurvesError):
    """Adaptive ODE integration failed to reach the end of the interval."""


class DomainExit(HeiscurvesError):
    """A curve leaves the chart within its range: it reaches the edge of an
    m < 0 chart, or passes through the point an m > 0 chart misses."""


class InadmissibleAlpha(HeiscurvesError):
    """Helix axis angle outside the admissible set 5*cos(alpha0)**2 >= 4."""


class NonMonotoneAlpha(HeiscurvesError):
    """Profile angle alpha(s) is not strictly increasing."""


class NonUnitVector(HeiscurvesError):
    """A unit vector was required."""
