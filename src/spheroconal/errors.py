"""Exception types raised across the package.

Every error below derives from :class:`SpheroconalError`, so callers can
catch the whole family with one clause while tests pin the precise type.
"""


class SpheroconalError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Asymmetry-parameter errors


class InvalidOrdering(SpheroconalError):
    """Moments of inertia are not strictly positive and sorted ascending."""


class SphericalTop(SpheroconalError):
    """All three principal moments coincide; the asymmetry scale vanishes."""


class SymmetricTop(SpheroconalError):
    """Two principal moments coincide; one elliptic modulus degenerates."""


class OutOfRange(SpheroconalError):
    """A dimensionless asymmetry parameter lies outside its open interval."""


# ---------------------------------------------------------------------------
# Elliptic-function errors


class Divergent(SpheroconalError):
    """The complete elliptic integral diverges (parameter equal to 1)."""


# ---------------------------------------------------------------------------
# Polynomial-algebra errors


class NotDivisible(SpheroconalError):
    """A polynomial is not divisible by the metric factor 1 - k1^2 u - k2^2 v."""


class Singular(SpheroconalError):
    """A basis matrix is numerically singular (condition number too large)."""


# ---------------------------------------------------------------------------
# One-dimensional eigenproblem errors


class WrongKind(SpheroconalError):
    """Species parity is incompatible with the requested polynomial degree."""


class DegenerateEigenvalues(SpheroconalError):
    """Two eigenvalues of one species block coincide within tolerance."""


# ---------------------------------------------------------------------------
# Harmonic-assembly errors


class MatchFailure(SpheroconalError):
    """The two one-dimensional eigenvalues fail the l(l+1) sum rule."""


class MissingScale(SpheroconalError):
    """Absolute energies were requested but no inertia scale is configured."""


class InversionFailure(SpheroconalError):
    """A unit direction could not be mapped back to elliptic coordinates."""


# ---------------------------------------------------------------------------
# Ladder errors


class LadderEnd(SpheroconalError):
    """A node shift was requested past the end of a multiplet ladder."""


class ProjectionResidual(SpheroconalError):
    """An operator image has content outside the expected target basis."""
