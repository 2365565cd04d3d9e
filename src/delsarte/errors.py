"""Exception hierarchy shared across the package.

Three families matter to callers (and to the CLI exit-code mapping):

* ``ValidationError`` -- the input data itself is malformed or violates a
  documented precondition (wrong shape, inconsistent degrees, degenerate
  exponent matrix where a nondegenerate one is required, ...).
* ``UnsupportedShapeError`` -- the input is a perfectly good surface, but it
  is outside the shape a particular routine handles (e.g. a fibration that
  still needs normalization, or a genus-1 family with no usable plane cubic
  or quartic model).
* ``VerificationError`` -- a ``verify`` recount disagreed with the closed
  form it checks.
"""


class DelsarteError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DelsarteError):
    """Input data fails a documented precondition."""


class UnsupportedShapeError(DelsarteError):
    """Valid input, but outside the shape this routine supports."""


class SingularMatrixError(ValidationError):
    """A matrix that must be invertible has determinant zero."""


class RankDeficiencyError(ValidationError):
    """A matrix that must have full expected rank does not."""


class DegenerateFibrationError(ValidationError):
    """The exponent matrix is singular, so the standard fibration degenerates."""


class NotConvertibleError(UnsupportedShapeError):
    """No Weierstrass model can be extracted from this equation shape."""


class VerificationError(DelsarteError):
    """A verify oracle disagreed with the formula it was checking."""
