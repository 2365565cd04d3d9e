"""Exception hierarchy shared across the package.

Each class below maps to one exit code of the command line, and no stage
catches them: an error ends the run.

* ``ValidationError`` (exit 3) -- the input data itself is malformed or
  violates a documented precondition (wrong shape, inconsistent degrees, a
  singular matrix where a nonsingular one is required, a size past its
  bound, ...).
* ``VerificationError`` (exit 1) -- a ``verify`` recount disagreed with the
  closed form it checks.
"""


class DelsarteError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DelsarteError):
    """Input data fails a documented precondition."""


class VerificationError(DelsarteError):
    """A verify oracle disagreed with the formula it was checking."""
