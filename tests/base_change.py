"""Exponent-level base changes, the reference ``BaseChangeRecord`` is
checked against.

A reduction records (a, b, c, e, n) with

    f(x t^a, y t^b, t^c) = t^e * g(x, y, t^n);

these helpers apply both sides to an ``AffineEquation`` term by term, so the
identity can be verified without reference to how the reducer found it.
"""

from __future__ import annotations

from delsarte.errors import ValidationError
from delsarte.model import AffineEquation


def apply_base_change(
    eq: AffineEquation, a: int, b: int, c: int, e: int = 0
) -> AffineEquation:
    """Exponent-level substitution (x, y, t) -> (x t^a, y t^b, t^c), then
    division by t^e.  ``c`` must be nonzero so distinct monomials stay
    distinct."""
    if c == 0:
        raise ValidationError("base change needs a nonzero t-degree")
    return AffineEquation(
        tuple(
            (coeff, (ex, ey, ex * a + ey * b + et * c - e))
            for coeff, (ex, ey, et) in eq.terms
        )
    )


def scale_t_exponents(eq: AffineEquation, n: int) -> AffineEquation:
    """Substitute t -> t^n at the exponent level (n may be negative)."""
    return AffineEquation(
        tuple((c, (ex, ey, et * n)) for c, (ex, ey, et) in eq.terms)
    )


def term_set(eq: AffineEquation) -> frozenset:
    """Order-insensitive view, for equality up to reordering."""
    return frozenset(eq.terms)
