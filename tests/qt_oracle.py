"""sympy's Q[t] and Q(t), the oracle for ``exact.QPoly`` and the printers.

``QT`` is sympy's ``field("t", QQ)`` and ``QT_RING`` its ring of
polynomials; ``to_ring`` and ``from_ring`` carry a polynomial between the
two types, and ``to_expr`` gives its sympy expression.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import field

from delsarte.exact import QPoly

QT = field("t", QQ)[0]
QT_RING = QT.ring


def to_ring(p: QPoly):
    return QT_RING.from_dict(
        {(e,): QQ(c.numerator, c.denominator) for e, c in enumerate(p.coeffs) if c}
    )


def from_ring(p) -> QPoly:
    coeffs = [0] * (p.degree() + 1) if p else []
    for (e,), c in p.terms():
        coeffs[e] = Fraction(int(c.numerator), int(c.denominator))
    return QPoly(coeffs)


def to_expr(p: QPoly):
    return to_ring(p).as_expr()
