"""sympy's Buchberger algorithm, the oracle for ``oracle._basis``.

``sympy_basis`` takes what ``_basis`` takes, builds the same generators in
sympy's sparse polynomial ring over QQ and returns sympy's reduced basis
(``groebnertools.groebner``) in the shape ``_basis`` returns: monic dicts
from exponent tuples to ``Fraction``s, by descending leading monomial.  A
reduced Groebner basis depends only on the ideal and the monomial order, so
the two must be equal.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.rings import PolyRing


def sympy_basis(system: list, nonzero: str, order: str) -> list:
    size = len(nonzero) + (order == "lex")
    ring = PolyRing(("u", *nonzero, "t")[: size + 1], QQ, order)
    polys = [
        ring.from_dict(
            {(0, *m[:size]): QQ(c.numerator, c.denominator) for m, c in p.items()}
        )
        for p in system
        if p
    ]
    unit = (1,) * (len(nonzero) + 1) + (0,) * (size - len(nonzero))
    polys.append(ring.from_dict({unit: QQ(1), (0,) * (size + 1): QQ(-1)}))
    return [
        {m: Fraction(int(c.numerator), int(c.denominator)) for m, c in g.items()}
        for g in groebner(polys, ring)
    ]
