"""sympy's Buchberger algorithm, the oracle for ``oracle._basis``.

``sympy_basis`` takes what ``_basis`` takes, builds the same generators in
sympy's sparse polynomial ring over QQ in lex order and returns sympy's
reduced basis (``groebnertools.groebner``) in the shape ``_basis`` returns:
integer dicts from exponent tuples, each primitive with a positive leading
coefficient, by descending leading monomial.  A reduced Groebner basis
depends only on the ideal and the monomial order, and this scaling of each
element is unique, so the two must be equal.
"""

from __future__ import annotations

from math import lcm

from sympy import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.rings import PolyRing


def sympy_basis(system: list) -> list:
    size = len(next(iter(system[0])))  # the chart variables and t
    ring = PolyRing(("u", *(f"x{i}" for i in range(1, size)), "t"), QQ, "lex")
    polys = [
        ring.from_dict(
            {(0, *m): QQ(c.numerator, c.denominator) for m, c in p.items()}
        )
        for p in system
        if p
    ]
    unit = {(1,) * size + (0,): QQ(1), (0,) * (size + 1): QQ(-1)}
    polys.append(ring.from_dict(unit))
    basis = []
    for g in groebner(polys, ring):
        # sympy's basis is monic: times the lcm of its denominators it is
        # integral, and primitive, since each prime of that lcm divides the
        # denominator of some coefficient to its full power there
        scale = lcm(*(int(c.denominator) for c in g.values()))
        basis.append(
            {m: int(c.numerator) * (scale // int(c.denominator)) for m, c in g.items()}
        )
    return basis
